#include "dist/send_v.h"

#include <algorithm>

#include "common/bits.h"
#include "common/audit.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/conventional.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/metrics.h"

namespace dwm {

DistSynopsisResult RunSendV(const std::vector<double>& data, int64_t budget,
                            int64_t num_mappers,
                            const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  num_mappers = std::min(num_mappers, n);

  std::vector<double> collected(static_cast<size_t>(n), 0.0);

  // Splits are (begin, end) ranges; mappers forward (leaf index, value).
  mr::JobSpec<RangeSplit, int64_t, double, int64_t> spec;
  spec.name = "send_v";
  spec.num_reducers = 1;
  spec.split_bytes = RangeSplitBytes;
  spec.map = [&](int64_t, const RangeSplit& split, const auto& emit) {
    for (int64_t i = split.first; i < split.second; ++i) {
      emit(i, data[static_cast<size_t>(i)]);
    }
  };
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<int64_t>*) {
    DWM_CHECK_EQ(values.size(), 1u);
    // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
    collected[static_cast<size_t>(key)] = values[0];
  };

  const std::vector<RangeSplit> splits = RangeSplits(n, num_mappers);

  DistSynopsisResult result;
  mr::JobChain chain("send_v", cluster, &result.report, nullptr,
                     mr::CheckpointFingerprint(data, {budget, num_mappers}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<int64_t> unused;
        const Status status = chain.RunJob(spec, splits, &unused);
        if (!status.ok()) return status;
        // Reducer cleanup: the full centralized pipeline — this sequential
        // step is exactly why Send-V does not scale (Figure 10).
        Stopwatch finalize;
        result.synopsis = ConventionalFromCoeffs(ForwardHaar(collected), budget);
        if constexpr (audit::kEnabled) {
          DWM_AUDIT_CHECK(result.synopsis.size() <= budget);
        }
        chain.AddDriverSpan(
            "sendv_finalize",
            finalize.ElapsedSeconds() * cluster.compute_scale);
        return Status::OK();
      },
      [&] { return result.synopsis.domain_size() == n; }, &result.synopsis);
  result.status = chain.status();
  if (!result.status.ok()) return result;
  PublishSynopsisQuality("send_v", result.synopsis,
                         MaxAbsError(data, result.synopsis));
  return result;
}

}  // namespace dwm
