#include "dist/send_v.h"

#include <algorithm>
#include <utility>

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
namespace {

// What the send_v job reads.
struct SendVCtx {
  const std::vector<double>& data;
};

}  // namespace

DistSynopsisResult RunSendV(const std::vector<double>& data, int64_t budget,
                            int64_t num_mappers,
                            const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  num_mappers = std::min(num_mappers, n);

  // Splits are (begin, end) ranges; mappers forward (leaf index, value).
  mr::JobSpec<SendVCtx, RangeSplit, int64_t, double,
              std::pair<int64_t, double>>
      spec;
  spec.name = "send_v";
  spec.num_reducers = 1;
  spec.split_bytes = RangeSplitBytes;
  spec.map = [](const SendVCtx& ctx, int64_t, const RangeSplit& split,
                const auto& emit) {
    for (int64_t i = split.first; i < split.second; ++i) {
      emit(i, ctx.data[static_cast<size_t>(i)]);
    }
  };
  spec.reduce = dist_internal::ForwardSingle;

  const std::vector<RangeSplit> splits = RangeSplits(n, num_mappers);

  DistSynopsisResult result;
  mr::JobChain chain("send_v", cluster, &result.report,
                     mr::CheckpointFingerprint(data, {budget, num_mappers}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<std::pair<int64_t, double>> leaves;
        const Status status = chain.RunJob(spec, SendVCtx{data}, splits,
                                           &leaves);
        if (!status.ok()) return status;
        // Reducer cleanup: the full centralized pipeline — this sequential
        // step is exactly why Send-V does not scale (Figure 10).
        Stopwatch finalize;
        std::vector<double> collected(static_cast<size_t>(n), 0.0);
        for (const auto& [i, value] : leaves) {
          collected[static_cast<size_t>(i)] = value;
        }
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
