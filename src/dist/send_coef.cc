#include "dist/send_coef.h"

#include <algorithm>

#include "common/bits.h"
#include "common/audit.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {

DistSynopsisResult RunSendCoef(const std::vector<double>& data, int64_t budget,
                               int64_t num_mappers,
                               const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  num_mappers = std::min(num_mappers, n);

  dist_internal::TopBySignificance top(budget);

  mr::JobSpec<RangeSplit, int64_t, double, int64_t> spec;
  spec.name = "send_coef";
  spec.num_reducers = 1;
  spec.split_bytes = RangeSplitBytes;
  spec.map = [&](int64_t, const RangeSplit& split, const auto& emit) {
    const auto [begin, end] = split;
    // Fully contained coefficients: emitted once, exactly valued.
    ForEachContainedCoefficient(data, begin, end, emit);
    // Straddling ancestors: per-datapoint partial contributions
    // (Algorithm 7's "partially computed" loop).
    for (int64_t i = begin; i < end; ++i) {
      const double value = data[static_cast<size_t>(i)];
      int64_t node = LeafParent(n, i);
      while (node >= 1) {
        const LeafRange range = NodeLeafRange(n, node);
        if (range.first < begin || range.first + range.count > end) break;
        node >>= 1;  // fully contained: already emitted by its block
      }
      for (; node >= 1; node >>= 1) {
        const LeafRange range = NodeLeafRange(n, node);
        const int sign = LeafSign(n, node, i);
        emit(node, sign * value / static_cast<double>(range.count));
      }
      emit(0, value / static_cast<double>(n));
    }
  };
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<int64_t>*) {
    double total = 0.0;
    for (double v : values) total += v;
    // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
    top.Offer(key, total);
  };

  const std::vector<RangeSplit> splits = RangeSplits(n, num_mappers);

  DistSynopsisResult result;
  mr::JobChain chain("send_coef", cluster, &result.report, nullptr,
                     mr::CheckpointFingerprint(data, {budget, num_mappers}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<int64_t> unused;
        const Status status = chain.RunJob(spec, splits, &unused);
        if (!status.ok()) return status;
        Stopwatch finalize;
        result.synopsis = Synopsis(n, top.Take());
        if constexpr (audit::kEnabled) {
          DWM_AUDIT_CHECK(result.synopsis.size() <= budget);
        }
        chain.AddDriverSpan(
            "sendcoef_finalize",
            finalize.ElapsedSeconds() * cluster.compute_scale);
        return Status::OK();
      },
      [&] { return result.synopsis.domain_size() == n; }, &result.synopsis);
  result.status = chain.status();
  if (!result.status.ok()) return result;
  PublishSynopsisQuality("send_coef", result.synopsis,
                         MaxAbsError(data, result.synopsis));
  return result;
}

}  // namespace dwm
