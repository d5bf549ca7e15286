#include "dist/send_coef.h"

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
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

// What the send_coef job reads.
struct SendCoefCtx {
  const std::vector<double>& data;
};

}  // namespace

DistSynopsisResult RunSendCoef(const std::vector<double>& data, int64_t budget,
                               int64_t num_mappers,
                               const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  num_mappers = std::min(num_mappers, n);

  mr::JobSpec<SendCoefCtx, RangeSplit, int64_t, double,
              std::pair<int64_t, double>>
      spec;
  spec.name = "send_coef";
  spec.num_reducers = 1;
  spec.split_bytes = RangeSplitBytes;
  spec.map = [](const SendCoefCtx& ctx, int64_t, const RangeSplit& split,
                const auto& emit) {
    const int64_t leaves = static_cast<int64_t>(ctx.data.size());
    const auto [begin, end] = split;
    // Fully contained coefficients: emitted once, exactly valued.
    ForEachContainedCoefficient(ctx.data, begin, end, emit);
    // Straddling ancestors: per-datapoint partial contributions
    // (Algorithm 7's "partially computed" loop).
    for (int64_t i = begin; i < end; ++i) {
      const double value = ctx.data[static_cast<size_t>(i)];
      int64_t node = LeafParent(leaves, i);
      while (node >= 1) {
        const LeafRange range = NodeLeafRange(leaves, node);
        if (range.first < begin || range.first + range.count > end) break;
        node >>= 1;  // fully contained: already emitted by its block
      }
      for (; node >= 1; node >>= 1) {
        const LeafRange range = NodeLeafRange(leaves, node);
        const int sign = LeafSign(leaves, node, i);
        emit(node, sign * value / static_cast<double>(range.count));
      }
      emit(0, value / static_cast<double>(leaves));
    }
  };
  spec.reduce = [](const SendCoefCtx&, const int64_t& key,
                   std::vector<double>& values,
                   std::vector<std::pair<int64_t, double>>* out) {
    double total = 0.0;
    for (double v : values) total += v;
    out->emplace_back(key, total);
  };

  const std::vector<RangeSplit> splits = RangeSplits(n, num_mappers);

  DistSynopsisResult result;
  mr::JobChain chain("send_coef", cluster, &result.report,
                     mr::CheckpointFingerprint(data, {budget, num_mappers}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<std::pair<int64_t, double>> coeffs;
        const Status status = chain.RunJob(spec, SendCoefCtx{data}, splits,
                                           &coeffs);
        if (!status.ok()) return status;
        Stopwatch finalize;
        TopBySignificance top(budget);
        for (const auto& [key, total] : coeffs) top.Offer(key, total);
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
