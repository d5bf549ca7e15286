#include "dist/dcon.h"

#include <utility>

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

// What the con job reads.
struct ConCtx {
  const std::vector<double>& data;
  const TreePartition& partition;
};

}  // namespace

DistSynopsisResult RunCon(const std::vector<double>& data, int64_t budget,
                          int64_t base_leaves,
                          const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  const TreePartition partition = MakeTreePartition(n, base_leaves);
  const int64_t num_base = partition.num_base;

  // Keys: -(t+1) carries base t's average (negative keys sort first, so the
  // fold sees every average before any detail); otherwise the key is the
  // coefficient's global error-tree index.
  mr::JobSpec<ConCtx, int64_t, int64_t, double, std::pair<int64_t, double>>
      spec;
  spec.name = "con";
  spec.num_reducers = 1;
  spec.split_bytes = TreePartition::SliceBytes;
  spec.map = [](const ConCtx& ctx, int64_t, const int64_t& t,
                const auto& emit) {
    const std::vector<double> local =
        ctx.partition.LocalTransform(ctx.data, t);
    emit(-(t + 1), local[0]);
    for (int64_t s = 1; s < ctx.partition.base_leaves; ++s) {
      emit(ctx.partition.GlobalNode(t, s), local[static_cast<size_t>(s)]);
    }
  };
  spec.reduce = dist_internal::ForwardSingle;

  DistSynopsisResult result;
  mr::JobChain chain("con", cluster, &result.report,
                     mr::CheckpointFingerprint(data, {budget, base_leaves}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<std::pair<int64_t, double>> coeffs;
        const Status status =
            chain.RunJob(spec, ConCtx{data, partition}, partition.BaseSplits(),
                         &coeffs);
        if (!status.ok()) return status;
        // Reducer cleanup, on the driver: the details feed the top-B, and
        // the root sub-tree coefficients are the transform of the base
        // averages (the top of the full decomposition).
        Stopwatch finalize;
        std::vector<double> averages(static_cast<size_t>(num_base), 0.0);
        TopBySignificance top(budget);
        for (const auto& [key, value] : coeffs) {
          if (key < 0) {
            averages[static_cast<size_t>(-key - 1)] = value;
          } else {
            top.Offer(key, value);
          }
        }
        const std::vector<double> root_coeffs = ForwardHaar(averages);
        for (int64_t i = 0; i < num_base; ++i) {
          top.Offer(i, root_coeffs[static_cast<size_t>(i)]);
        }
        result.synopsis = Synopsis(n, top.Take());
        if constexpr (audit::kEnabled) {
          DWM_AUDIT_CHECK(result.synopsis.size() <= budget);
        }
        // Charged as a named driver span (it runs on the driver after the
        // job), so rescheduling keeps it.
        chain.AddDriverSpan(
            "con_finalize", finalize.ElapsedSeconds() * cluster.compute_scale);
        return Status::OK();
      },
      [&] { return result.synopsis.domain_size() == n; }, &result.synopsis);
  result.status = chain.status();
  if (!result.status.ok()) return result;
  PublishSynopsisQuality("dcon", result.synopsis,
                         MaxAbsError(data, result.synopsis));
  return result;
}

}  // namespace dwm
