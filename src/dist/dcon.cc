#include "dist/dcon.h"

#include <utility>

#include "common/audit.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/metrics.h"

namespace dwm {

DistSynopsisResult RunCon(const std::vector<double>& data, int64_t budget,
                          int64_t base_leaves,
                          const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  const TreePartition partition = MakeTreePartition(n, base_leaves);
  const int64_t num_base = partition.num_base;

  // Reducer-scoped state (a Hadoop reducer would hold this across its
  // reduce() calls and finish in cleanup()); the dwm-analyze suppressions
  // on the mutation sites below carry the thread-safety argument.
  std::vector<double> averages(static_cast<size_t>(num_base), 0.0);
  dist_internal::TopBySignificance top(budget);

  // Keys: -(t+1) carries base t's average (negative keys sort first, so the
  // reducer sees every average before any detail); otherwise the key is the
  // coefficient's global error-tree index.
  mr::JobSpec<int64_t, int64_t, double, int64_t> spec;
  spec.name = "con";
  spec.num_reducers = 1;
  spec.split_bytes = partition.SliceBytes<int64_t>();
  spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
    const std::vector<double> local = partition.LocalTransform(data, t);
    emit(-(t + 1), local[0]);
    for (int64_t s = 1; s < base_leaves; ++s) {
      emit(partition.GlobalNode(t, s), local[static_cast<size_t>(s)]);
    }
  };
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<int64_t>*) {
    DWM_CHECK_EQ(values.size(), 1u);
    if (key < 0) {
      // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
      averages[static_cast<size_t>(-key - 1)] = values[0];
    } else {
      // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
      top.Offer(key, values[0]);
    }
  };

  DistSynopsisResult result;
  mr::JobChain chain("con", cluster, &result.report, nullptr,
                     mr::CheckpointFingerprint(data, {budget, base_leaves}));
  chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<int64_t> unused;
        const Status status =
            chain.RunJob(spec, partition.BaseSplits(), &unused);
        if (!status.ok()) return status;
        // Reducer cleanup: the root sub-tree coefficients are the transform
        // of the base averages (the top of the full decomposition).
        Stopwatch finalize;
        const std::vector<double> root_coeffs = ForwardHaar(averages);
        for (int64_t i = 0; i < num_base; ++i) {
          top.Offer(i, root_coeffs[static_cast<size_t>(i)]);
        }
        result.synopsis = Synopsis(n, top.Take());
        if constexpr (audit::kEnabled) {
          DWM_AUDIT_CHECK(result.synopsis.size() <= budget);
        }
        // Charged as a named driver span (it runs on the driver after the
        // job); total_sim_seconds is unchanged, but rescheduling no longer
        // drops it.
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
