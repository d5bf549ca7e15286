// DMinMaxVar (the paper's Figure 2/3 walkthrough): the MinMaxVar DP as the
// one-layer policy of dist/partitioned_tree_dp.h. Base sub-trees ship their
// root M-rows; the driver combines them through the root sub-tree. Those
// rows have O(B q) cells (Equation 6 with max|M[j]| = O(B delta)), the
// blowup the paper cites for preferring DMHaarSpace's O(eps/delta) rows;
// bench_ablation_dp_rows measures the two side by side.
#ifndef DWMAXERR_DIST_DMIN_MAX_VAR_H_
#define DWMAXERR_DIST_DMIN_MAX_VAR_H_

#include <cstdint>
#include <vector>

#include "core/min_max_var.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm {

struct DMinMaxVarResult {
  MinMaxVarResult result;
  mr::SimReport report;
  // Non-OK when a job died (see DistSynopsisResult::status); the result is
  // then infeasible and `report` covers the completed jobs.
  Status status;
};

// `base_leaves` is the leaves-per-base-sub-tree partition parameter (a
// power of two, >= 2, <= n/2).
[[nodiscard]] DMinMaxVarResult DMinMaxVar(const std::vector<double>& data,
                                          const MinMaxVarOptions& options,
                                          int64_t base_leaves,
                                          const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DMIN_MAX_VAR_H_
