// DGreedyAbs and DGreedyRel (Section 5, Algorithms 3-6): the distributed
// greedy thresholding algorithm built on
//   (i)  root/base sub-tree partitioning (Figure 4),
//   (ii) speculative execution for every candidate retained root set C_root
//        (genRootSets, Algorithm 4) grouped by the distinct incoming errors
//        they induce (only log R + 2 greedy runs per worker, Section 5.3),
//   (iii) error-histogram emission with e_b-wide buckets (Algorithm 3 /
//        ErrHistGreedyAbs) merged by level-2 workers (combineResults,
//        Algorithm 5), and
//   (iv) a final construct job that re-runs the greedy only for the winning
//        C_root and ships just the coefficients above the achieved error.
#ifndef DWMAXERR_DIST_DGREEDY_H_
#define DWMAXERR_DIST_DGREEDY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/tree_partition.h"
#include "mr/cluster.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace dgreedy_internal {

// One achievable stopping point of a base sub-tree's greedy run: keeping
// the last `kept` discarded nodes yields (bucketed) max error `error`.
// Its Serde lives in dist/serde.h.
struct FrontierPoint {
  double error = 0.0;
  int64_t kept = 0;
};

// The level-1 shuffle value of the histogram job (Algorithm 3), keyed by
// the candidate size |C_root| = s: base t and its whole bucketed frontier
// for that candidate, errors strictly decreasing as `kept` increases.
using BaseFrontier = std::pair<int64_t, std::vector<FrontierPoint>>;

// Incoming error at base t for every candidate C_root size s = 0..kmax,
// C_s being the size-s suffix of the root discard order (the s most
// important root sub-tree nodes). Exactly 0.0 once C_s holds every root
// ancestor of t; before that, the running sum of the discarded ancestors'
// contributions.
std::vector<double> IncomingErrors(const TreePartition& partition, int64_t t,
                                   const std::vector<double>& root_coeffs,
                                   const std::vector<int64_t>& discard_order,
                                   int64_t kmax);

}  // namespace dgreedy_internal

struct DGreedyOptions {
  int64_t budget = 0;
  // Leaves per base sub-tree (L = S + 1, a power of two); the root sub-tree
  // then has R = N / L nodes.
  int64_t base_leaves = int64_t{1} << 17;
  // Histogram bucket width e_b (Algorithm 3). <= 0 selects a near-exact
  // width (maximum fidelity, maximum key-value traffic).
  double bucket_width = 0.0;
  // Level-2 workers (reducers) for combineResults; the paper uses 4.
  int level2_workers = 4;
};

struct DGreedyResult {
  Synopsis synopsis;
  // Best achieved error as estimated by the histogram stage (a bucket
  // floor, so within e_b below the exact error of the synopsis).
  double estimated_error = 0.0;
  int64_t best_croot_size = 0;
  mr::SimReport report;
  // Non-OK when a job died (retry exhaustion under fault injection, or an
  // invalid cluster config); names the failing job. The synopsis is then
  // unusable and `report` covers only the jobs that completed.
  Status status;
};

// Maximum absolute error variant.
[[nodiscard]] DGreedyResult DGreedyAbs(const std::vector<double>& data,
                                       const DGreedyOptions& options,
                                       const mr::ClusterConfig& cluster);

// Maximum relative error variant (GreedyRel at the workers, Section 5.4).
[[nodiscard]] DGreedyResult DGreedyRel(const std::vector<double>& data,
                                       const DGreedyOptions& options, double sanity,
                                       const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DGREEDY_H_
