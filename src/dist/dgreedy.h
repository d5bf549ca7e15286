// DGreedyAbs and DGreedyRel (Section 5, Algorithms 3-6): the distributed
// greedy thresholding algorithm built on
//   (i)  root/base sub-tree partitioning (Figure 4),
//   (ii) speculative execution for every candidate retained root set C_root
//        (genRootSets, Algorithm 4) grouped by the distinct incoming errors
//        they induce (only log R + 2 greedy runs per worker, Section 5.3),
//   (iii) error-histogram emission with e_b-wide buckets (Algorithm 3 /
//        ErrHistGreedyAbs), each base's frontier shipped once per
//        incoming-error group and level-2 worker, varint-coded, and merged
//        per candidate by the level-2 workers (combineResults, Algorithm 5),
//        each owning a contiguous block of candidate sizes, and
//   (iv) a final construct job that re-runs the greedy only for the winning
//        C_root and ships just the coefficients above the achieved error.
#ifndef DWMAXERR_DIST_DGREEDY_H_
#define DWMAXERR_DIST_DGREEDY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/greedy_abs.h"
#include "dist/tree_partition.h"
#include "mr/cluster.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace dgreedy_internal {

// One achievable stopping point of a base sub-tree's greedy run: keeping
// the last `kept` discarded nodes yields max error `bucket` * e_b, where
// `bucket` = floor(error / e_b) as computed. Every reader forms the
// bucketed error as that one product, so it has the same bits everywhere.
struct FrontierPoint {
  double bucket = 0.0;
  int64_t kept = 0;
};

// The level-1 shuffle value of the histogram job (Algorithm 3), keyed by
// level-2 worker w: base t's bucketed frontier for one incoming-error
// group, shipped once for the candidate sizes |C_root| = s of that group
// in w's block. Buckets strictly decrease as `kept` strictly increases.
// Its Serde (dist/serde.h) codes both as varint deltas.
struct BaseFrontier {
  int64_t base = 0;
  std::vector<int64_t> sizes;  // strictly ascending
  double bucket_width = 0.0;   // e_b
  std::vector<FrontierPoint> points;
};

// The bucketed Pareto frontier of (error, kept) over every stopping point
// of one base sub-tree's greedy run (Algorithm 3's compaction), built
// online as the run's sink. Keeping the last `kept` discarded nodes is
// the state after total - kept discards; with zero discards only the
// incoming error, `baseline`, remains. The frontier holds the points whose
// bucketed error (bucket * e_b, bucket = floor(error / e_b)) is strictly
// below that of every point with fewer kept nodes, in ascending `kept`,
// starting at kept == 0 (discard everything). Events arrive in discard
// order, that is from the most kept nodes down, so each arrival removes
// every point it does not beat from a monotone stack and goes on top: the
// stack holds the frontier of the states seen so far. It carries the same
// information as the paper's error histogram but keyed by cumulative
// counts, which lets level 2 reproduce the centralized "best of the last
// B+1 prefixes" rule exactly even though the error is not monotone in the
// number of removals (Section 5.1).
class OnlineFrontier {
 public:
  OnlineFrontier(double baseline, double bucket_width);

  void operator()(const HeapDiscardEvent& event) { Add(event.error); }
  // The frontier after the run's last event.
  std::vector<FrontierPoint> Take() &&;

 private:
  void Add(double error);

  double bucket_width_;
  int64_t states_ = 0;  // states seen: discards so far, plus one
  // (bucket, discards before the state); bucketed errors strictly
  // increase towards the top, and the top is the latest state.
  std::vector<std::pair<double, int64_t>> stack_;
};

// First candidate size of level-2 worker w's block: sizes 0..candidates-1
// split into `workers` contiguous blocks, the first candidates % workers
// of them one size longer. w = workers gives `candidates`.
int64_t CandidateBlockBegin(int64_t w, int64_t candidates, int64_t workers);

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
