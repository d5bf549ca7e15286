#include "dist/dgreedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "dist/dist_common.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

using dgreedy_internal::BaseFrontier;
using dgreedy_internal::CandidateBlockBegin;
using dgreedy_internal::FrontierPoint;
using dgreedy_internal::IncomingErrors;
using dgreedy_internal::OnlineFrontier;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// One level-2 combineResults output: candidate size s, the smallest
// error every base can reach within budget - s, and the frontier points
// of the records whose first size is s (so each shipped record counts
// once).
struct CombinedCandidate {
  int64_t size = 0;
  double achieved = 0.0;
  int64_t points = 0;
};

struct DGreedyContext {
  bool relative = false;
  double sanity = 1.0;
};

// Leaf denominators for the relative metric over one slice.
std::vector<double> SliceWeights(const std::vector<double>& data, int64_t begin,
                                 int64_t count, double sanity) {
  std::vector<double> weights(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    weights[static_cast<size_t>(i)] =
        std::max(std::abs(data[static_cast<size_t>(begin + i)]), sanity);
  }
  return weights;
}

// What DGreedy's jobs read. The driver fills the members below
// `bucket_width` as its stages commit: each slice's smallest leaf
// denominator after the transform job; the root sub-tree's coefficients,
// their discard order, kmax and the level-2 worker count before the hist
// job; the winning candidate before the construct job.
struct DGreedyJobCtx {
  DGreedyContext ctx;
  const std::vector<double>& data;
  const TreePartition& partition;
  int64_t budget = 0;
  double bucket_width = 0.0;
  std::vector<double> min_weights{};
  std::vector<double> root_coeffs{};
  std::vector<int64_t> discard_order{};
  int64_t kmax = 0;
  int64_t workers = 0;
  int64_t best_s = 0;
  double best_error = 0.0;
};

// Runs the greedy discard loop over one base sub-tree with incoming error
// e_in, abs or rel depending on the context, feeding its events to `sink`.
template <class Sink>
void RunBaseGreedy(const DGreedyJobCtx& job, std::vector<double> local_coeffs,
                   int64_t t, double e_in, Sink&& sink) {
  if (!job.ctx.relative) {
    GreedyAbsTree(std::move(local_coeffs), /*has_average=*/false, e_in)
        .Run(sink);
    return;
  }
  GreedyRelTree(std::move(local_coeffs), /*has_average=*/false, e_in,
                SliceWeights(job.data, job.partition.SliceBegin(t),
                             job.partition.base_leaves, job.ctx.sanity))
      .Run(sink);
}

// The frontier of base t's run under incoming error e_in, whose state with
// nothing discarded has error |e_in| (relative: over the base's smallest
// leaf denominator).
OnlineFrontier NewFrontier(const DGreedyJobCtx& job, int64_t t, double e_in) {
  return OnlineFrontier(
      job.ctx.relative
          ? std::abs(e_in) / job.min_weights[static_cast<size_t>(t)]
          : std::abs(e_in),
      job.bucket_width);
}

// combineResults (Algorithm 5) for candidate size s: the smallest error E
// such that every base can reach <= E with its kept nodes totalling at
// most `allowance`. `frontiers` holds each base's frontier for s, in base
// order. Advance, base by base, the frontier of whichever base currently
// binds the error, accumulating its extra cost.
double CombineResults(const std::vector<const BaseFrontier*>& frontiers,
                      int64_t allowance) {
  // Heap of (current error, frontier index): an error tie binds the higher
  // base.
  std::priority_queue<std::pair<double, size_t>> binding;
  std::vector<size_t> position(frontiers.size(), 0);
  int64_t total_kept = 0;
  for (size_t i = 0; i < frontiers.size(); ++i) {
    const BaseFrontier& frontier = *frontiers[i];
    DWM_CHECK(!frontier.points.empty());
    total_kept += frontier.points[0].kept;  // kept == 0 by construction
    binding.push({frontier.points[0].bucket * frontier.bucket_width, i});
  }
  DWM_CHECK_LE(total_kept, allowance);
  double achieved = binding.empty() ? 0.0 : binding.top().first;
  while (!binding.empty()) {
    const auto [error, i] = binding.top();
    achieved = error;
    binding.pop();
    const BaseFrontier& frontier = *frontiers[i];
    const size_t next = position[i] + 1;
    if (next >= frontier.points.size()) break;  // this base cannot improve
    const int64_t extra =
        frontier.points[next].kept - frontier.points[position[i]].kept;
    if (total_kept + extra > allowance) break;  // out of budget
    total_kept += extra;
    position[i] = next;
    binding.push({frontier.points[next].bucket * frontier.bucket_width, i});
  }
  return achieved;
}

// True when root sub-tree node `node` is a root ancestor of base t: the
// average (node 0) or a node on the path from the base root R + t up to
// node 1.
bool IsRootAncestor(const TreePartition& partition, int64_t t, int64_t node) {
  if (node == 0) return true;
  for (int64_t v = partition.BaseRoot(t) / 2; v >= node; v /= 2) {
    if (v == node) return true;
  }
  return false;
}

DGreedyResult RunDGreedy(const DGreedyContext& ctx,
                         const std::vector<double>& data,
                         const DGreedyOptions& options,
                         const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t base_leaves = std::clamp<int64_t>(options.base_leaves, 2, n / 2);
  const TreePartition partition = MakeTreePartition(n, base_leaves);
  const int64_t num_base = partition.num_base;
  const int64_t budget = std::clamp<int64_t>(options.budget, 0, n);
  const double bucket_width =
      options.bucket_width > 0.0 ? options.bucket_width : 1e-9;

  DGreedyResult out;
  mr::JobChain chain(
      ctx.relative ? "dgreedy_rel" : "dgreedy_abs", cluster, &out.report,
      mr::CheckpointFingerprint(
          data, {budget, base_leaves, ctx.relative ? int64_t{1} : int64_t{0},
                 static_cast<int64_t>(options.level2_workers),
                 std::bit_cast<int64_t>(bucket_width),
                 std::bit_cast<int64_t>(ctx.sanity)}));
  const std::vector<int64_t> base_splits = partition.BaseSplits();
  DGreedyJobCtx jobs{.ctx = ctx,
                     .data = data,
                     .partition = partition,
                     .budget = budget,
                     .bucket_width = bucket_width};

  // ---- Job 1: local transforms; collect slice averages (and, for the
  // relative metric, the minimum leaf denominator per base). ----
  std::vector<double> averages(static_cast<size_t>(num_base), 0.0);
  std::vector<double>& min_weights = jobs.min_weights;
  min_weights.assign(static_cast<size_t>(num_base), 1.0);
  chain.RunStage(
      "transform",
      [&]() -> Status {
        using Slice = std::pair<double, double>;  // (average, min weight)
        mr::JobSpec<DGreedyJobCtx, int64_t, int64_t, Slice,
                    std::pair<int64_t, Slice>>
            spec;
        spec.name =
            ctx.relative ? "dgreedyrel_transform" : "dgreedyabs_transform";
        spec.num_reducers = 1;
        spec.split_bytes = TreePartition::SliceBytes;
        spec.map = [](const DGreedyJobCtx& job, int64_t, const int64_t& t,
                      const auto& emit) {
          const std::vector<double> local =
              job.partition.LocalTransform(job.data, t);
          double min_w = kInfinity;
          if (job.ctx.relative) {
            for (double w :
                 SliceWeights(job.data, job.partition.SliceBegin(t),
                              job.partition.base_leaves, job.ctx.sanity)) {
              min_w = std::min(min_w, w);
            }
          } else {
            min_w = 1.0;
          }
          emit(t, {local[0], min_w});
        };
        spec.reduce = dist_internal::ForwardSingle;
        std::vector<std::pair<int64_t, Slice>> slices;
        const Status status = chain.RunJob(spec, jobs, base_splits, &slices);
        if (!status.ok()) return status;
        for (const auto& [t, slice] : slices) {
          averages[static_cast<size_t>(t)] = slice.first;
          min_weights[static_cast<size_t>(t)] = slice.second;
        }
        return Status::OK();
      },
      [&] {
        const size_t bases = static_cast<size_t>(num_base);
        return averages.size() == bases && min_weights.size() == bases;
      },
      &averages, &min_weights);
  if (!chain.ok()) {
    out.status = chain.status();
    return out;
  }

  // ---- Driver: root sub-tree + genRootSets (Algorithm 4). The root
  // sub-tree is exponentially smaller than the data, so this is cheap. ----
  Stopwatch driver_clock;
  jobs.root_coeffs = ForwardHaar(averages);
  const std::vector<double>& root_coeffs = jobs.root_coeffs;
  std::vector<int64_t>& discard_order = jobs.discard_order;
  {
    const auto record_slot = [&](const HeapDiscardEvent& e) {
      discard_order.push_back(e.slot);
    };
    if (!ctx.relative) {
      GreedyAbsTree(root_coeffs, /*has_average=*/true, 0.0).Run(record_slot);
    } else {
      GreedyRelTree(root_coeffs, /*has_average=*/true, 0.0, min_weights)
          .Run(record_slot);
    }
  }
  const int64_t kmax = std::min<int64_t>(num_base, budget);
  jobs.kmax = kmax;
  out.report.AddDriverSpan("genRootSets", driver_clock.ElapsedSeconds());

  // ---- Job 2: ErrHistGreedyAbs at level 1, combineResults at level 2
  // (Algorithms 3 and 5). Level-2 worker w combines a contiguous block of
  // candidate sizes |C_root| = s. Key: w; value: one BaseFrontier per
  // (base, incoming-error group) with a size in w's block, so a frontier
  // shared by several of w's candidates ships to w once. ----
  std::vector<std::pair<int64_t, double>> candidates;  // (s, achievable E)
  // Frontier points the job shipped; unset when the stage resumes from a
  // checkpoint (nothing shipped this run).
  std::optional<int64_t> frontier_points;
  chain.RunStage(
      "hist",
      [&]() -> Status {
        jobs.workers = std::clamp<int64_t>(options.level2_workers, 1, kmax + 1);
        mr::JobSpec<DGreedyJobCtx, int64_t, int64_t, BaseFrontier,
                    CombinedCandidate>
            spec;
        spec.name = ctx.relative ? "dgreedyrel_hist" : "dgreedyabs_hist";
        spec.num_reducers = static_cast<int>(jobs.workers);
        spec.partition = [](const DGreedyJobCtx&, const int64_t& w) {
          return static_cast<int>(w);
        };
        spec.split_bytes = TreePartition::SliceBytes;
        spec.map = [](const DGreedyJobCtx& job, int64_t, const int64_t& t,
                      const auto& emit) {
          const std::vector<double> local =
              job.partition.LocalTransform(job.data, t);
          const std::vector<double> e_in = IncomingErrors(
              job.partition, t, job.root_coeffs, job.discard_order, job.kmax);
          // Group candidate sets by the incoming error they induce here;
          // only log R + 2 of them are distinct (Section 5.3). Equal errors
          // need not be adjacent in s: two retained ancestors' +-c
          // contributions can cancel.
          std::map<double, std::vector<int64_t>> groups;
          for (int64_t s = 0; s <= job.kmax; ++s) {
            groups[e_in[static_cast<size_t>(s)]].push_back(s);
          }
          for (const auto& [incoming, sizes] : groups) {
            OnlineFrontier frontier = NewFrontier(job, t, incoming);
            RunBaseGreedy(job, local, t, incoming, frontier);
            BaseFrontier value = {t, {}, job.bucket_width,
                                  std::move(frontier).Take()};
            // Once to each worker whose block holds one of the sizes.
            auto s = sizes.begin();
            for (int64_t w = 0; s != sizes.end(); ++w) {
              const int64_t block_end =
                  CandidateBlockBegin(w + 1, job.kmax + 1, job.workers);
              value.sizes.clear();
              for (; s != sizes.end() && *s < block_end; ++s) {
                value.sizes.push_back(*s);
              }
              if (!value.sizes.empty()) emit(w, value);
            }
          }
        };
        spec.reduce = [](const DGreedyJobCtx& job, const int64_t& w,
                         std::vector<BaseFrontier>& entries,
                         std::vector<CombinedCandidate>* result) {
          // Entries arrive in map-task order, which is base order, so each
          // candidate sees one frontier per base, in base order.
          const int64_t sizes = job.kmax + 1;
          std::vector<const BaseFrontier*> frontiers;
          for (int64_t s = CandidateBlockBegin(w, sizes, job.workers);
               s < CandidateBlockBegin(w + 1, sizes, job.workers); ++s) {
            frontiers.clear();
            int64_t points = 0;
            for (const BaseFrontier& entry : entries) {
              if (!std::binary_search(entry.sizes.begin(), entry.sizes.end(),
                                      s)) {
                continue;
              }
              frontiers.push_back(&entry);
              if (entry.sizes.front() == s) {
                points += static_cast<int64_t>(entry.points.size());
              }
            }
            if constexpr (audit::kEnabled) {
              DWM_AUDIT_CHECK(static_cast<int64_t>(frontiers.size()) ==
                              job.partition.num_base);
              DWM_AUDIT_CHECK(
                  std::adjacent_find(
                      frontiers.begin(), frontiers.end(),
                      [](const BaseFrontier* a, const BaseFrontier* b) {
                        return a->base >= b->base;
                      }) == frontiers.end());
            }
            result->push_back(
                {s, CombineResults(frontiers, job.budget - s), points});
          }
        };
        std::vector<CombinedCandidate> found;
        const Status status = chain.RunJob(spec, jobs, base_splits, &found);
        if (!status.ok()) return status;
        frontier_points = 0;
        for (const CombinedCandidate& c : found) {
          candidates.push_back({c.size, c.achieved});
          *frontier_points += c.points;
        }
        return Status::OK();
      },
      nullptr, &candidates);
  if (!chain.ok()) {
    out.status = chain.status();
    return out;
  }

  // Driver: pick the best C_root (smallest achieved error, then smaller s).
  double best_error = kInfinity;
  int64_t best_s = 0;
  for (const auto& [s, achieved] : candidates) {
    if (achieved < best_error || (achieved == best_error && s < best_s)) {
      best_error = achieved;
      best_s = s;
    }
  }
  out.estimated_error = best_error;
  out.best_croot_size = best_s;
  jobs.best_error = best_error;
  jobs.best_s = best_s;

  // ---- Job 3: construct (Algorithm 6 lines 19-25). Each worker re-runs
  // the greedy once for the winning C_root, reproduces its frontier, and
  // ships, as one record, exactly the suffix of its discard order that
  // reaches the winning error level (the cheapest local stopping point with
  // error <= E*). ----
  std::vector<Coefficient> kept;
  chain.RunStage(
      "construct",
      [&]() -> Status {
        mr::JobSpec<DGreedyJobCtx, int64_t, int64_t, std::vector<Coefficient>,
                    Coefficient>
            spec;
        spec.name =
            ctx.relative ? "dgreedyrel_construct" : "dgreedyabs_construct";
        spec.num_reducers = 1;
        spec.split_bytes = TreePartition::SliceBytes;
        spec.map = [](const DGreedyJobCtx& job, int64_t, const int64_t& t,
                      const auto& emit) {
          const std::vector<double> local =
              job.partition.LocalTransform(job.data, t);
          const std::vector<double> e_in = IncomingErrors(
              job.partition, t, job.root_coeffs, job.discard_order, job.kmax);
          const double incoming = e_in[static_cast<size_t>(job.best_s)];
          OnlineFrontier online = NewFrontier(job, t, incoming);
          std::vector<int64_t> slots;  // in discard order
          slots.reserve(static_cast<size_t>(job.partition.base_leaves - 1));
          RunBaseGreedy(job, local, t, incoming,
                        [&](const HeapDiscardEvent& e) {
                          online(e);
                          slots.push_back(e.slot);
                        });
          const std::vector<FrontierPoint> frontier = std::move(online).Take();
          // Cheapest stopping point at or below the winning level (exists
          // by construction of E* unless this base never binds, in which
          // case the first feasible point still matches the level-2
          // accounting).
          int64_t keep_count = frontier.back().kept;
          for (const FrontierPoint& point : frontier) {
            if (point.bucket * job.bucket_width <= job.best_error + 1e-12) {
              keep_count = point.kept;
              break;
            }
          }
          const int64_t total = static_cast<int64_t>(slots.size());
          std::vector<Coefficient> retained;
          for (int64_t i = total - keep_count; i < total; ++i) {
            const int64_t slot = slots[static_cast<size_t>(i)];
            const double value = local[static_cast<size_t>(slot)];
            if (value != 0.0) {
              retained.push_back({job.partition.GlobalNode(t, slot), value});
            }
          }
          emit(0, retained);
        };
        spec.reduce = [](const DGreedyJobCtx&, const int64_t&,
                         std::vector<std::vector<Coefficient>>& bases,
                         std::vector<Coefficient>* result) {
          for (const std::vector<Coefficient>& retained : bases) {
            result->insert(result->end(), retained.begin(), retained.end());
          }
        };
        const Status status = chain.RunJob(spec, jobs, base_splits, &kept);
        if (!status.ok()) return status;
        // Add the retained root sub-tree coefficients (the size-best_s
        // suffix of the discard order).
        for (int64_t s = 1; s <= best_s; ++s) {
          const int64_t node =
              discard_order[static_cast<size_t>(num_base - s)];
          const double value = root_coeffs[static_cast<size_t>(node)];
          if (value != 0.0) kept.push_back({node, value});
        }
        out.synopsis = Synopsis(n, std::move(kept));
        return Status::OK();
      },
      [&] { return out.synopsis.domain_size() == n; }, &out.synopsis);
  out.status = chain.status();
  if (!out.status.ok()) return out;
  if constexpr (audit::kEnabled) {
    // Synopsis post-conditions: the budget is an upper bound on the
    // retained coefficients, and the histogram-stage estimate is a bucket
    // floor of the true reconstruction error (estimated <= exact).
    DWM_AUDIT_CHECK(out.synopsis.size() <= budget);
    const double exact =
        ctx.relative ? MaxRelError(data, out.synopsis, ctx.sanity)
                     : MaxAbsError(data, out.synopsis);
    DWM_AUDIT_CHECK(out.estimated_error <= exact + 1e-6);
  }
  const std::string algo = ctx.relative ? "dgreedy_rel" : "dgreedy_abs";
  PublishSynopsisQuality(algo, out.synopsis, out.estimated_error);
  metrics::Registry& registry = metrics::Default();
  const metrics::Labels labels = {{"algo", algo}};
  registry
      .GetGauge("dwm_dgreedy_best_croot_size",
                "Retained root sub-tree coefficients (|C_root|) of the "
                "winning candidate",
                labels)
      ->Set(static_cast<double>(best_s));
  registry
      .GetGauge("dwm_dgreedy_croot_candidates",
                "C_root candidate sizes evaluated by the histogram stage",
                labels)
      ->Set(static_cast<double>(candidates.size()));
  if (frontier_points.has_value()) {
    registry
        .GetGauge("dwm_dgreedy_frontier_points",
                  "Bucketed error-frontier points shipped by the histogram "
                  "stage (each (base, incoming-error group, level-2 worker) "
                  "record counted once)",
                  labels)
        ->Set(static_cast<double>(*frontier_points));
  }
  return out;
}

}  // namespace

namespace dgreedy_internal {

OnlineFrontier::OnlineFrontier(double baseline, double bucket_width)
    : bucket_width_(bucket_width) {
  Add(baseline);
}

void OnlineFrontier::Add(double error) {
  const double bucket = std::floor(error / bucket_width_);
  const double bucketed = bucket * bucket_width_;
  // A state beats every earlier-arrived state (more kept nodes) whose
  // bucketed error is not strictly below its own.
  while (!stack_.empty() && stack_.back().first * bucket_width_ >= bucketed) {
    stack_.pop_back();
  }
  stack_.emplace_back(bucket, states_++);
}

std::vector<FrontierPoint> OnlineFrontier::Take() && {
  // A point must also beat +inf, which only the top (kept == 0) can fail.
  if (!stack_.empty() && !(stack_.back().first * bucket_width_ < kInfinity)) {
    stack_.pop_back();
  }
  // The state after d of the run's states_ - 1 discards keeps the last
  // states_ - 1 - d discarded nodes.
  std::vector<FrontierPoint> frontier;
  frontier.reserve(stack_.size());
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    frontier.push_back({it->first, states_ - 1 - it->second});
  }
  return frontier;
}

std::vector<double> IncomingErrors(const TreePartition& partition, int64_t t,
                                   const std::vector<double>& root_coeffs,
                                   const std::vector<int64_t>& discard_order,
                                   int64_t kmax) {
  const int64_t num_root = static_cast<int64_t>(root_coeffs.size());
  double e_in = 0.0;
  for (int64_t a = 0; a < num_root; ++a) {
    e_in += IncomingErrorContribution(partition, t, a,
                                      root_coeffs[static_cast<size_t>(a)]);
  }
  // The average plus one node per root-tree level: log2(R) + 1 ancestors.
  auto discarded_ancestors =
      static_cast<int64_t>(std::bit_width(static_cast<uint64_t>(num_root)));
  std::vector<double> by_size(static_cast<size_t>(kmax + 1));
  by_size[0] = e_in;  // s = 0: every root node discarded
  for (int64_t s = 1; s <= kmax; ++s) {
    const int64_t retained = discard_order[static_cast<size_t>(num_root - s)];
    e_in -= IncomingErrorContribution(
        partition, t, retained, root_coeffs[static_cast<size_t>(retained)]);
    if (IsRootAncestor(partition, t, retained) && --discarded_ancestors == 0) {
      e_in = 0.0;
    }
    by_size[static_cast<size_t>(s)] = e_in;
  }
  return by_size;
}

int64_t CandidateBlockBegin(int64_t w, int64_t candidates, int64_t workers) {
  return w * (candidates / workers) + std::min(w, candidates % workers);
}

}  // namespace dgreedy_internal

DGreedyResult DGreedyAbs(const std::vector<double>& data,
                         const DGreedyOptions& options,
                         const mr::ClusterConfig& cluster) {
  DGreedyContext ctx;
  ctx.relative = false;
  return RunDGreedy(ctx, data, options, cluster);
}

DGreedyResult DGreedyRel(const std::vector<double>& data,
                         const DGreedyOptions& options, double sanity,
                         const mr::ClusterConfig& cluster) {
  DWM_CHECK_GT(sanity, 0.0);
  DGreedyContext ctx;
  ctx.relative = true;
  ctx.sanity = sanity;
  return RunDGreedy(ctx, data, options, cluster);
}

}  // namespace dwm
