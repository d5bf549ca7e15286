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
using dgreedy_internal::FrontierPoint;
using dgreedy_internal::IncomingErrors;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// One level-2 combineResults output: candidate size s, the smallest
// error every base can reach within budget - s, and the frontier points
// the reducer received for s.
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

// Runs the greedy discard loop over one base sub-tree with incoming error
// e_in; abs or rel depending on the context.
std::vector<HeapDiscardEvent> RunBaseGreedy(const DGreedyContext& ctx,
                                            const std::vector<double>& data,
                                            const TreePartition& partition,
                                            std::vector<double> local_coeffs,
                                            int64_t t, double e_in) {
  if (!ctx.relative) {
    GreedyAbsTree tree(std::move(local_coeffs), /*has_average=*/false, e_in);
    return tree.Run();
  }
  GreedyRelTree tree(std::move(local_coeffs), /*has_average=*/false, e_in,
                     SliceWeights(data, partition.SliceBegin(t),
                                  partition.base_leaves, ctx.sanity));
  return tree.Run();
}

// The Pareto frontier of (error, kept) over every greedy stopping point,
// bucketed to e_b (Algorithm 3's compaction): errors strictly decrease as
// `kept` increases, starting at kept == 0 (discard everything). This is the
// level-1 emission: it carries the same information as the paper's error
// histogram but keyed by cumulative counts, which lets level-2 reproduce
// the centralized "best of the last B+1 prefixes" rule exactly even though
// the error is not monotone in the number of removals (Section 5.1).
std::vector<FrontierPoint> StateFrontier(
    const std::vector<HeapDiscardEvent>& events, double baseline,
    double bucket_width) {
  const int64_t total = static_cast<int64_t>(events.size());
  std::vector<FrontierPoint> frontier;
  double current = kInfinity;
  for (int64_t kept = 0; kept <= total; ++kept) {
    // Keeping the last `kept` nodes == stopping after total - kept
    // discards; with zero discards only the incoming error remains.
    const double state_error =
        kept == total ? baseline
                      : events[static_cast<size_t>(total - kept - 1)].error;
    const double bucketed =
        std::floor(state_error / bucket_width) * bucket_width;
    if (bucketed < current) {
      frontier.push_back({bucketed, kept});
      current = bucketed;
    }
  }
  return frontier;
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
      nullptr,
      mr::CheckpointFingerprint(
          data, {budget, base_leaves, ctx.relative ? int64_t{1} : int64_t{0},
                 static_cast<int64_t>(options.level2_workers),
                 std::bit_cast<int64_t>(bucket_width),
                 std::bit_cast<int64_t>(ctx.sanity)}));
  const std::vector<int64_t> base_splits = partition.BaseSplits();

  // ---- Job 1: local transforms; collect slice averages (and, for the
  // relative metric, the minimum leaf denominator per base). ----
  std::vector<double> averages(static_cast<size_t>(num_base), 0.0);
  std::vector<double> min_weights(static_cast<size_t>(num_base), 1.0);
  chain.RunStage(
      "transform",
      [&]() -> Status {
        mr::JobSpec<int64_t, int64_t, std::pair<double, double>, int64_t> spec;
        spec.name =
            ctx.relative ? "dgreedyrel_transform" : "dgreedyabs_transform";
        spec.num_reducers = 1;
        spec.split_bytes = partition.SliceBytes<int64_t>();
        spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
          const std::vector<double> local = partition.LocalTransform(data, t);
          double min_w = kInfinity;
          if (ctx.relative) {
            for (double w : SliceWeights(data, partition.SliceBegin(t),
                                         base_leaves, ctx.sanity)) {
              min_w = std::min(min_w, w);
            }
          } else {
            min_w = 1.0;
          }
          emit(t, {local[0], min_w});
        };
        spec.reduce = [&](const int64_t& t,
                          std::vector<std::pair<double, double>>& values,
                          std::vector<int64_t>*) {
          DWM_CHECK_EQ(values.size(), 1u);
          // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
          averages[static_cast<size_t>(t)] = values[0].first;
          // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
          min_weights[static_cast<size_t>(t)] = values[0].second;
        };
        std::vector<int64_t> unused;
        return chain.RunJob(spec, base_splits, &unused);
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
  const std::vector<double> root_coeffs = ForwardHaar(averages);
  std::vector<int64_t> discard_order;
  {
    std::vector<HeapDiscardEvent> events;
    if (!ctx.relative) {
      GreedyAbsTree tree(root_coeffs, /*has_average=*/true, 0.0);
      events = tree.Run();
    } else {
      GreedyRelTree tree(root_coeffs, /*has_average=*/true, 0.0, min_weights);
      events = tree.Run();
    }
    discard_order.reserve(events.size());
    for (const HeapDiscardEvent& e : events) discard_order.push_back(e.slot);
  }
  const int64_t kmax = std::min<int64_t>(num_base, budget);
  out.report.AddDriverSpan("genRootSets", driver_clock.ElapsedSeconds());

  // ---- Job 2: ErrHistGreedyAbs at level 1, combineResults at level 2
  // (Algorithms 3 and 5). Key: candidate |C_root| = s; value: one
  // BaseFrontier per base, so level 2 receives every base's frontier whole
  // and combines them as received. ----
  std::vector<std::pair<int64_t, double>> candidates;  // (s, achievable E)
  // Frontier points the job shipped; unset when the stage resumes from a
  // checkpoint (nothing shipped this run).
  std::optional<int64_t> frontier_points;
  chain.RunStage(
      "hist",
      [&]() -> Status {
        mr::JobSpec<int64_t, int64_t, BaseFrontier, CombinedCandidate> spec;
        spec.name = ctx.relative ? "dgreedyrel_hist" : "dgreedyabs_hist";
        spec.num_reducers = static_cast<int>(
            std::clamp<int64_t>(options.level2_workers, 1, kmax + 1));
        spec.partition = [&spec](const int64_t& s) {
          return static_cast<int>(s % spec.num_reducers);
        };
        spec.split_bytes = partition.SliceBytes<int64_t>();
        spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
          const std::vector<double> local = partition.LocalTransform(data, t);
          const std::vector<double> e_in =
              IncomingErrors(partition, t, root_coeffs, discard_order, kmax);
          // Group candidate sets by the incoming error they induce here;
          // only log R + 2 of them are distinct (Section 5.3).
          std::map<double, std::vector<int64_t>> groups;
          for (int64_t s = 0; s <= kmax; ++s) {
            groups[e_in[static_cast<size_t>(s)]].push_back(s);
          }
          for (const auto& [incoming, sizes] : groups) {
            const std::vector<HeapDiscardEvent> events =
                RunBaseGreedy(ctx, data, partition, local, t, incoming);
            const double baseline =
                ctx.relative
                    ? std::abs(incoming) / min_weights[static_cast<size_t>(t)]
                    : std::abs(incoming);
            const BaseFrontier value = {
                t, StateFrontier(events, baseline, bucket_width)};
            for (int64_t s : sizes) emit(s, value);
          }
        };
        spec.reduce = [&](const int64_t& s, std::vector<BaseFrontier>& entries,
                          std::vector<CombinedCandidate>* result) {
          // combineResults: find the smallest error E such that every base
          // can reach <= E and the total kept nodes fit in budget - s.
          // Advance, base by base, the frontier of whichever base currently
          // binds the error, accumulating its extra cost.
          const int64_t allowance = budget - s;
          // Heap of (current error, entry). Entries arrive in map-task
          // order, which is base order, so an error tie binds the higher
          // base.
          if constexpr (audit::kEnabled) {
            DWM_AUDIT_CHECK(std::is_sorted(
                entries.begin(), entries.end(),
                [](const BaseFrontier& a, const BaseFrontier& b) {
                  return a.first < b.first;
                }));
          }
          std::priority_queue<std::pair<double, size_t>> binding;
          std::vector<size_t> position(entries.size(), 0);
          int64_t total_kept = 0;
          int64_t points = 0;
          for (size_t i = 0; i < entries.size(); ++i) {
            const std::vector<FrontierPoint>& frontier = entries[i].second;
            DWM_CHECK(!frontier.empty());
            points += static_cast<int64_t>(frontier.size());
            total_kept += frontier[0].kept;  // kept == 0 by construction
            binding.push({frontier[0].error, i});
          }
          DWM_CHECK_LE(total_kept, allowance);
          double achieved = binding.empty() ? 0.0 : binding.top().first;
          while (!binding.empty()) {
            const auto [error, i] = binding.top();
            achieved = error;
            binding.pop();
            const std::vector<FrontierPoint>& frontier = entries[i].second;
            const size_t next = position[i] + 1;
            if (next >= frontier.size()) break;  // this base cannot improve
            const int64_t extra =
                frontier[next].kept - frontier[position[i]].kept;
            if (total_kept + extra > allowance) break;  // out of budget
            total_kept += extra;
            position[i] = next;
            binding.push({frontier[next].error, i});
          }
          result->push_back({s, achieved, points});
        };
        std::vector<CombinedCandidate> found;
        const Status status = chain.RunJob(spec, base_splits, &found);
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

  // ---- Job 3: construct (Algorithm 6 lines 19-25). Each worker re-runs
  // the greedy once for the winning C_root, reproduces its frontier, and
  // ships, as one record, exactly the suffix of its discard order that
  // reaches the winning error level (the cheapest local stopping point with
  // error <= E*). ----
  std::vector<Coefficient> kept;
  chain.RunStage(
      "construct",
      [&]() -> Status {
        mr::JobSpec<int64_t, int64_t, std::vector<Coefficient>, Coefficient>
            spec;
        spec.name =
            ctx.relative ? "dgreedyrel_construct" : "dgreedyabs_construct";
        spec.num_reducers = 1;
        spec.split_bytes = partition.SliceBytes<int64_t>();
        spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
          const std::vector<double> local = partition.LocalTransform(data, t);
          const std::vector<double> e_in =
              IncomingErrors(partition, t, root_coeffs, discard_order, kmax);
          const double incoming = e_in[static_cast<size_t>(best_s)];
          const std::vector<HeapDiscardEvent> events =
              RunBaseGreedy(ctx, data, partition, local, t, incoming);
          const double baseline =
              ctx.relative
                  ? std::abs(incoming) / min_weights[static_cast<size_t>(t)]
                  : std::abs(incoming);
          const auto frontier = StateFrontier(events, baseline, bucket_width);
          // Cheapest stopping point at or below the winning level (exists
          // by construction of E* unless this base never binds, in which
          // case the first feasible point still matches the level-2
          // accounting).
          int64_t keep_count = frontier.back().kept;
          for (const FrontierPoint& point : frontier) {
            if (point.error <= best_error + 1e-12) {
              keep_count = point.kept;
              break;
            }
          }
          const int64_t total = static_cast<int64_t>(events.size());
          std::vector<Coefficient> retained;
          for (int64_t i = total - keep_count; i < total; ++i) {
            const int64_t slot = events[static_cast<size_t>(i)].slot;
            const double value = local[static_cast<size_t>(slot)];
            if (value != 0.0) {
              retained.push_back({partition.GlobalNode(t, slot), value});
            }
          }
          emit(0, retained);
        };
        spec.reduce = [&](const int64_t&,
                          std::vector<std::vector<Coefficient>>& bases,
                          std::vector<Coefficient>* result) {
          for (const std::vector<Coefficient>& retained : bases) {
            result->insert(result->end(), retained.begin(), retained.end());
          }
        };
        const Status status = chain.RunJob(spec, base_splits, &kept);
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
                  "stage (summed over every (candidate, base) record)",
                  labels)
        ->Set(static_cast<double>(*frontier_points));
  }
  return out;
}

}  // namespace

namespace dgreedy_internal {

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
