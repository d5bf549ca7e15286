#include "dist/hwtopk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
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

// One mapper-local partial coefficient value, in L2-normalized form
// c / sqrt(2^level) (so magnitude comparisons equal significance
// comparisons). `exclusive` marks coefficients whose subtree lies fully in
// this split: the partial is the exact value and no other mapper holds one.
struct Partial {
  int64_t node = 0;
  double value = 0.0;
  bool exclusive = false;
};

// All partial coefficient values of one mapper's split. Fully contained
// coefficients carry their exact value; straddling ancestors carry this
// split's contribution (sum_left - sum_right) / W.
std::vector<Partial> ComputePartials(const std::vector<double>& data,
                                     int64_t begin, int64_t end) {
  const int64_t n = static_cast<int64_t>(data.size());
  std::vector<Partial> partials;
  ForEachContainedCoefficient(data, begin, end, [&](int64_t g, double c) {
    partials.push_back(
        {g, c / std::sqrt(static_cast<double>(int64_t{1} << NodeLevel(g))),
         true});
  });
  // Straddling nodes: walk up from both split boundaries; every node whose
  // range overlaps but is not contained lies on one of these paths.
  std::vector<double> prefix(static_cast<size_t>(end - begin + 1), 0.0);
  for (int64_t i = begin; i < end; ++i) {
    prefix[static_cast<size_t>(i - begin + 1)] =
        prefix[static_cast<size_t>(i - begin)] + data[static_cast<size_t>(i)];
  }
  auto range_sum = [&](int64_t lo, int64_t hi) {  // over [lo, hi) clipped
    lo = std::max(lo, begin);
    hi = std::min(hi, end);
    if (lo >= hi) return 0.0;
    return prefix[static_cast<size_t>(hi - begin)] -
           prefix[static_cast<size_t>(lo - begin)];
  };
  // Ordered: iteration order feeds the emitted partials order, which must
  // not depend on hash seeding.
  std::set<int64_t> straddle;
  for (int64_t boundary : {begin, end - 1}) {
    for (int64_t node = LeafParent(n, boundary); node >= 1; node >>= 1) {
      const LeafRange range = NodeLeafRange(n, node);
      if (range.first >= begin && range.first + range.count <= end) continue;
      straddle.insert(node);
    }
  }
  for (int64_t node : straddle) {
    const LeafRange range = NodeLeafRange(n, node);
    const int64_t mid = range.first + range.count / 2;
    const double contribution =
        (range_sum(range.first, mid) - range_sum(mid, range.first + range.count)) /
        static_cast<double>(range.count);
    if (contribution != 0.0) {
      partials.push_back(
          {node,
           contribution /
               std::sqrt(static_cast<double>(int64_t{1} << NodeLevel(node))),
           false});
    }
  }
  const double c0 = range_sum(0, n) / static_cast<double>(n);
  if (c0 != 0.0) partials.push_back({0, c0, false});
  return partials;
}

// What a round's map reads: the data, k, and what the earlier rounds fixed
// on the driver (T1 and the shared threshold after round 1, the candidate
// set L after round 2).
struct HwtopkCtx {
  const std::vector<double>& data;
  int64_t k = 0;
  double t1 = 0.0;
  double threshold_shared = 0.0;
  std::set<int64_t> candidates{};
};

// Key: coefficient index (or -1/-2 for the per-mapper thresholds); value:
// (mapper id, normalized partial value).
using Shipped = std::pair<int64_t, double>;
using RoundSpec = mr::JobSpec<HwtopkCtx, RangeSplit, int64_t, Shipped,
                              std::pair<int64_t, Shipped>>;

}  // namespace

DistSynopsisResult RunHWTopk(const std::vector<double>& data, int64_t budget,
                             int64_t num_mappers,
                             const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  num_mappers = std::min(num_mappers, n);
  const int64_t k = std::max<int64_t>(budget, 1);

  const std::vector<RangeSplit> splits = RangeSplits(n, num_mappers);
  const int64_t chunk = splits[0].second - splits[0].first;
  const int64_t m = static_cast<int64_t>(splits.size());

  // Driver state folded from the three rounds' outputs. Ordered maps: the
  // T1/T2 threshold sums and the finalize loop iterate these, and their
  // order must be identical run to run for byte-identical synopses.
  std::map<int64_t, std::map<int64_t, double>> known;
  std::vector<double> kth_high(static_cast<size_t>(m), 0.0);
  std::vector<double> kth_low(static_cast<size_t>(m), 0.0);

  const double kInf = std::numeric_limits<double>::infinity();
  DistSynopsisResult result;
  mr::JobChain chain("hwtopk", cluster, &result.report,
                     mr::CheckpointFingerprint(data, {budget, num_mappers}));

  // Cumulative round state, snapshotted after each round's stage commits:
  // a resumed run restores the exact folded state and re-derives the pure
  // driver-side thresholds (T1/T2, candidates) from it.
  const auto rounds_intact = [&] {
    const size_t mappers = static_cast<size_t>(m);
    return kth_high.size() == mappers && kth_low.size() == mappers;
  };

  HwtopkCtx rounds{.data = data, .k = k};
  auto run_round = [&](const std::string& name,
                       decltype(RoundSpec::map) map) -> Status {
    RoundSpec spec;
    spec.name = name;
    spec.num_reducers = 1;
    spec.split_bytes = RangeSplitBytes;
    spec.map = map;
    spec.reduce = dist_internal::ForwardPairs;
    std::vector<std::pair<int64_t, Shipped>> received;
    DWM_RETURN_NOT_OK(chain.RunJob(spec, rounds, splits, &received));
    for (const auto& [key, shipped] : received) {
      const auto [mapper, v] = shipped;
      if (key == -1) {
        kth_high[static_cast<size_t>(mapper)] = v;
      } else if (key == -2) {
        kth_low[static_cast<size_t>(mapper)] = v;
      } else {
        known[key][mapper] = v;
      }
    }
    return Status::OK();
  };

  // ---- Round 1: everyone's k highest and k lowest partials. ----
  chain.RunStage(
      "r1",
      [&]() -> Status {
        return run_round(
            "hwtopk_r1", [](const HwtopkCtx& ctx, int64_t mapper,
                            const RangeSplit& split, const auto& emit) {
              std::vector<Partial> partials =
                  ComputePartials(ctx.data, split.first, split.second);
              std::sort(partials.begin(), partials.end(),
                        [](const Partial& a, const Partial& b) {
                          return a.value > b.value;
                        });
              const int64_t count = static_cast<int64_t>(partials.size());
              if (count <= 2 * ctx.k) {
                for (const Partial& p : partials) emit(p.node, {mapper, p.value});
                emit(-1, {mapper, 0.0});  // sent everything: unknown => absent => 0
                emit(-2, {mapper, 0.0});
                return;
              }
              for (int64_t i = 0; i < ctx.k; ++i) {
                emit(partials[static_cast<size_t>(i)].node,
                     {mapper, partials[static_cast<size_t>(i)].value});
                emit(partials[static_cast<size_t>(count - 1 - i)].node,
                     {mapper, partials[static_cast<size_t>(count - 1 - i)].value});
              }
              emit(-1, {mapper,
                        partials[static_cast<size_t>(ctx.k - 1)].value});
              emit(-2, {mapper,
                        partials[static_cast<size_t>(count - ctx.k)].value});
            });
      },
      rounds_intact, &known, &kth_high, &kth_low);
  if (!chain.ok()) {
    result.status = chain.status();
    return result;
  }

  // Which mappers can hold a partial for coefficient x at all: only those
  // whose split intersects x's leaf range. This is static knowledge of the
  // partitioning (not of the data) and is what keeps the TPUT bounds tight
  // when the transform runs on raw data — without it nearly every
  // coefficient is single-owner with sign-ambiguous bounds and T1 collapses
  // to 0 (the histogram setting of Jestes et al. does not have this issue).
  auto overlapping_mappers = [&](int64_t x) -> std::pair<int64_t, int64_t> {
    LeafRange range = x == 0 ? LeafRange{0, n} : NodeLeafRange(n, x);
    const int64_t first = range.first / chunk;
    const int64_t last = (range.first + range.count - 1) / chunk;
    return {first, std::min(last, m - 1)};
  };

  // cap_shared applies to straddling coefficients (every overlapping mapper
  // may hold up to T1/m unseen), cap_exclusive to single-owner ones (the
  // owner emits in round 2 whenever |v| > T1, so unseen means <= T1).
  auto tau_bounds = [&](int64_t x,
                        const std::map<int64_t, double>& values,
                        const std::vector<double>& high,
                        const std::vector<double>& low, double cap_shared,
                        double cap_exclusive) -> std::pair<double, double> {
    double tau_plus = 0.0;
    double tau_minus = 0.0;
    const auto [first, last] = overlapping_mappers(x);
    const double cap = first == last ? cap_exclusive : cap_shared;
    for (int64_t mm = first; mm <= last; ++mm) {
      const auto it = values.find(mm);
      if (it != values.end()) {
        tau_plus += it->second;
        tau_minus += it->second;
      } else {
        tau_plus += std::min(high[static_cast<size_t>(mm)], cap);
        tau_minus += std::max(low[static_cast<size_t>(mm)], -cap);
      }
    }
    return {tau_plus, tau_minus};
  };

  auto kth_largest = [&](std::vector<double> taus) {
    if (taus.empty()) return 0.0;
    const int64_t pos = std::min<int64_t>(k - 1, static_cast<int64_t>(taus.size()) - 1);
    std::nth_element(taus.begin(), taus.begin() + pos, taus.end(),
                     std::greater<double>());
    return std::max(taus[static_cast<size_t>(pos)], 0.0);
  };

  // T1 from the round-1 bounds. A mapper that sent every partial in round 1
  // reported 0.0 for both thresholds and the caps are never negative, so a
  // coefficient it did not send adds exactly 0 to tau+ and tau-: the exact
  // value, since that mapper holds no partial for it.
  std::vector<double> taus;
  taus.reserve(known.size());
  for (const auto& [x, values] : known) {
    const auto [tp, tm] = tau_bounds(x, values, kth_high, kth_low, kInf, kInf);
    taus.push_back((tp >= 0.0) == (tm >= 0.0)
                       ? std::min(std::abs(tp), std::abs(tm))
                       : 0.0);
  }
  const double t1 = kth_largest(std::move(taus));

  // ---- Round 2: shared partials with |v| > T1 / m, exclusive ones with
  // |v| > T1 (a single-owner coefficient not in the top-k by its owner's
  // value cannot be in the global top-k). ----
  const double threshold_shared = t1 / static_cast<double>(m);
  rounds.t1 = t1;
  rounds.threshold_shared = threshold_shared;
  chain.RunStage(
      "r2",
      [&]() -> Status {
        return run_round(
            "hwtopk_r2", [](const HwtopkCtx& ctx, int64_t mapper,
                            const RangeSplit& split, const auto& emit) {
              for (const Partial& p :
                   ComputePartials(ctx.data, split.first, split.second)) {
                if (std::abs(p.value) >
                    (p.exclusive ? ctx.t1 : ctx.threshold_shared)) {
                  emit(p.node, {mapper, p.value});
                }
              }
            });
      },
      rounds_intact, &known, &kth_high, &kth_low);
  if (!chain.ok()) {
    result.status = chain.status();
    return result;
  }

  // Refine bounds with the round-2 caps, compute T2, prune to L.
  std::vector<double> taus2;
  taus2.reserve(known.size());
  std::vector<std::pair<int64_t, std::pair<double, double>>> refined;
  for (const auto& [x, values] : known) {
    const auto [tp, tm] =
        tau_bounds(x, values, kth_high, kth_low, threshold_shared, t1);
    refined.push_back({x, {tp, tm}});
    taus2.push_back((tp >= 0.0) == (tm >= 0.0)
                        ? std::min(std::abs(tp), std::abs(tm))
                        : 0.0);
  }
  const double t2 = kth_largest(std::move(taus2));
  std::set<int64_t>& candidates = rounds.candidates;
  for (const auto& [x, bounds] : refined) {
    if (std::max(std::abs(bounds.first), std::abs(bounds.second)) >= t2) {
      candidates.insert(x);
    }
  }

  // ---- Round 3: exact values for every candidate in L. ----
  chain.RunStage(
      "r3",
      [&]() -> Status {
        const Status status = run_round(
            "hwtopk_r3", [](const HwtopkCtx& ctx, int64_t mapper,
                            const RangeSplit& split, const auto& emit) {
              for (const Partial& p :
                   ComputePartials(ctx.data, split.first, split.second)) {
                if (ctx.candidates.count(p.node) != 0) {
                  emit(p.node, {mapper, p.value});
                }
              }
            });
        if (!status.ok()) return status;
        Stopwatch finalize;
        TopBySignificance top(budget);
        for (int64_t x : candidates) {
          const auto it = known.find(x);
          if (it == known.end()) continue;
          double normalized = 0.0;
          for (const auto& [mapper, v] : it->second) normalized += v;
          const double raw =
              x <= 0
                  ? normalized
                  : normalized * std::sqrt(static_cast<double>(
                                     int64_t{1} << NodeLevel(x)));
          top.Offer(x, raw);
        }
        result.synopsis = Synopsis(n, top.Take());
        if constexpr (audit::kEnabled) {
          DWM_AUDIT_CHECK(result.synopsis.size() <= budget);
        }
        // Same total as the old reduce-makespan accounting, but named and
        // kept intact under rescheduling.
        chain.AddDriverSpan(
            "hwtopk_finalize",
            finalize.ElapsedSeconds() * cluster.compute_scale);
        return Status::OK();
      },
      [&] { return result.synopsis.domain_size() == n; }, &result.synopsis);
  result.status = chain.status();
  if (!result.status.ok()) return result;
  PublishSynopsisQuality("hwtopk", result.synopsis,
                         MaxAbsError(data, result.synopsis));
  // TPUT pruning effectiveness: how many candidates survived into the
  // exact round-3 lookup.
  metrics::Default()
      .GetGauge("dwm_hwtopk_round3_candidates",
                "Candidate coefficients surviving TPUT pruning into round 3",
                {{"algo", "hwtopk"}})
      ->Set(static_cast<double>(candidates.size()));
  return result;
}

}  // namespace dwm
