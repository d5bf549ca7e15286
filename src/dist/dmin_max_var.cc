#include "dist/dmin_max_var.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "dist/dist_common.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {

DMinMaxVarResult DMinMaxVar(const std::vector<double>& data,
                            const MinMaxVarOptions& options,
                            int64_t base_leaves,
                            const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  const TreePartition partition = MakeTreePartition(n, base_leaves);
  const int64_t num_base = partition.num_base;
  const int32_t q = options.resolution;
  DWM_CHECK_GE(q, 1);
  const int64_t budget = std::clamp<int64_t>(options.budget, 0, n);
  const int64_t cap = budget * q;

  DMinMaxVarResult out;
  mr::JobChain chain(
      "dmmv", cluster, &out.report,
      mr::CheckpointFingerprint(
          data, {budget, base_leaves, static_cast<int64_t>(q),
                 static_cast<int64_t>(options.seed)}));

  // ---- Job 1 (bottom-up): every base worker runs the DP over its local
  // detail sub-tree and emits only the local root's M-row plus the slice
  // average (Algorithm 1 lines 5-8). ----
  std::vector<mmv::Row> base_rows(static_cast<size_t>(num_base));
  std::vector<double> averages(static_cast<size_t>(num_base), 0.0);
  chain.RunStage(
      "up",
      [&]() -> Status {
        using Root = std::pair<double, mmv::Row>;  // (average, root M-row)
        mr::JobSpec<int64_t, int64_t, Root, std::pair<int64_t, Root>> spec;
        spec.name = "dminmaxvar_up";
        spec.num_reducers = 1;
        spec.split_bytes = partition.SliceBytes<int64_t>();
        spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
          const std::vector<double> local = partition.LocalTransform(data, t);
          std::vector<mmv::Row> rows = mmv::BuildSubtreeRows(local, q, cap);
          emit(t, {local[0], std::move(rows[1])});
        };
        spec.reduce = dist_internal::ForwardSingle<int64_t, Root>;
        std::vector<std::pair<int64_t, Root>> roots;
        const Status status =
            chain.RunJob(spec, partition.BaseSplits(), &roots);
        if (!status.ok()) return status;
        for (auto& [t, root] : roots) {
          averages[static_cast<size_t>(t)] = root.first;
          base_rows[static_cast<size_t>(t)] = std::move(root.second);
        }
        return Status::OK();
      },
      [&] {
        const size_t bases = static_cast<size_t>(num_base);
        return averages.size() == bases && base_rows.size() == bases;
      },
      &averages, &base_rows);
  if (!chain.ok()) {
    out.status = chain.status();
    return out;
  }

  // ---- Driver (the topmost sub-tree, Algorithm 1 line 11): combine the
  // base rows up the root sub-tree, choose c_0, select top-down. ----
  Stopwatch driver_clock;
  const std::vector<double> root_coeffs = ForwardHaar(averages);
  std::vector<mmv::Row> top_rows(static_cast<size_t>(num_base));
  for (int64_t slot = num_base - 1; slot >= 1; --slot) {
    const int64_t nodes_below =
        (n >> NodeLevel(slot)) - 1;  // global subtree size
    const int64_t slot_cap = std::min<int64_t>(cap, nodes_below * q);
    const mmv::Row& left = slot >= num_base / 2
                               ? base_rows[static_cast<size_t>(2 * slot - num_base)]
                               : top_rows[static_cast<size_t>(2 * slot)];
    const mmv::Row& right =
        slot >= num_base / 2
            ? base_rows[static_cast<size_t>(2 * slot + 1 - num_base)]
            : top_rows[static_cast<size_t>(2 * slot + 1)];
    top_rows[static_cast<size_t>(slot)] = mmv::CombineRows(
        root_coeffs[static_cast<size_t>(slot)], left, right, q, slot_cap);
  }
  const mmv::Cell best =
      mmv::ChooseAverage(root_coeffs[0], top_rows[1], q, cap);
  out.result.max_path_penalty = best.v;

  std::vector<Coefficient> kept;
  const auto take_root = [&](int64_t node, int32_t y_units) {
    mmv::Realize(options, node, root_coeffs[static_cast<size_t>(node)],
                 y_units, &out.result, &kept);
  };
  if (best.y_units > 0) take_root(0, best.y_units);
  // The root sub-tree heap: slot s has children 2s/2s+1, which are base
  // rows for s >= num_base/2, so the leaf callback receives each base
  // index and its allotment.
  std::map<int64_t, int64_t> assignments;  // base t -> allotment units
  mmv::SelectInRows(top_rows, 1, best.left_units, take_root,
                    [&](int64_t base, int64_t b) {
                      if (b > 0) assignments[base] = b;
                    });
  out.report.AddDriverSpan("root_select", driver_clock.ElapsedSeconds());

  // ---- Job 2 (top-down re-entry): each assigned base worker recomputes
  // its local DP and materializes its choices. ----
  if (!assignments.empty()) {
    // This job's own contributions, appended after the stage to the
    // driver-side root selection (which a resumed run recomputes
    // identically), so the checkpoint carries only them.
    MinMaxVarResult base;
    std::vector<Coefficient> base_kept;
    chain.RunStage(
        "down",
        [&]() -> Status {
          using Split = std::pair<int64_t, int64_t>;  // (base, allotment units)
          std::vector<Split> splits(assignments.begin(), assignments.end());
          // Key: the node's allotment units; value: (coefficient, node).
          using Choice = std::pair<double, int64_t>;
          mr::JobSpec<Split, int64_t, Choice, std::pair<int64_t, Choice>> spec;
          spec.name = "dminmaxvar_down";
          spec.num_reducers = 1;
          spec.split_bytes = partition.SliceBytes<Split>();
          spec.map = [&](int64_t, const Split& split, const auto& emit) {
            const auto [t, b] = split;
            const std::vector<double> local = partition.LocalTransform(data, t);
            const std::vector<mmv::Row> rows =
                mmv::BuildSubtreeRows(local, q, cap);
            mmv::SelectInRows(rows, 1, b, [&](int64_t slot, int32_t y_units) {
              emit(y_units, {local[static_cast<size_t>(slot)],
                             partition.GlobalNode(t, slot)});
            });
          };
          spec.reduce = dist_internal::ForwardPairs<int64_t, Choice>;
          std::vector<std::pair<int64_t, Choice>> choices;
          const Status status = chain.RunJob(spec, splits, &choices);
          if (!status.ok()) return status;
          for (const auto& [y_units, choice] : choices) {
            mmv::Realize(options, choice.second, choice.first,
                         static_cast<int32_t>(y_units), &base, &base_kept);
          }
          return Status::OK();
        },
        nullptr, &base.expected_space_units, &base.allocations, &base_kept);
    if (!chain.ok()) {
      out.status = chain.status();
      return out;
    }
    out.result.expected_space_units += base.expected_space_units;
    out.result.allocations.insert(out.result.allocations.end(),
                                  base.allocations.begin(),
                                  base.allocations.end());
    kept.insert(kept.end(), base_kept.begin(), base_kept.end());
  }

  out.result.synopsis = Synopsis(n, std::move(kept));
  if constexpr (audit::kEnabled) {
    // Post-conditions: the DP may spend at most budget * q expected-space
    // units, every allotment is a positive probability <= 1, and the
    // synopsis only realizes allocated nodes.
    DWM_AUDIT_CHECK(out.result.expected_space_units <=
                    options.budget * options.resolution);
    for (const auto& [node, y_units] : out.result.allocations) {
      DWM_AUDIT_CHECK(node >= 0 && node < n);
      DWM_AUDIT_CHECK(y_units > 0 && y_units <= options.resolution);
    }
    DWM_AUDIT_CHECK(out.result.synopsis.size() <=
                    static_cast<int64_t>(out.result.allocations.size()));
  }
  PublishSynopsisQuality("dmin_max_var", out.result.synopsis,
                         MaxAbsError(data, out.result.synopsis));
  metrics::Registry& registry = metrics::Default();
  const metrics::Labels labels = {{"algo", "dmin_max_var"}};
  registry
      .GetGauge("dwm_dmmv_expected_space_units",
                "Expected-space units the probabilistic DP spent", labels)
      ->Set(static_cast<double>(out.result.expected_space_units));
  registry
      .GetGauge("dwm_dmmv_allocations",
                "Nodes granted a positive retention probability", labels)
      ->Set(static_cast<double>(out.result.allocations.size()));
  return out;
}

}  // namespace dwm
