#include "dist/dmin_max_var.h"

#include <algorithm>
#include <utility>

#include "common/audit.h"
#include "common/check.h"
#include "dist/dist_common.h"
#include "dist/partitioned_tree_dp.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

// The MinMaxVar DP as a one-layer policy: a record is a base sub-tree's
// slice average and root M-row, and the driver combines the records up
// the root sub-tree (Algorithm 1 line 11).
struct MmvPolicy {
  using Record = std::pair<double, mmv::Row>;  // (average, root M-row)

  int64_t n = 0;
  int32_t q = 1;
  int64_t cap = 0;                // budget * q allotment units
  double max_path_penalty = 0.0;  // from Top

  Record LeafRecord(const double* slice, int64_t len) const {
    const std::vector<double> local = ForwardHaar({slice, slice + len});
    std::vector<mmv::Row> rows = mmv::BuildSubtreeRows(local, q, cap);
    return {local[0], std::move(rows[1])};
  }

  // Combines the base rows up the root sub-tree, chooses c_0 and selects
  // top-down; each base with a positive allotment is re-entered with it.
  bool Top(const std::vector<Record>& finals, const PickFn& pick,
           const AssignFn& assign) {
    const int64_t num_base = static_cast<int64_t>(finals.size());
    std::vector<double> averages;
    for (const Record& record : finals) averages.push_back(record.first);
    const std::vector<double> root_coeffs = ForwardHaar(averages);
    // Slot s of the root sub-tree has children 2s and 2s + 1, which are
    // base rows for s >= num_base / 2.
    std::vector<mmv::Row> top_rows(static_cast<size_t>(num_base));
    const auto child = [&](int64_t slot) -> const mmv::Row& {
      return slot >= num_base
                 ? finals[static_cast<size_t>(slot - num_base)].second
                 : top_rows[static_cast<size_t>(slot)];
    };
    for (int64_t slot = num_base - 1; slot >= 1; --slot) {
      const int64_t nodes_below = (n >> NodeLevel(slot)) - 1;
      top_rows[static_cast<size_t>(slot)] = mmv::CombineRows(
          root_coeffs[static_cast<size_t>(slot)], child(2 * slot),
          child(2 * slot + 1), q, std::min(cap, nodes_below * q));
    }
    const mmv::Cell best =
        mmv::ChooseAverage(root_coeffs[0], top_rows[1], q, cap);
    max_path_penalty = best.v;
    const auto take = [&](int64_t node, int32_t y_units) {
      pick(node, root_coeffs[static_cast<size_t>(node)], y_units);
    };
    if (best.y_units > 0) take(0, best.y_units);
    mmv::SelectInRows(top_rows, 1, best.left_units, take,
                      [&](int64_t base, int64_t b) {
                        if (b > 0) assign(base, b);
                      });
    return true;
  }

  void SelectLeaf(const double* slice, int64_t len, int64_t root, int64_t b,
                  const PickFn& pick) const {
    const std::vector<double> local = ForwardHaar({slice, slice + len});
    const std::vector<mmv::Row> rows = mmv::BuildSubtreeRows(local, q, cap);
    mmv::SelectInRows(rows, 1, b, [&](int64_t slot, int32_t y_units) {
      pick(LocalToGlobal(root, slot), local[static_cast<size_t>(slot)],
           y_units);
    });
  }
};

}  // namespace

DMinMaxVarResult DMinMaxVar(const std::vector<double>& data,
                            const MinMaxVarOptions& options,
                            int64_t base_leaves,
                            const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t num_base = MakeTreePartition(n, base_leaves).num_base;
  const int32_t q = options.resolution;
  DWM_CHECK_GE(q, 1);
  const int64_t budget = std::clamp<int64_t>(options.budget, 0, n);
  PartitionedTreeDp<MmvPolicy> dp(
      "dmmv", data, {num_base}, MmvPolicy{n, q, budget * q}, cluster,
      mr::CheckpointFingerprint(
          data, {budget, base_leaves, static_cast<int64_t>(q),
                 static_cast<int64_t>(options.seed)}));
  const bool done = dp.Probe() && dp.Materialize();
  DMinMaxVarResult out{{}, dp.TakeReport(), dp.status()};
  if (!done) return out;
  out.result.max_path_penalty = dp.policy().max_path_penalty;
  std::vector<Coefficient> kept;
  for (size_t i = 0; i < dp.kept().size(); ++i) {
    mmv::Realize(options, dp.kept()[i].index, dp.kept()[i].value,
                 static_cast<int32_t>(dp.units()[i]), &out.result, &kept);
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
