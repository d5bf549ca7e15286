#include "dist/dmin_haar_space.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "dist/dist_common.h"
#include "dist/partitioned_tree_dp.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

// The MinHaarSpace DP as a layered policy: a record is an M-row.
struct MhsPolicy {
  using Record = mhs::Row;

  double eps = 0.0;
  double q = 1.0;
  MhsResult result;  // feasible, count and max_abs_error, from Top

  Record LeafRecord(const double* slice, int64_t len) const {
    return mhs::ComputeRowOverData(slice, len, eps, q);
  }
  Record UpperRecord(const std::vector<Record>& inputs) const {
    return mhs::BuildRowHeap(inputs).CopyRow(1);
  }
  double RecordBytes(const Record& row) const {
    return 16.0 + 12.0 * static_cast<double>(row.cells.size());
  }

  // Chooses c_0 from the row of c_1 and hands c_1's incoming value to the
  // last layer's one task when c_1's subtree retains coefficients.
  bool Top(const std::vector<Record>& finals, const PickFn& pick,
           const AssignFn& assign) {
    const mhs::Row row1 = mhs::BuildRowHeap(finals).CopyRow(1);
    const mhs::Choice c0 = mhs::ChooseAverage(row1);
    if (!c0.cell.feasible()) return false;
    result.feasible = true;
    result.count = c0.cell.count;
    result.max_abs_error = c0.cell.err;
    if (c0.z_grid != 0) pick(0, static_cast<double>(c0.z_grid) * q, 1);
    const mhs::Cell* root_cell = row1.Find(c0.z_grid);
    DWM_CHECK(root_cell != nullptr && root_cell->feasible());
    if (root_cell->count > 0) assign(0, c0.z_grid);
    return true;
  }

  void SelectLeaf(const double* slice, int64_t len, int64_t root, int64_t v,
                  const PickFn& pick) const {
    std::vector<Coefficient> local;
    mhs::SelectOverData(slice, len, root, eps, q, v, &local);
    for (const Coefficient& c : local) pick(c.index, c.value, 1);
  }
  void SelectUpper(const std::vector<Record>& inputs, int64_t root, int64_t v,
                   const PickFn& pick, const AssignFn& assign) const {
    std::vector<Coefficient> local;
    mhs::SelectInHeap(mhs::BuildRowHeap(inputs), root, q, 1, v, &local,
                      assign);
    for (const Coefficient& c : local) pick(c.index, c.value, 1);
  }
};

}  // namespace

struct DmhsSweep : PartitionedTreeDp<MhsPolicy> {
  using PartitionedTreeDp::PartitionedTreeDp;
};

DmhsProbe ProbeDMinHaarSpace(const std::vector<double>& data,
                             const DmhsOptions& options,
                             const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK_GE(n, kPartitionedMinValues);
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(options.subtree_inputs)));
  const double eps = options.error_bound;
  const double q = options.quantum;
  // Each layer-0 task covers 2 * fan leaves, so it consumes fan pair rows.
  const int64_t fan = std::min(options.subtree_inputs, n / 2);
  const int height = Log2Exact(static_cast<uint64_t>(fan));
  auto sweep = std::make_shared<DmhsSweep>(
      "dmhs", data, LayerSubtreeCounts(n, height), MhsPolicy{eps, q, {}},
      cluster,
      mr::CheckpointFingerprint(
          data, {std::bit_cast<int64_t>(eps), std::bit_cast<int64_t>(q), fan}));
  const bool feasible = sweep->Probe();
  DmhsProbe out{sweep->policy().result, sweep->TakeReport(), sweep->status(),
                nullptr};
  if (feasible) out.sweep = std::move(sweep);
  return out;
}

DmhsResult MaterializeDMinHaarSpace(const DmhsProbe& probe) {
  DWM_CHECK(probe.sweep != nullptr);
  DmhsSweep& sweep = *probe.sweep;
  const bool done = sweep.Materialize();
  DmhsResult out{{}, sweep.TakeReport(), sweep.status()};
  if (!done) return out;
  const std::vector<double>& data = sweep.data();
  const double eps = sweep.policy().eps;
  out.result = probe.result;
  out.result.synopsis =
      Synopsis(static_cast<int64_t>(data.size()), sweep.kept());
  DWM_CHECK_EQ(out.result.synopsis.size(), out.result.count);
  if constexpr (audit::kEnabled) {
    // Synopsis post-conditions: the materialized synopsis must achieve the
    // DP-tracked error exactly (it is the same objective the DP optimized),
    // and that error must satisfy the requested bound.
    const double exact = MaxAbsError(data, out.result.synopsis);
    DWM_AUDIT_CHECK(std::abs(exact - out.result.max_abs_error) <= 1e-9);
    DWM_AUDIT_CHECK(exact <= eps + 1e-9);
  }
  PublishSynopsisQuality("dmin_haar_space", out.result.synopsis,
                         out.result.max_abs_error, eps);
  return out;
}

DmhsResult DMinHaarSpace(const std::vector<double>& data,
                         const DmhsOptions& options,
                         const mr::ClusterConfig& cluster) {
  DmhsProbe probe = ProbeDMinHaarSpace(data, options, cluster);
  DmhsResult out{probe.result, std::move(probe.report), probe.status};
  if (probe.sweep == nullptr) return out;
  DmhsResult down = MaterializeDMinHaarSpace(probe);
  out.report.Append(down.report);
  out.status = down.status;
  out.result = std::move(down.result);
  return out;
}

}  // namespace dwm
