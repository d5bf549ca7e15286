#include "dist/dmin_haar_space.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
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
#include "wavelet/metrics.h"

namespace dwm {
namespace {

double RowBytes(const mhs::Row& row) {
  return 16.0 + 12.0 * static_cast<double>(row.cells.size());
}

// Per-level DP communication, the number the MPC-on-trees line tracks: one
// counter child per up/down stage, accumulated across runs. Only live job
// runs count; a restored stage replays its shuffle bytes through the
// SimReport, not this registry counter.
void PublishLevelShuffle(const mr::JobStats& stats) {
  metrics::Default()
      .GetCounter("dwm_dmhs_level_shuffle_bytes_total",
                  "Shuffle bytes per DP level (up/down sweep stages)",
                  {{"stage", stats.name}})
      ->Increment(stats.shuffle_bytes);
}

}  // namespace

struct DmhsSweep {
  DmhsSweep(const std::vector<double>& input, const DmhsOptions& options,
            const mr::ClusterConfig& config)
      : data(input),
        eps(options.error_bound),
        q(options.quantum),
        fan(std::min(options.subtree_inputs,
                     static_cast<int64_t>(input.size()) / 2)),
        cluster(config),
        chain("dmhs", cluster, &report, nullptr,
              mr::CheckpointFingerprint(
                  input, {std::bit_cast<int64_t>(eps),
                          std::bit_cast<int64_t>(q), fan})) {}

  // Hands over the jobs and spans recorded since the last call.
  mr::SimReport TakeReport() { return std::exchange(report, {}); }

  // Storage a stage-s worker reads, up or down: its 2 * fan leaves at
  // stage 0, the rows it consumes above.
  double StageBytes(int s, int64_t task) const {
    if (s == 0) return static_cast<double>(2 * fan) * sizeof(double);
    double bytes = 0.0;
    for (const mhs::Row& row :
         stage_inputs[static_cast<size_t>(s)][static_cast<size_t>(task)]) {
      bytes += RowBytes(row);
    }
    return bytes;
  }

  const std::vector<double>& data;
  const double eps;
  const double q;
  const int64_t fan;
  // The chain keeps pointers to these two, so the sweep never moves.
  const mr::ClusterConfig cluster;
  mr::SimReport report;
  mr::JobChain chain;
  // tasks[s]: workers of stage s; worker i produces the M-row of global
  // node tasks[s] + i.
  std::vector<int64_t> tasks;
  // stage_inputs[s][task]: the rows stage s's worker consumed (s >= 1;
  // stage 0 reads raw data). The down sweep re-enters them.
  std::vector<std::vector<std::vector<mhs::Row>>> stage_inputs;
  int64_t z0 = 0;         // chosen c_0 in grid units, c_1's incoming value
  bool descend = false;   // c_1's subtree retains coefficients
};

DmhsProbe ProbeDMinHaarSpace(const std::vector<double>& data,
                             const DmhsOptions& options,
                             const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, 4);
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(options.subtree_inputs)));
  DWM_CHECK_GE(options.subtree_inputs, 2);

  DmhsProbe out;
  auto sweep = std::make_shared<DmhsSweep>(data, options, cluster);
  const double eps = sweep->eps;
  const double q = sweep->q;
  const int64_t fan = sweep->fan;
  mr::JobChain& chain = sweep->chain;
  std::vector<int64_t>& tasks = sweep->tasks;
  auto& stage_inputs = sweep->stage_inputs;

  // ---------------- Bottom-up phase (Algorithm 1). ----------------
  tasks = LayerSubtreeCounts(n, Log2Exact(static_cast<uint64_t>(fan)));
  const int num_stages = static_cast<int>(tasks.size());

  stage_inputs.resize(static_cast<size_t>(num_stages));
  for (int s = 1; s < num_stages; ++s) {
    stage_inputs[static_cast<size_t>(s)].resize(
        static_cast<size_t>(tasks[static_cast<size_t>(s)]));
  }
  std::vector<mhs::Row> final_rows;  // inputs of the (single) top task

  for (int s = 0; s < num_stages; ++s) {
    const int64_t num_tasks = tasks[static_cast<size_t>(s)];
    const bool last = s + 1 == num_stages;
    std::vector<int64_t> splits(static_cast<size_t>(num_tasks));
    for (int64_t i = 0; i < num_tasks; ++i) splits[static_cast<size_t>(i)] = i;

    const auto run_up = [&]() -> Status {
      // Emitted key: the consuming task of the next stage; value:
      // (position within that task, row). The last stage emits to the
      // driver (key 0).
      mr::JobSpec<int64_t, int64_t, std::pair<int64_t, mhs::Row>, int64_t>
          spec;
      spec.name = "dmhs_up_" + std::to_string(s);
      spec.num_reducers = static_cast<int>(std::min<int64_t>(
          last ? 1 : tasks[static_cast<size_t>(s + 1)], cluster.reduce_slots));
      spec.partition = [&spec](const int64_t& key) {
        return static_cast<int>(key % spec.num_reducers);
      };
      spec.split_bytes = [&, s](const int64_t& task) {
        return sweep->StageBytes(s, task);
      };
      spec.map = [&, s, last](int64_t, const int64_t& task, const auto& emit) {
        mhs::Row row;
        if (s == 0) {
          const int64_t leaves = 2 * fan;
          row = mhs::ComputeRowOverData(data.data() + task * leaves, leaves, eps,
                                        q);
        } else {
          row = mhs::BuildRowHeap(stage_inputs[static_cast<size_t>(s)]
                                              [static_cast<size_t>(task)])
                    .CopyRow(1);
        }
        emit(last ? 0 : task / fan, {last ? task : task % fan, std::move(row)});
      };
      spec.reduce = [&, s, last](const int64_t& key,
                                 std::vector<std::pair<int64_t, mhs::Row>>& rows,
                                 std::vector<int64_t>*) {
        if (last) {
          // dwm-analyze: allow(lambda-capture): last stage has one task, so one reducer
          final_rows.resize(rows.size());
          for (auto& [pos, row] : rows) {
            // dwm-analyze: allow(lambda-capture): last stage has one task, so one reducer
            final_rows[static_cast<size_t>(pos)] = std::move(row);
          }
        } else {
          // dwm-analyze: allow(lambda-capture): writes only stage_inputs[s+1][key]; key is reducer-partitioned, so concurrent reducers touch disjoint elements
          auto& inputs = stage_inputs[static_cast<size_t>(s + 1)]
                                     [static_cast<size_t>(key)];
          // The next stage's task consumes `fan` children, except when this
          // whole stage feeds a single final task with fewer outputs.
          // dwm-analyze: allow(lambda-capture): sizes only stage_inputs[s+1][key], this reducer's disjoint slot
          inputs.resize(static_cast<size_t>(
              std::min(fan, tasks[static_cast<size_t>(s)])));
          for (auto& [pos, row] : rows) {
            // dwm-analyze: allow(lambda-capture): writes only stage_inputs[s+1][key], this reducer's disjoint slot
            inputs[static_cast<size_t>(pos)] = std::move(row);
          }
        }
      };
      std::vector<int64_t> unused;
      const Status status = chain.RunJob(spec, splits, &unused);
      PublishLevelShuffle(sweep->report.jobs.back());
      return status;
    };
    const std::string stage = "up_" + std::to_string(s);
    if (last) {
      chain.RunStage(stage, run_up, nullptr, &final_rows);
    } else {
      auto& produced = stage_inputs[static_cast<size_t>(s + 1)];
      chain.RunStage(
          stage, run_up,
          [&] {
            return produced.size() ==
                   static_cast<size_t>(tasks[static_cast<size_t>(s + 1)]);
          },
          &produced);
    }
    if (!chain.ok()) {
      out.status = chain.status();
      out.report = sweep->TakeReport();
      return out;
    }
  }

  // ---------------- Driver: choose c_0 from the row of c_1. ----------------
  Stopwatch driver_clock;
  const mhs::Row row1 = mhs::BuildRowHeap(final_rows).CopyRow(1);
  const mhs::Choice c0 = mhs::ChooseAverage(row1);
  if (c0.cell.feasible()) {
    out.result.feasible = true;
    out.result.count = c0.cell.count;
    out.result.max_abs_error = c0.cell.err;
    sweep->z0 = c0.z_grid;
    const mhs::Cell* root_cell = row1.Find(c0.z_grid);
    DWM_CHECK(root_cell != nullptr && root_cell->feasible());
    sweep->descend = root_cell->count > 0;
  }
  sweep->report.AddDriverSpan("choose_c0", driver_clock.ElapsedSeconds());
  out.report = sweep->TakeReport();
  if (out.result.feasible) out.sweep = std::move(sweep);
  return out;
}

DmhsResult MaterializeDMinHaarSpace(const DmhsProbe& probe) {
  DWM_CHECK(probe.sweep != nullptr);
  DmhsSweep& sweep = *probe.sweep;
  const std::vector<double>& data = sweep.data;
  const int64_t n = static_cast<int64_t>(data.size());
  const double eps = sweep.eps;
  const double q = sweep.q;
  const int64_t fan = sweep.fan;
  mr::JobChain& chain = sweep.chain;
  const std::vector<int64_t>& tasks = sweep.tasks;
  const auto& stage_inputs = sweep.stage_inputs;
  const int num_stages = static_cast<int>(tasks.size());

  DmhsResult out;
  std::vector<Coefficient> coeffs;
  if (sweep.z0 != 0) coeffs.push_back({0, static_cast<double>(sweep.z0) * q});

  // Hand the chosen incoming value of c_1 to the topmost worker; the
  // top-down jobs below re-enter each sub-tree layer by layer.
  std::map<int64_t, int64_t> assignments;  // task of stage (num_stages-1) -> v
  if (sweep.descend) assignments[0] = sweep.z0;

  // ---------------- Top-down phase: one job per stage. ----------------
  // Note stage (num_stages - 1) was already consumed by the driver when it
  // had a single task; otherwise assignments target it directly.
  for (int s = num_stages - 1; s >= 0 && !assignments.empty(); --s) {
    using Split = std::pair<int64_t, int64_t>;  // (task, incoming v)
    std::vector<Split> splits;
    splits.reserve(assignments.size());
    for (const auto& [task, v] : assignments) splits.push_back({task, v});
    std::map<int64_t, int64_t> next_assignments;

    chain.RunStage(
        "down_" + std::to_string(s),
        [&]() -> Status {
          // Keys: -1 carries a selected coefficient, otherwise the key is
          // the child task id and the value its incoming grid value.
          mr::JobSpec<Split, int64_t, std::pair<int64_t, double>, int64_t>
              spec;
          spec.name = "dmhs_down_" + std::to_string(s);
          spec.num_reducers = 1;
          spec.split_bytes = [&, s](const Split& split) {
            return sweep.StageBytes(s, split.first);
          };
          spec.map = [&, s](int64_t, const Split& split, const auto& emit) {
            const auto [task, v] = split;
            const int64_t root_global = tasks[static_cast<size_t>(s)] + task;
            std::vector<Coefficient> local;
            if (s == 0) {
              // Rebuild the rows of this slice and select within.
              const int64_t leaves = 2 * fan;
              mhs::SelectOverData(data.data() + task * leaves, leaves,
                                  root_global, eps, q, v, &local);
            } else {
              const mhs::RowHeap heap = mhs::BuildRowHeap(
                  stage_inputs[static_cast<size_t>(s)]
                              [static_cast<size_t>(task)]);
              mhs::SelectInHeap(heap, root_global, q, 1, v, &local,
                                [&](int64_t input, int64_t cv) {
                                  emit(task * fan + input,
                                       {static_cast<int64_t>(cv), 0.0});
                                });
            }
            for (const Coefficient& c : local) {
              emit(-1, {c.index, c.value});
            }
          };
          spec.reduce = [&](const int64_t& key,
                            std::vector<std::pair<int64_t, double>>& values,
                            std::vector<int64_t>*) {
            if (key == -1) {
              for (const auto& [index, value] : values) {
                // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
                coeffs.push_back({index, value});
              }
            } else {
              DWM_CHECK_EQ(values.size(), 1u);
              // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
              next_assignments[key] = values[0].first;
            }
          };
          std::vector<int64_t> unused;
          const Status status = chain.RunJob(spec, splits, &unused);
          PublishLevelShuffle(sweep.report.jobs.back());
          return status;
        },
        nullptr, &coeffs, &next_assignments);
    if (!chain.ok()) {
      out.status = chain.status();
      out.report = sweep.TakeReport();
      return out;
    }
    assignments = std::move(next_assignments);
  }

  out.report = sweep.TakeReport();
  out.result.feasible = true;
  out.result.count = probe.result.count;
  out.result.max_abs_error = probe.result.max_abs_error;
  out.result.synopsis = Synopsis(n, std::move(coeffs));
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
  DmhsResult out;
  out.report = std::move(probe.report);
  out.status = probe.status;
  if (probe.sweep == nullptr) return out;
  DmhsResult down = MaterializeDMinHaarSpace(probe);
  out.report.Append(down.report);
  out.status = down.status;
  out.result = std::move(down.result);
  return out;
}

}  // namespace dwm
