// The paper's Algorithm 1 (Section 4): one driver for a bottom-up DP over
// the error tree, cut into layers of sub-trees. Layer s has tasks[s] of
// them (sub-tree i is rooted at global node tasks[s] + i); layer 0 reads
// the data in slices of n / tasks[0] leaves, each later layer the root
// records of the one below. One up job per layer ships each root record to
// its consumer in the next layer, or to the driver, whose top step decides
// what the nodes above keep. One down job per layer, top first, re-enters
// each assigned sub-tree with its incoming value and ships the
// coefficients it keeps plus each child's incoming value. Probe and
// Materialize are separate calls: DIndirectHaar materializes only its
// search's winner.
//
// A policy supplies the DP: `Record` (with a Serde), LeafRecord over a
// slice, Top over the last layer's records (feasibility, plus pick/assign
// calls for what the driver keeps and which last-layer tasks to re-enter)
// and SelectLeaf into the layer-0 sub-tree at global node `root`. A
// LayeredTreeDpPolicy also supplies UpperRecord over a task's inputs,
// RecordBytes (a record's wire size) and SelectUpper, whose assign(input,
// v') names a child by input position.
#ifndef DWMAXERR_DIST_PARTITIONED_TREE_DP_H_
#define DWMAXERR_DIST_PARTITIONED_TREE_DP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "dist/dist_common.h"
#include "mr/cluster.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/synopsis.h"

namespace dwm {

// pick(node, value, units) and assign(input or task, incoming value).
using PickFn = std::function<void(int64_t, double, int64_t)>;
using AssignFn = std::function<void(int64_t, int64_t)>;

// A policy whose records also combine above layer 0.
template <typename Policy>
concept LayeredTreeDpPolicy =
    requires(const Policy& policy,
             const std::vector<typename Policy::Record>& inputs) {
      policy.UpperRecord(inputs);
    };

template <typename Policy>
class PartitionedTreeDp {
 public:
  using Record = typename Policy::Record;

  // Jobs are named "<name>_up_<s>" and "<name>_down_<s>", and the chain
  // "<name>" checkpoints over `fingerprint`. `data` must outlive the
  // driver; the driver keeps its own copy of `cluster`.
  PartitionedTreeDp(const std::string& name, const std::vector<double>& data,
                    std::vector<int64_t> tasks, Policy policy,
                    const mr::ClusterConfig& cluster, uint64_t fingerprint)
      : name_(name),
        data_(data),
        tasks_(std::move(tasks)),
        leaves_(static_cast<int64_t>(data.size()) / tasks_.at(0)),
        policy_(std::move(policy)),
        cluster_(cluster),
        chain_(name, cluster_, &report_, fingerprint),
        inputs_(tasks_.size() + 1) {
    DWM_CHECK(LayeredTreeDpPolicy<Policy> || tasks_.size() == 1);
  }
  // The chain points at cluster_ and report_.
  PartitionedTreeDp(const PartitionedTreeDp&) = delete;
  PartitionedTreeDp& operator=(const PartitionedTreeDp&) = delete;

  // Runs the up stages, then the top step (the "choose_c0" driver span).
  // False when a stage failed (status() names the job) or the top step
  // found no feasible choice.
  bool Probe() {
    for (int s = 0; s < Layers(); ++s) {
      std::vector<std::vector<Record>>& produced = inputs_[Index(s + 1)];
      chain_.RunStage(
          "up_" + std::to_string(s), [&] { return RunUpJob(s); },
          [&] { return produced.size() == Index(Consumers(s)); }, &produced);
      if (!chain_.ok()) return false;
    }
    Stopwatch driver_clock;
    const bool feasible = policy_.Top(
        inputs_.back().front(),
        [&](int64_t node, double value, int64_t units) {
          kept_.push_back({node, value});
          units_.push_back(units);
        },
        [&](int64_t task, int64_t v) { assignments_.emplace(task, v); });
    report_.AddDriverSpan("choose_c0", driver_clock.ElapsedSeconds());
    return feasible;
  }

  // Runs the down stages from the top step's assignments, one job per
  // layer that has any. Call at most once, after a feasible Probe. False
  // when a stage failed.
  bool Materialize() {
    std::map<int64_t, int64_t> assignments = std::move(assignments_);
    for (int s = Layers() - 1; s >= 0 && !assignments.empty(); --s) {
      std::map<int64_t, int64_t> next;
      chain_.RunStage(
          "down_" + std::to_string(s),
          [&] { return RunDownJob(s, assignments, &next); }, nullptr,
          &kept_, &units_, &next);
      if (!chain_.ok()) return false;
      assignments = std::move(next);
    }
    return true;
  }

  const Status& status() const { return chain_.status(); }
  const std::vector<double>& data() const { return data_; }
  Policy& policy() { return policy_; }
  // Every coefficient kept, the top step's first, then each down stage's in
  // job output order, and the units allotted to each (1 for a coefficient
  // kept outright; DMinMaxVar's retention probability in units of 1/q).
  const std::vector<Coefficient>& kept() const { return kept_; }
  const std::vector<int64_t>& units() const { return units_; }
  // Hands over the jobs and driver spans recorded since the last call.
  mr::SimReport TakeReport() { return std::exchange(report_, {}); }

 private:
  // What a layer-s job's closures read: the driver, through a const
  // pointer (so every member they reach is const), and the fan-in between
  // the layer and its consumers.
  struct LayerCtx {
    const PartitionedTreeDp* dp = nullptr;
    int s = 0;
    int64_t fan = 0;
  };

  int Layers() const { return static_cast<int>(tasks_.size()); }
  static size_t Index(int64_t i) { return static_cast<size_t>(i); }
  // Tasks of layer s + 1 (1, the driver, above the last layer).
  int64_t Consumers(int s) const {
    return s + 1 < Layers() ? tasks_[Index(s + 1)] : 1;
  }
  int UpReducers(int s) const {
    return static_cast<int>(
        std::min<int64_t>(Consumers(s), cluster_.reduce_slots));
  }

  // What a layer-s task reads: its slice at layer 0, its input records
  // above.
  double TaskBytes(int s, int64_t task) const {
    if (s == 0) return static_cast<double>(leaves_) * sizeof(double);
    double bytes = 0.0;
    if constexpr (LayeredTreeDpPolicy<Policy>) {
      for (const Record& input : inputs_[Index(s)][Index(task)]) {
        bytes += policy_.RecordBytes(input);
      }
    }
    return bytes;
  }

  Record TaskRecord(int s, int64_t task) const {
    if constexpr (LayeredTreeDpPolicy<Policy>) {
      if (s > 0) return policy_.UpperRecord(inputs_[Index(s)][Index(task)]);
    }
    return policy_.LeafRecord(data_.data() + task * leaves_, leaves_);
  }

  // Emitted key: the consuming task of layer s + 1 (0 = the driver); value:
  // (position among its inputs, record). The driver places each record by
  // its key and position, so the fold does not depend on reducer order.
  Status RunUpJob(int s) {
    using Placed = std::pair<int64_t, Record>;
    const int64_t fan = tasks_[Index(s)] / Consumers(s);
    mr::JobSpec<LayerCtx, int64_t, int64_t, Placed,
                std::pair<int64_t, Placed>>
        spec;
    spec.name = name_ + "_up_" + std::to_string(s);
    spec.num_reducers = UpReducers(s);
    spec.partition = [](const LayerCtx& ctx, const int64_t& key) {
      return static_cast<int>(key % ctx.dp->UpReducers(ctx.s));
    };
    spec.split_bytes = [](const LayerCtx& ctx, const int64_t& task) {
      return ctx.dp->TaskBytes(ctx.s, task);
    };
    spec.map = [](const LayerCtx& ctx, int64_t, const int64_t& task,
                  const auto& emit) {
      emit(task / ctx.fan, {task % ctx.fan, ctx.dp->TaskRecord(ctx.s, task)});
    };
    spec.reduce = dist_internal::ForwardPairs;
    std::vector<int64_t> splits(Index(tasks_[Index(s)]));
    std::iota(splits.begin(), splits.end(), 0);
    std::vector<std::pair<int64_t, Placed>> rows;
    DWM_RETURN_NOT_OK(
        chain_.RunJob(spec, LayerCtx{this, s, fan}, splits, &rows));
    std::vector<std::vector<Record>>& produced = inputs_[Index(s + 1)];
    produced.assign(Index(Consumers(s)), std::vector<Record>(Index(fan)));
    for (auto& [key, placed] : rows) {
      produced[Index(key)][Index(placed.first)] = std::move(placed.second);
    }
    return Status::OK();
  }

  // Keys: -units carries a pick, value (node, coefficient); otherwise the
  // key is a layer s - 1 task and the value (its incoming value, 0).
  Status RunDownJob(int s, const std::map<int64_t, int64_t>& assignments,
                    std::map<int64_t, int64_t>* next) {
    using Split = std::pair<int64_t, int64_t>;  // (task, incoming value)
    using Selected = std::pair<int64_t, double>;
    const int64_t fan = s > 0 ? tasks_[Index(s - 1)] / tasks_[Index(s)] : 0;
    mr::JobSpec<LayerCtx, Split, int64_t, Selected,
                std::pair<int64_t, Selected>>
        spec;
    spec.name = name_ + "_down_" + std::to_string(s);
    spec.num_reducers = 1;
    spec.split_bytes = [](const LayerCtx& ctx, const Split& split) {
      return ctx.dp->TaskBytes(ctx.s, split.first);
    };
    spec.map = [](const LayerCtx& ctx, int64_t, const Split& split,
                  const auto& emit) {
      const PartitionedTreeDp& dp = *ctx.dp;
      const auto [task, v] = split;
      const int64_t root = dp.tasks_[Index(ctx.s)] + task;
      const PickFn pick = [&](int64_t node, double value, int64_t units) {
        emit(-units, {node, value});
      };
      if (ctx.s == 0) {
        dp.policy_.SelectLeaf(dp.data_.data() + task * dp.leaves_, dp.leaves_,
                              root, v, pick);
      } else if constexpr (LayeredTreeDpPolicy<Policy>) {
        dp.policy_.SelectUpper(dp.inputs_[Index(ctx.s)][Index(task)], root, v,
                               pick, [&](int64_t input, int64_t child_v) {
                                 emit(task * ctx.fan + input, {child_v, 0.0});
                               });
      }
    };
    spec.reduce = dist_internal::ForwardPairs;
    const std::vector<Split> splits(assignments.begin(), assignments.end());
    std::vector<std::pair<int64_t, Selected>> selected;
    DWM_RETURN_NOT_OK(
        chain_.RunJob(spec, LayerCtx{this, s, fan}, splits, &selected));
    for (const auto& [key, value] : selected) {
      if (key < 0) {
        kept_.push_back({value.first, value.second});
        units_.push_back(-key);
      } else {
        const bool fresh = next->emplace(key, value.first).second;
        DWM_CHECK(fresh);  // one incoming value per child task
      }
    }
    return Status::OK();
  }

  const std::string name_;
  const std::vector<double>& data_;
  const std::vector<int64_t> tasks_;
  const int64_t leaves_;  // data leaves per layer-0 task
  Policy policy_;
  const mr::ClusterConfig cluster_;
  mr::SimReport report_;
  mr::JobChain chain_;
  // inputs_[s][task]: the records layer s's task consumes (s >= 1; layer
  // 0 reads the data). inputs_[layers][0] holds the last layer's records,
  // which the top step reads. The down sweep re-enters them.
  std::vector<std::vector<std::vector<Record>>> inputs_;
  std::vector<Coefficient> kept_;
  std::vector<int64_t> units_;
  // From the top step: last-layer task -> incoming value.
  std::map<int64_t, int64_t> assignments_;
};

}  // namespace dwm

#endif  // DWMAXERR_DIST_PARTITIONED_TREE_DP_H_
