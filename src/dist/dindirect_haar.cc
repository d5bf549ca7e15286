#include "dist/dindirect_haar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/status.h"
#include "dist/dcon.h"
#include "dist/dist_common.h"
#include "dist/dmin_haar_space.h"
#include "dist/serde.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

// Audit post-conditions for a finished binary search: a converged run must
// fit the budget and report exactly the reconstruction error of the
// synopsis it returns (Problem 1's objective).
void AuditSearchResult(const std::vector<double>& data, int64_t budget,
                       const IndirectHaarResult& search) {
  if constexpr (audit::kEnabled) {
    if (!search.converged) return;
    DWM_AUDIT_CHECK(search.synopsis.size() <= budget);
    const double exact = MaxAbsError(data, search.synopsis);
    DWM_AUDIT_CHECK(std::abs(exact - search.max_abs_error) <= 1e-9);
  }
}

// Job computing e_l: every worker emits its largest local coefficient
// magnitudes (at most B+1 of them), the reducer keeps the B+1 largest of
// all of them, and the driver merges those with the root sub-tree
// coefficients built from the slice averages (Algorithm 2 line 2).
// What the lower-bound job reads.
struct LowerBoundCtx {
  const std::vector<double>& data;
  const TreePartition& partition;
  int64_t budget = 0;
};

Status LowerBoundJob(const std::vector<double>& data, int64_t budget,
                     const TreePartition& partition, mr::JobChain* chain,
                     double* e_l) {
  mr::JobSpec<LowerBoundCtx, int64_t, int64_t, double,
              std::pair<int64_t, double>>
      spec;
  spec.name = "dih_lower_bound";
  spec.num_reducers = 1;
  spec.split_bytes = TreePartition::SliceBytes;
  spec.map = [](const LowerBoundCtx& ctx, int64_t, const int64_t& t,
                const auto& emit) {
    const std::vector<double> local =
        ctx.partition.LocalTransform(ctx.data, t);
    emit(-(t + 1), local[0]);
    std::vector<double> mags(local.begin() + 1, local.end());
    for (double& m : mags) m = std::abs(m);
    const int64_t keep =
        std::min<int64_t>(ctx.budget + 1, static_cast<int64_t>(mags.size()));
    std::nth_element(mags.begin(), mags.begin() + (keep - 1), mags.end(),
                     std::greater<double>());
    for (int64_t i = 0; i < keep; ++i) emit(0, mags[static_cast<size_t>(i)]);
  };
  // Keeps the B+1 largest magnitudes, the only ones that can be e_l (an
  // average's key carries its one value through unchanged).
  spec.reduce = [](const LowerBoundCtx& ctx, const int64_t& key,
                   std::vector<double>& values,
                   std::vector<std::pair<int64_t, double>>* out) {
    const int64_t keep = std::min<int64_t>(
        ctx.budget + 1, static_cast<int64_t>(values.size()));
    std::nth_element(values.begin(), values.begin() + (keep - 1),
                     values.end(), std::greater<double>());
    values.resize(static_cast<size_t>(keep));
    for (const double v : values) out->emplace_back(key, v);
  };
  std::vector<std::pair<int64_t, double>> emitted;
  DWM_RETURN_NOT_OK(chain->RunJob(spec, LowerBoundCtx{data, partition, budget},
                                  partition.BaseSplits(), &emitted));

  std::vector<double> averages(static_cast<size_t>(partition.num_base), 0.0);
  std::vector<double> magnitudes;
  for (const auto& [key, value] : emitted) {
    if (key < 0) {
      averages[static_cast<size_t>(-key - 1)] = value;
    } else {
      magnitudes.push_back(value);
    }
  }
  for (double c : ForwardHaar(averages)) magnitudes.push_back(std::abs(c));
  *e_l = 0.0;
  if (budget < static_cast<int64_t>(magnitudes.size())) {
    std::nth_element(magnitudes.begin(), magnitudes.begin() + budget,
                     magnitudes.end(), std::greater<double>());
    *e_l = magnitudes[static_cast<size_t>(budget)];
  }
  return Status::OK();
}

// Job computing the exact max_abs of a broadcast synopsis: every worker
// reconstructs its aligned slice locally (Algorithm 2 line 1's bottom-up
// max_abs computation with the B-term synopsis in memory).
// What the max-abs job reads.
struct MaxAbsCtx {
  const std::vector<double>& data;
  const TreePartition& partition;
  const Synopsis& synopsis;
};

Status MaxAbsJob(const std::vector<double>& data, const Synopsis& synopsis,
                 const TreePartition& partition, mr::JobChain* chain,
                 const std::string& name, double* out_max) {
  mr::JobSpec<MaxAbsCtx, int64_t, int64_t, double, double> spec;
  spec.name = name;
  spec.num_reducers = 1;
  spec.split_bytes = TreePartition::SliceBytes;
  spec.map = [](const MaxAbsCtx& ctx, int64_t, const int64_t& t,
                const auto& emit) {
    const int64_t begin = ctx.partition.SliceBegin(t);
    const int64_t leaves = ctx.partition.base_leaves;
    const std::vector<double> rec =
        ctx.synopsis.ReconstructRange(begin, leaves);
    double local_max = 0.0;
    for (int64_t i = 0; i < leaves; ++i) {
      local_max = std::max(
          local_max, std::abs(rec[static_cast<size_t>(i)] -
                              ctx.data[static_cast<size_t>(begin + i)]));
    }
    emit(0, local_max);
  };
  spec.reduce = [](const MaxAbsCtx&, const int64_t&,
                   std::vector<double>& values, std::vector<double>* out) {
    out->push_back(*std::max_element(values.begin(), values.end()));
  };
  std::vector<double> maxima;
  DWM_RETURN_NOT_OK(chain->RunJob(spec, MaxAbsCtx{data, partition, synopsis},
                                  partition.BaseSplits(), &maxima));
  *out_max = 0.0;
  for (double v : maxima) *out_max = std::max(*out_max, v);
  return Status::OK();
}

}  // namespace

DIndirectHaarResult DIndirectHaar(const std::vector<double>& data,
                                  const DIndirectHaarOptions& options,
                                  const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, kDIndirectHaarMinValues);
  const TreePartition partition = MakeTreePartition(
      n, std::clamp<int64_t>(2 * options.subtree_inputs, 2, n / 2));

  DIndirectHaarResult out;
  // Sub-runs (CON and the DMHS probes) manage their own chains; scoping
  // their checkpoint files under "<scope>/dih/..." keeps them from
  // colliding with a standalone run of the same algorithm in the same
  // checkpoint directory.
  const std::string scope = cluster.checkpoint_scope.empty()
                                ? "dih"
                                : cluster.checkpoint_scope + "/dih";
  mr::JobChain chain(
      "dih", cluster, &out.report,
      mr::CheckpointFingerprint(
          data, {options.budget, std::bit_cast<int64_t>(options.quantum),
                 options.subtree_inputs}));

  // Line 1: e_u via the conventional synopsis (CON) plus an evaluation job.
  Synopsis con_synopsis;
  double e_u = 0.0;
  chain.RunStage(
      "upper_bound",
      [&]() -> Status {
        mr::ClusterConfig scoped = cluster;
        scoped.checkpoint_scope = scope;
        DistSynopsisResult con =
            RunCon(data, options.budget, partition.base_leaves, scoped);
        out.report.Append(con.report);
        DWM_RETURN_NOT_OK(con.status);
        con_synopsis = std::move(con.synopsis);
        return MaxAbsJob(data, con_synopsis, partition, &chain,
                         "dih_upper_bound", &e_u);
      },
      [&] { return con_synopsis.domain_size() == n; }, &con_synopsis, &e_u);
  // Line 2: e_l, the (B+1)-largest coefficient.
  double e_l = 0.0;
  chain.RunStage(
      "lower_bound",
      [&]() -> Status {
        return LowerBoundJob(data, options.budget, partition, &chain, &e_l);
      },
      nullptr, &e_l);
  if (!chain.ok()) {
    out.status = chain.status();
    return out;
  }

  if (e_u <= 1e-12) {
    out.search.converged = true;
    out.search.synopsis = con_synopsis;
    out.search.max_abs_error = e_u;
    AuditSearchResult(data, options.budget, out.search);
    PublishSynopsisQuality("dindirect_haar", out.search.synopsis,
                           out.search.max_abs_error);
    return out;
  }
  if (e_u <= options.quantum / 2.0) {
    out.search.upper_bound = e_u;
    return out;  // delta coarser than the search range (Section 6.2)
  }

  int probe_index = 0;
  Problem2Solver solver = [&](double eps) {
    // Once a probe job has died, later probes would die identically (fault
    // decisions are a pure function of job name/task/attempt); answer
    // "infeasible" without running so the search winds down cheaply.
    if (!out.status.ok()) return Problem2Probe{};
    const int probe = ++probe_index;
    // Each probe gets its own checkpoint namespace: probes reuse the dmhs_*
    // job names with different eps, so sharing files would make every probe
    // invalidate its predecessor's frames.
    mr::ClusterConfig probe_cluster = cluster;
    probe_cluster.checkpoint_scope = scope + "/probe" + std::to_string(probe);
    DmhsProbe run = ProbeDMinHaarSpace(
        data, {eps, options.quantum, options.subtree_inputs}, probe_cluster);
    // A zero-length marker span names the binary-search iteration, then the
    // probe's jobs and driver spans splice in at this point in the pipeline
    // (probe jobs reuse the dmhs_* names, so the marker is what tells
    // iterations apart in the trace).
    out.report.AddDriverSpan("dih_probe" + std::to_string(probe), 0.0);
    metrics::Default()
        .GetCounter("dwm_dih_probes_total",
                    "DMinHaarSpace feasibility probes issued by the "
                    "indirect binary search",
                    {{"algo", "dindirect_haar"}})
        ->Increment();
    out.report.Append(run.report);
    if (!run.status.ok()) {
      out.status = run.status;
      return Problem2Probe{};
    }
    if (run.sweep == nullptr) return Problem2Probe{};
    // The winner's down stages run after the search, in the probe's own
    // chain (same scope, same stage numbering); the marker names the probe
    // they belong to. After a later probe died the result is discarded
    // anyway, so nothing runs.
    return Problem2Probe{
        true, run.result.count, run.result.max_abs_error,
        [&out, probe, run = std::move(run)] {
          if (!out.status.ok()) return Synopsis{};
          out.report.AddDriverSpan(
              "dih_materialize_probe" + std::to_string(probe), 0.0);
          DmhsResult down = MaterializeDMinHaarSpace(run);
          out.report.Append(down.report);
          out.status = down.status;
          return std::move(down.result.synopsis);
        }};
  };
  out.search =
      IndirectHaarSearch(solver, std::min(e_l, e_u), e_u, options.budget,
                         options.quantum, options.max_iterations);
  if (!out.status.ok()) return out;  // a probe died; the search is unusable
  AuditSearchResult(data, options.budget, out.search);
  PublishSynopsisQuality("dindirect_haar", out.search.synopsis,
                         out.search.max_abs_error);
  return out;
}

}  // namespace dwm
