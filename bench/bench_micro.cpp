// google-benchmark microbenchmarks for the core kernels: the Haar
// transform, reconstruction queries, the greedy discard loops, the
// MinHaarSpace DP primitives, the envelope operations behind GreedyRel,
// and the MR engine's threaded executor (DGreedyAbs end to end per
// worker-thread count).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/conventional.h"
#include "core/envelope.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "core/min_haar_space.h"
#include "data/generators.h"
#include "dist/dgreedy.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/trace.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace {

std::vector<double> Data(int64_t n) { return dwm::MakeUniform(n, 1000.0, 1); }

void BM_ForwardHaar(benchmark::State& state) {
  const auto data = Data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::ForwardHaar(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForwardHaar)->Range(1 << 10, 1 << 20);

void BM_InverseHaar(benchmark::State& state) {
  const auto coeffs = dwm::ForwardHaar(Data(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::InverseHaar(coeffs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InverseHaar)->Range(1 << 10, 1 << 20);

void BM_ConventionalThreshold(benchmark::State& state) {
  const auto coeffs = dwm::ForwardHaar(Data(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dwm::ConventionalFromCoeffs(coeffs, state.range(0) / 8));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConventionalThreshold)->Range(1 << 10, 1 << 20);

void BM_GreedyAbs(benchmark::State& state) {
  const auto data = Data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::GreedyAbs(data, state.range(0) / 8));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyAbs)->Range(1 << 10, 1 << 16);

void BM_GreedyRel(benchmark::State& state) {
  const auto data = Data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::GreedyRel(data, state.range(0) / 8, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyRel)->Range(1 << 10, 1 << 14);

// The bottom-up combine kernel in isolation (pair rows precomputed): what
// bench_kernels gates as kernels/mhs-combine.
void BM_MhsBuildRowHeap(benchmark::State& state) {
  const auto data = Data(state.range(0));
  std::vector<dwm::mhs::Row> pairs(static_cast<size_t>(state.range(0) / 2));
  for (int64_t u = 0; u < state.range(0) / 2; ++u) {
    pairs[static_cast<size_t>(u)] =
        dwm::mhs::PairRow(data[static_cast<size_t>(2 * u)],
                          data[static_cast<size_t>(2 * u + 1)], 50.0, 5.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::mhs::BuildRowHeap(pairs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MhsBuildRowHeap)->Range(1 << 10, 1 << 16);

// The greedy discard loop in isolation (transform precomputed): what
// bench_kernels gates as kernels/greedy-run. One iteration builds a tree
// over uniform (nyct:0) or NYCT-like (nyct:1) data and discards every
// coefficient, so items/s is discards per second. 2^16 is a DGreedyAbs
// sub-tree run of build_dgreedy, 2^21 the serve workloads' set-up.
void BM_GreedyAbsTreeRun(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto coeffs = dwm::ForwardHaar(
      state.range(1) != 0 ? dwm::MakeNyctLike(n, 1) : Data(n));
  for (auto _ : state) {
    dwm::GreedyAbsTree tree(coeffs, /*has_average=*/true,
                            /*initial_error=*/0.0);
    double last_error = 0.0;
    tree.Run([&](const dwm::HeapDiscardEvent& e) { last_error = e.error; });
    benchmark::DoNotOptimize(last_error);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GreedyAbsTreeRun)
    ->ArgNames({"n", "nyct"})
    ->ArgsProduct({{1 << 10, 1 << 16, 1 << 19, 1 << 21}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_MinHaarSpace(benchmark::State& state) {
  const auto data = Data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::MinHaarSpace(data, {50.0, 5.0}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MinHaarSpace)->Range(1 << 10, 1 << 16);

void BM_PointEstimate(benchmark::State& state) {
  const int64_t n = 1 << 20;
  const dwm::Synopsis synopsis =
      dwm::ConventionalSynopsis(Data(n), n / 64);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synopsis.PointEstimate(i));
    i = (i + 997) & (n - 1);
  }
}
BENCHMARK(BM_PointEstimate);

void BM_RangeSum(benchmark::State& state) {
  const int64_t n = 1 << 20;
  const dwm::Synopsis synopsis =
      dwm::ConventionalSynopsis(Data(n), n / 64);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synopsis.RangeSum(i, i + (n >> 2)));
    i = (i + 997) & ((n >> 1) - 1);
  }
}
BENCHMARK(BM_RangeSum);

// The threaded MR executor end to end: a large-N DGreedyAbs run at an
// explicit worker-thread count. Real time is the metric (the whole point
// is wall-clock speedup); results are byte-identical across thread counts,
// so any Arg(t) spends the same total compute.
void BM_DGreedyAbsThreads(benchmark::State& state) {
  const auto data = Data(1 << 18);
  dwm::mr::ClusterConfig cluster;
  cluster.worker_threads = static_cast<int>(state.range(0));
  dwm::DGreedyOptions options;
  options.budget = 1 << 10;
  options.base_leaves = 1 << 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::DGreedyAbs(data, options, cluster));
  }
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << 18));
}
BENCHMARK(BM_DGreedyAbsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Recovery overhead: DGreedyAbs under deterministic fault injection, with
// the per-attempt failure probability (in percent) swept over the range.
// Failed map attempts genuinely re-execute, so the wall-clock cost of the
// attempt loop shows up here; 0% is the fault-free baseline.
void BM_DGreedyAbsFaults(benchmark::State& state) {
  const auto data = Data(1 << 16);
  const double fail_rate = static_cast<double>(state.range(0)) / 100.0;
  dwm::mr::ClusterConfig cluster;
  if (fail_rate > 0.0) {
    dwm::mr::FaultSpec spec;
    spec.map_failure_rate = fail_rate;
    spec.reduce_failure_rate = fail_rate;
    spec.straggler_rate = fail_rate;
    spec.straggler_slowdown = 4.0;
    cluster.faults = dwm::mr::FaultPlan(/*seed=*/1, spec);
  } else {
    cluster.faults = dwm::mr::FaultPlan::Disabled();
  }
  dwm::DGreedyOptions options;
  options.budget = 1 << 9;
  options.base_leaves = 1 << 10;
  for (auto _ : state) {
    dwm::DGreedyResult result = dwm::DGreedyAbs(data, options, cluster);
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << 16));
}
BENCHMARK(BM_DGreedyAbsFaults)
    ->Arg(0)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Trace construction + Chrome export over a real multi-job report. Tracing
// is on-demand (the engine records nothing extra), so this is the entire
// cost of --trace/DWM_TRACE — and the cost when disabled is zero.
void BM_BuildChromeTrace(benchmark::State& state) {
  const auto data = Data(1 << 16);
  dwm::mr::ClusterConfig cluster;
  dwm::DGreedyOptions options;
  options.budget = 1 << 9;
  options.base_leaves = 1 << 10;
  const dwm::DGreedyResult result = dwm::DGreedyAbs(data, options, cluster);
  for (auto _ : state) {
    const dwm::mr::Trace trace = dwm::mr::BuildTrace(result.report, cluster);
    benchmark::DoNotOptimize(dwm::mr::ChromeTraceJson(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.report.jobs.size()));
}
BENCHMARK(BM_BuildChromeTrace)->Unit(benchmark::kMicrosecond);

void BM_EnvelopeMerge(benchmark::State& state) {
  dwm::Rng rng(3);
  std::vector<dwm::Line> la, lb;
  for (int i = 0; i < state.range(0); ++i) {
    la.push_back({rng.NextDouble() * 2 - 1, rng.NextDouble() * 8 - 4});
    lb.push_back({rng.NextDouble() * 2 - 1, rng.NextDouble() * 8 - 4});
  }
  const auto ea = dwm::UpperEnvelope::FromLines(la);
  const auto eb = dwm::UpperEnvelope::FromLines(lb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwm::UpperEnvelope::Merge(ea, 0.5, eb, -0.5));
  }
}
BENCHMARK(BM_EnvelopeMerge)->Range(16, 4096);

}  // namespace
