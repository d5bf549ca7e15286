// Kernel micro suite: raw single-node timings of the hot kernels the
// distributed cost model charges per task — the Haar transform (forward and
// inverse), the MinHaarSpace bottom-up combine (arena BuildRowHeap) and its
// slice kernels (the ComputeRowOverData fold and the SelectOverData
// re-entry), the GreedyAbs discard loop, and the synopsis point query (the
// serving hot path). Each kernel reports one BenchReporter label
// (kernels/haar-forward, kernels/haar-inverse, kernels/mhs-combine,
// kernels/mhs-slice-row, kernels/mhs-slice-select, kernels/greedy-run,
// kernels/synopsis-point); kernels with a scalar/naive reference also time
// it under a -ref suffix, so a recorded baseline shows the
// optimized-vs-reference speedup next to byte-identical deterministic
// checksums (the metrics snapshot is a pure function of the input, so
// tools/bench_compare.py compares it exactly while the measured makespans
// get the usual ratio tolerance).
//
// CI runs this binary under DWM_SCALE=-7 DWM_BENCH_SUITE=micro next to the
// fig5c/5d harnesses, folding the kernel labels into the same
// BENCH_micro.json regression gate (see EXPERIMENTS.md for the baseline
// refresh recipe).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/greedy_abs.h"
#include "core/min_haar_space.h"
#include "data/generators.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace {

// Fastest observed run, repeating until ~50 ms of total measurement (at
// least 3 runs): min-of-reps is stable enough at DWM_SCALE=-7 sizes for the
// CI self-diff's makespan ratio gate.
template <typename Fn>
double MinSeconds(Fn&& fn) {
  double best = 1e300;
  double total = 0.0;
  for (int reps = 0; reps < 3 || (total < 0.05 && reps < 10000); ++reps) {
    const double s = dwm::bench::WallSeconds(fn);
    best = std::min(best, s);
    total += s;
  }
  return best;
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

// Naive point query: one lower_bound over the whole coefficient array per
// path node, bottom-up (the pre-index implementation), the reference the
// synopsis-point kernel is paired against.
double PointEstimateReference(const dwm::Synopsis& synopsis, int64_t leaf) {
  const std::vector<dwm::Coefficient>& cs = synopsis.coefficients();
  double value = 0.0;
  dwm::ForEachPathNode(synopsis.domain_size(), leaf, [&](int64_t node) {
    const auto it = std::lower_bound(
        cs.begin(), cs.end(), node,
        [](const dwm::Coefficient& a, int64_t idx) { return a.index < idx; });
    const double c = it != cs.end() && it->index == node ? it->value : 0.0;
    if (c != 0.0) {
      value += dwm::LeafSign(synopsis.domain_size(), node, leaf) * c;
    }
  });
  return value;
}

}  // namespace

int main() {
  dwm::bench::PrintHeader(
      "bench_kernels",
      "kernel micro suite (Haar forward/inverse, MinHaarSpace combine and "
      "slice kernels, GreedyAbs discard loop)",
      "optimized kernels match their scalar references bit for bit; "
      "timings feed the BENCH_micro regression gate");
  dwm::bench::BenchReporter reporter("kernels");

  const int64_t n_haar = std::max<int64_t>(8, dwm::bench::ScaledN(20));
  const int64_t n_dp = std::max<int64_t>(8, dwm::bench::ScaledN(16));
  const double eps = 50.0;
  const double quantum = 5.0;
  const auto data_haar = dwm::MakeUniform(n_haar, 1000.0, /*seed=*/1);
  const auto data_dp = dwm::MakeUniform(n_dp, 1000.0, /*seed=*/1);
  const auto coeffs_haar = dwm::ForwardHaar(data_haar);
  const auto coeffs_dp = dwm::ForwardHaar(data_dp);

  const auto report = [&](const char* label, int64_t n, double run_eps,
                          double seconds,
                          std::vector<std::pair<std::string, double>> metrics) {
    dwm::bench::BenchRun run;
    run.label = std::string("kernels/") + label;
    run.dataset = "uniform";
    run.n = n;
    run.eps = run_eps;
    run.makespan_seconds = seconds;
    run.metrics = std::move(metrics);
    reporter.Report(run);
    std::printf("%-26s n=%-9lld %12.6f s\n", label, static_cast<long long>(n),
                seconds);
  };

  // Haar forward: optimized (fused SIMD passes) vs the scalar reference.
  // The checksum is the plain left-to-right coefficient sum — byte-identical
  // outputs make the optimized and -ref values match exactly.
  {
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      checksum = Sum(dwm::ForwardHaar(data_haar));
    });
    report("haar-forward", n_haar, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      ref_checksum = Sum(dwm::ForwardHaarScalar(data_haar));
    });
    report("haar-forward-ref", n_haar, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "forward checksum == scalar reference");
  }

  // Haar inverse, same pairing.
  {
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      checksum = Sum(dwm::InverseHaar(coeffs_haar));
    });
    report("haar-inverse", n_haar, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      ref_checksum = Sum(dwm::InverseHaarScalar(coeffs_haar));
    });
    report("haar-inverse-ref", n_haar, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "inverse checksum == scalar reference");
  }

  // MinHaarSpace combine: pair rows for the whole domain, then the full
  // bottom-up arena build vs folding CombineRowsReference level by level.
  {
    std::vector<dwm::mhs::Row> pairs(static_cast<size_t>(n_dp / 2));
    for (int64_t u = 0; u < n_dp / 2; ++u) {
      pairs[static_cast<size_t>(u)] =
          dwm::mhs::PairRow(data_dp[static_cast<size_t>(2 * u)],
                            data_dp[static_cast<size_t>(2 * u + 1)], eps,
                            quantum);
    }
    const auto row_metrics = [](const dwm::mhs::Row& root) {
      int64_t min_count = dwm::mhs::Cell::kInfCount;
      for (const dwm::mhs::Cell& cell : root.cells) {
        min_count = std::min<int64_t>(min_count, cell.count);
      }
      return std::vector<std::pair<std::string, double>>{
          {"root_lo", static_cast<double>(root.lo)},
          {"root_cells", static_cast<double>(root.cells.size())},
          {"root_min_count", static_cast<double>(min_count)}};
    };
    dwm::mhs::Row root;
    const double sec = MinSeconds([&] {
      root = dwm::mhs::BuildRowHeap(pairs).CopyRow(1);
    });
    report("mhs-combine", n_dp, eps, sec, row_metrics(root));
    dwm::mhs::Row ref_root;
    const double ref_sec = MinSeconds([&] {
      std::vector<dwm::mhs::Row> level = pairs;
      while (level.size() > 1) {
        std::vector<dwm::mhs::Row> next(level.size() / 2);
        for (size_t i = 0; i < next.size(); ++i) {
          next[i] =
              dwm::mhs::CombineRowsReference(level[2 * i], level[2 * i + 1]);
        }
        level = std::move(next);
      }
      ref_root = std::move(level[0]);
    });
    report("mhs-combine-ref", n_dp, eps, ref_sec, row_metrics(ref_root));
    dwm::bench::PrintShapeCheck(
        root.lo == ref_root.lo && root.cells.size() == ref_root.cells.size(),
        "arena root row == reference root row");

    // The slice kernels a DMHS stage-0 task runs over its leaves: the
    // bottom-up fold to the root row, and the top-down re-entry from the
    // root's chosen incoming value (c_0 via ChooseAverage, as the
    // centralized driver picks it).
    dwm::mhs::Row slice_root;
    const double row_sec = MinSeconds([&] {
      slice_root = dwm::mhs::ComputeRowOverData(data_dp.data(), n_dp, eps,
                                                quantum);
    });
    report("mhs-slice-row", n_dp, eps, row_sec, row_metrics(slice_root));
    dwm::bench::PrintShapeCheck(row_metrics(slice_root) == row_metrics(root),
                                "slice-fold root metrics == mhs-combine's");
    const dwm::mhs::Choice c0 = dwm::mhs::ChooseAverage(slice_root);
    std::vector<dwm::Coefficient> selected;
    const double select_sec = MinSeconds([&] {
      selected.clear();
      dwm::mhs::SelectOverData(data_dp.data(), n_dp, /*root_global=*/1, eps,
                               quantum, c0.z_grid, &selected);
    });
    double value_sum = 0.0;
    for (const dwm::Coefficient& c : selected) value_sum += c.value;
    report("mhs-slice-select", n_dp, eps, select_sec,
           {{"incoming", static_cast<double>(c0.z_grid)},
            {"retained", static_cast<double>(selected.size())},
            {"value_sum", value_sum}});
    dwm::bench::PrintShapeCheck(
        c0.cell.feasible() &&
            static_cast<int64_t>(selected.size()) + (c0.z_grid != 0) ==
                c0.cell.count,
        "slice re-entry retains the chosen cell's count");
  }

  // GreedyAbs discard loop over the full error tree (the Run() kernel the
  // centralized and distributed algorithms share).
  {
    dwm::HeapDiscardEvent first{};
    dwm::HeapDiscardEvent last{};
    const double sec = MinSeconds([&] {
      dwm::GreedyAbsTree tree(coeffs_dp, /*has_average=*/true,
                              /*initial_error=*/0.0);
      const auto events = tree.Run();
      first = events.front();
      last = events.back();
    });
    report("greedy-run", n_dp, 0.0, sec,
           {{"first_slot", static_cast<double>(first.slot)},
            {"last_error", last.error}});
  }

  // Synopsis point query (the serving hot path): merged-walk PointEstimate
  // over every leaf vs the per-path-node lower_bound reference. The
  // checksum is the left-to-right sum of all point estimates; the two must
  // match bit for bit.
  {
    const dwm::Synopsis synopsis =
        dwm::GreedyAbs(data_dp, /*budget=*/std::max<int64_t>(n_dp / 32, 1))
            .synopsis;
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      double sum = 0.0;
      for (int64_t j = 0; j < n_dp; ++j) sum += synopsis.PointEstimate(j);
      checksum = sum;
    });
    report("synopsis-point", n_dp, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      double sum = 0.0;
      for (int64_t j = 0; j < n_dp; ++j) {
        sum += PointEstimateReference(synopsis, j);
      }
      ref_checksum = sum;
    });
    report("synopsis-point-ref", n_dp, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "point checksum == lower_bound reference");
  }
  return 0;
}
