// Allocation guard for the MinHaarSpace slice kernels. A counting global
// operator new (this binary only) that also records the largest single
// request pins their working-set shape: SelectOverData allocates per
// slice, not per node, so its count does not grow with the slice length,
// and its largest block, the arena of the rows above the pairs, fits in
// the slice's pair-window cell total; ComputeRowOverData keeps one
// reusable row buffer per level, so its count grows only with log(len).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/bits.h"
#include "core/min_haar_space.h"
#include "data/generators.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// noinline: GCC 12 otherwise inlines gtest's `new TestClass` into the
// sized delete and reports -Wmismatched-new-delete on its std::free under
// the sanitizer presets.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dwm {
namespace {

constexpr double kEps = 50.0;
constexpr double kQuantum = 5.0;

// Allocations made while running fn, and the largest single request.
struct AllocStats {
  int64_t count = 0;
  std::size_t largest = 0;
};
template <typename Fn>
AllocStats MeasureAllocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
  fn();
  return {g_allocations.load(std::memory_order_relaxed) - before,
          g_largest.load(std::memory_order_relaxed)};
}

int64_t RowAllocations(int64_t len) {
  const auto data = MakeUniform(len, 1000.0, /*seed=*/2);
  mhs::Row root;
  const AllocStats stats = MeasureAllocations([&] {
    root = mhs::ComputeRowOverData(data.data(), len, kEps, kQuantum);
  });
  EXPECT_TRUE(root.feasible()) << "len=" << len;
  return stats.count;
}

AllocStats SelectAllocations(int64_t len) {
  const auto data = MakeUniform(len, 1000.0, /*seed=*/2);
  const mhs::Choice c0 = mhs::ChooseAverage(
      mhs::ComputeRowOverData(data.data(), len, kEps, kQuantum));
  EXPECT_TRUE(c0.cell.feasible()) << "len=" << len;
  std::vector<Coefficient> out;
  out.reserve(static_cast<size_t>(len));  // output growth is the caller's
  const AllocStats stats = MeasureAllocations([&] {
    mhs::SelectOverData(data.data(), len, /*root_global=*/1, kEps, kQuantum,
                        c0.z_grid, &out);
  });
  EXPECT_FALSE(out.empty()) << "len=" << len;
  return stats;
}

// Cells in the untrimmed pair windows of the uniform slice
// SelectAllocations runs on: the grid points within kEps of each pair's
// average.
int64_t PairWindowCells(int64_t len) {
  const auto data = MakeUniform(len, 1000.0, /*seed=*/2);
  int64_t total = 0;
  for (int64_t u = 0; u < len / 2; ++u) {
    const double avg = (data[static_cast<size_t>(2 * u)] +
                        data[static_cast<size_t>(2 * u + 1)]) /
                       2.0;
    const double lo = std::ceil((avg - kEps) / kQuantum - 1e-9);
    const double hi = std::floor((avg + kEps) / kQuantum + 1e-9);
    total += std::max<int64_t>(0, static_cast<int64_t>(hi - lo) + 1);
  }
  return total;
}

TEST(MhsAllocTest, SelectOverDataAllocationsDoNotGrowWithLen) {
  const int64_t small = SelectAllocations(int64_t{1} << 10).count;
  const int64_t large = SelectAllocations(int64_t{1} << 14).count;
  // Per-slice buffers only: the arena, its spans, the pair and combine
  // scratches and the walk's stack. Per-node rows would cost 2^13 allocations here.
  EXPECT_LE(large, small + 2) << "small=" << small;
  EXPECT_LE(large, 16);
}

TEST(MhsAllocTest, SelectOverDataLargestAllocationFitsPairWindows) {
  // The arena holds the rows above the pairs, which together hold at most
  // as many cells as the pair windows; pair rows are recomputed, never
  // stored. An arena that also kept the pair level would be about twice
  // this.
  constexpr int64_t len = int64_t{1} << 14;
  const std::size_t largest = SelectAllocations(len).largest;
  // Slack: the arena's 16-cell reserve headroom, with room to spare.
  constexpr std::size_t kSlackBytes = 64 * sizeof(mhs::Cell);
  const std::size_t pair_bytes =
      static_cast<std::size_t>(PairWindowCells(len)) * sizeof(mhs::Cell);
  EXPECT_LE(largest, pair_bytes + kSlackBytes)
      << "pair-window bytes=" << pair_bytes;
}

TEST(MhsAllocTest, ComputeRowOverDataAllocationsAreLogarithmic) {
  for (const int log_len : {10, 14}) {
    const int64_t count = RowAllocations(int64_t{1} << log_len);
    // One buffer per level plus a few geometric regrowths each; per-node
    // rows would cost thousands.
    EXPECT_LE(count, 2 * log_len) << "log_len=" << log_len;
  }
}

}  // namespace
}  // namespace dwm
