// Allocation guard for the MinHaarSpace slice kernels. A counting global
// operator new (this binary only) pins their working-set shape:
// SelectOverData allocates per slice, not per node, so its count does not
// grow with the slice length, and ComputeRowOverData keeps one reusable
// row buffer per level, so its count grows only with log(len).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/bits.h"
#include "core/min_haar_space.h"
#include "data/generators.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

// Allocations made while running fn.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

int64_t RowAllocations(int64_t len) {
  const auto data = MakeUniform(len, 1000.0, /*seed=*/2);
  mhs::Row root;
  const int64_t count = CountAllocations([&] {
    root = mhs::ComputeRowOverData(data.data(), len, kEps, kQuantum);
  });
  EXPECT_TRUE(root.feasible()) << "len=" << len;
  return count;
}

int64_t SelectAllocations(int64_t len) {
  const auto data = MakeUniform(len, 1000.0, /*seed=*/2);
  const mhs::Choice c0 = mhs::ChooseAverage(
      mhs::ComputeRowOverData(data.data(), len, kEps, kQuantum));
  EXPECT_TRUE(c0.cell.feasible()) << "len=" << len;
  std::vector<Coefficient> out;
  out.reserve(static_cast<size_t>(len));  // output growth is the caller's
  const int64_t count = CountAllocations([&] {
    mhs::SelectOverData(data.data(), len, /*root_global=*/1, kEps, kQuantum,
                        c0.z_grid, &out);
  });
  EXPECT_FALSE(out.empty()) << "len=" << len;
  return count;
}

TEST(MhsAllocTest, SelectOverDataAllocationsDoNotGrowWithLen) {
  const int64_t small = SelectAllocations(int64_t{1} << 10);
  const int64_t large = SelectAllocations(int64_t{1} << 14);
  // Per-slice buffers only: the arena, its spans, the combine scratch and
  // the walk's stack. Per-node rows would cost 2^13 allocations here.
  EXPECT_LE(large, small + 2) << "small=" << small;
  EXPECT_LE(large, 16);
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
