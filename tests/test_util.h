// Shared helpers for the test suite.
#ifndef DWMAXERR_TESTS_TEST_UTIL_H_
#define DWMAXERR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/greedy_abs.h"
#include "dist/dgreedy.h"
#include "wavelet/synopsis.h"

namespace dwm::testing {

// Random data in [0, scale) with occasional spikes, good at exposing
// max-error behavior.
inline std::vector<double> RandomData(int64_t n, uint64_t seed,
                                      double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  for (auto& v : data) {
    v = rng.NextDouble() * scale;
    if (rng.NextDouble() < 0.05) v *= 10.0;  // spike
  }
  return data;
}

// Piecewise-constant data (wavelet-friendly, many zero coefficients).
inline std::vector<double> PiecewiseData(int64_t n, uint64_t seed,
                                         double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  double level = rng.NextDouble() * scale;
  for (auto& v : data) {
    if (rng.NextDouble() < 0.1) level = rng.NextDouble() * scale;
    v = level;
  }
  return data;
}

// Appends `len` raw bytes to *bytes. Fixtures that pin an on-disk layout
// build their expected bytes with this, never through the codec under test.
inline void AppendRaw(std::vector<uint8_t>* bytes, const void* src,
                      size_t len) {
  const size_t old = bytes->size();
  bytes->resize(old + len);
  if (len != 0) std::memcpy(bytes->data() + old, src, len);
}

// A synopsis's Serde<Synopsis> bytes: two synopses are byte-identical iff
// these compare equal.
inline std::vector<uint8_t> SynopsisBytes(const Synopsis& synopsis) {
  ByteBuffer buffer;
  Serde<Synopsis>::Put(buffer, synopsis);
  return {buffer.data(), buffer.data() + buffer.size()};
}

// Writes `bytes` to `path`, replacing it; false on any failure.
inline bool WriteBytes(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

// Reads all of `path` (empty when it cannot be read).
inline std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Integer data in [lo, hi]: Haar coefficients of it (n <= 64) are short
// dyadic fractions, so every error sum over them is exact in double.
inline std::vector<double> IntegerData(int64_t n, uint64_t seed, int64_t lo,
                                       int64_t hi) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  for (auto& v : data) {
    v = static_cast<double>(
        lo + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(
                 hi - lo + 1))));
  }
  return data;
}

// Naive reference for the greedy discard loops (GreedyAbsTree with every
// weight 1, GreedyRelTree with w_j = max(|d_j|, S)): at each step every
// alive slot's key is recomputed from scratch as the largest |e_j| / w_j
// over the leaves below it after discarding it, where e_j is leaf j's
// signed error under the discards so far plus `initial_error`, and the
// (key, slot) minimum is discarded. Conventions as GreedyAbsTree's: heap
// order, slot 0 the average node when `has_average`, and a discard shifts
// the errors of its left leaves by -c and of its right leaves by +c.
inline std::vector<HeapDiscardEvent> NaiveGreedyDiscards(
    const std::vector<double>& coeffs, bool has_average, double initial_error,
    const std::vector<double>& weights) {
  const int64_t n = static_cast<int64_t>(coeffs.size());
  std::vector<double> err(static_cast<size_t>(n), initial_error);
  std::vector<char> alive(static_cast<size_t>(n), 1);
  if (!has_average) alive[0] = 0;
  // Leaves [lo, mid) lie left of `slot`, [mid, hi) right of it.
  auto span = [n](int64_t slot, int64_t* lo, int64_t* mid, int64_t* hi) {
    if (slot == 0) {
      *lo = 0;
      *mid = *hi = n;
      return;
    }
    int64_t level_start = 1;
    while (2 * level_start <= slot) level_start *= 2;
    const int64_t width = n / level_start;
    *lo = (slot - level_start) * width;
    *mid = *lo + width / 2;
    *hi = *lo + width;
  };
  auto shift = [&](int64_t slot, int64_t j) {
    int64_t lo, mid, hi;
    span(slot, &lo, &mid, &hi);
    const double c = coeffs[static_cast<size_t>(slot)];
    return j < mid ? -c : c;
  };
  std::vector<HeapDiscardEvent> events;
  for (;;) {
    double best_key = 0.0;
    int64_t best = -1;
    for (int64_t slot = 0; slot < n; ++slot) {
      if (!alive[static_cast<size_t>(slot)]) continue;
      int64_t lo, mid, hi;
      span(slot, &lo, &mid, &hi);
      double key = 0.0;
      for (int64_t j = lo; j < hi; ++j) {
        key = std::max(key, std::abs(err[static_cast<size_t>(j)] +
                                     shift(slot, j)) /
                                weights[static_cast<size_t>(j)]);
      }
      if (best < 0 || key < best_key) {
        best_key = key;
        best = slot;
      }
    }
    if (best < 0) return events;
    int64_t lo, mid, hi;
    span(best, &lo, &mid, &hi);
    for (int64_t j = lo; j < hi; ++j) {
      err[static_cast<size_t>(j)] += shift(best, j);
    }
    alive[static_cast<size_t>(best)] = 0;
    double error = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      error = std::max(error, std::abs(err[static_cast<size_t>(j)]) /
                                  weights[static_cast<size_t>(j)]);
    }
    events.push_back({best, error});
  }
}

// Every event of a greedy tree's run (GreedyAbsTree or GreedyRelTree), in
// discard order: the sink the naive-reference comparisons read.
template <class Tree>
std::vector<HeapDiscardEvent> AllDiscards(Tree&& tree) {
  std::vector<HeapDiscardEvent> events;
  tree.Run([&](const HeapDiscardEvent& e) { events.push_back(e); });
  return events;
}

// Reference prefix pick over every event of a full-tree run (the form
// BestGreedyPrefix had before it read only the run's tail): the smallest
// event error over the prefixes keeping m <= budget coefficients, ties to
// the smaller m, rebuilt by replaying the first n - m discards.
inline GreedyPrefix FullEventBestGreedyPrefix(
    const std::vector<double>& coeffs,
    const std::vector<HeapDiscardEvent>& events, int64_t budget) {
  const int64_t n = static_cast<int64_t>(coeffs.size());
  budget = std::clamp<int64_t>(budget, 0, n);
  GreedyPrefix best;
  best.error = std::numeric_limits<double>::infinity();
  int64_t best_m = 0;
  for (int64_t m = 0; m <= budget; ++m) {
    const double err =
        (m == n) ? 0.0 : events[static_cast<size_t>(n - m - 1)].error;
    if (err < best.error) {
      best.error = err;
      best_m = m;
    }
  }
  std::vector<char> discarded(static_cast<size_t>(n), 0);
  for (int64_t t = 0; t < n - best_m; ++t) {
    discarded[static_cast<size_t>(events[static_cast<size_t>(t)].slot)] = 1;
  }
  std::vector<Coefficient> retained;
  for (int64_t i = 0; i < n; ++i) {
    if (!discarded[static_cast<size_t>(i)] &&
        coeffs[static_cast<size_t>(i)] != 0.0) {
      retained.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  best.synopsis = Synopsis(n, std::move(retained));
  return best;
}

// Reference for dgreedy_internal::OnlineFrontier, batch over every event of
// a run (DGreedy's StateFrontier before it was built online): walk the
// stopping points from kept == 0 up, keeping each whose bucketed error is
// strictly below every earlier one's.
inline std::vector<dgreedy_internal::FrontierPoint> BatchStateFrontier(
    const std::vector<HeapDiscardEvent>& events, double baseline,
    double bucket_width) {
  const int64_t total = static_cast<int64_t>(events.size());
  std::vector<dgreedy_internal::FrontierPoint> frontier;
  double current = std::numeric_limits<double>::infinity();
  for (int64_t kept = 0; kept <= total; ++kept) {
    const double state_error =
        kept == total ? baseline
                      : events[static_cast<size_t>(total - kept - 1)].error;
    const double bucket = std::floor(state_error / bucket_width);
    const double bucketed = bucket * bucket_width;
    if (bucketed < current) {
      frontier.push_back({bucket, kept});
      current = bucketed;
    }
  }
  return frontier;
}

}  // namespace dwm::testing

#endif  // DWMAXERR_TESTS_TEST_UTIL_H_
