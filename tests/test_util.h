// Shared helpers for the test suite.
#ifndef DWMAXERR_TESTS_TEST_UTIL_H_
#define DWMAXERR_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
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

// Byte image of a legacy DWMSYN01 synopsis file, the format dwm_cli wrote
// before it wrote serve frames: the 64-bit magic 0x44574d53594e3031, the
// int64 domain, the uint64 count, then (int64 index, double value) pairs.
inline std::vector<uint8_t> LegacySynopsisBytes(const Synopsis& synopsis) {
  std::vector<uint8_t> bytes;
  const uint64_t magic = 0x44574d53594e3031ULL;
  const int64_t domain = synopsis.domain_size();
  const uint64_t count = synopsis.coefficients().size();
  AppendRaw(&bytes, &magic, sizeof(magic));
  AppendRaw(&bytes, &domain, sizeof(domain));
  AppendRaw(&bytes, &count, sizeof(count));
  for (const Coefficient& c : synopsis.coefficients()) {
    AppendRaw(&bytes, &c.index, sizeof(c.index));
    AppendRaw(&bytes, &c.value, sizeof(c.value));
  }
  return bytes;
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

}  // namespace dwm::testing

#endif  // DWMAXERR_TESTS_TEST_UTIL_H_
