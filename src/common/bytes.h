// The repository's one binary codec. Every key/value that crosses the
// MapReduce map->reduce boundary is serialized through Serde<T>, so shuffle
// sizes reported by the engine are byte-accurate (this is what the paper's
// communication analysis, Eq. 6, is validated against). Checkpoint
// snapshots (mr/pipeline.h), serve frames (serve/format.h) and the raw
// doubles files (data/io.h) lay out their bodies with the same encodings;
// sealed files (common/sealed_file.h) only add the envelope.
//
// Layouts: scalars are their native bytes; a string is a u32
// length then its bytes; a vector or map is a u64 count then its elements
// (a map's keys strictly ascending); a pair is its two halves. Records that
// ship many small integers (DGreedy's frontiers, dist/serde.h) use unsigned
// LEB128 varints: seven value bits per byte, least significant group
// first, the high bit set on every byte but the last. A u64 takes 1-10
// bytes. The encoding is canonical: GetVarint rejects an overlong form (a
// final 0x00 byte after the first), a 10th byte above 0x01 (bits beyond
// 2^64, or an 11th byte) and truncation, so equal values have equal bytes.
#ifndef DWMAXERR_COMMON_BYTES_H_
#define DWMAXERR_COMMON_BYTES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dwm {

class ByteBuffer {
 public:
  void PutRaw(const void* src, size_t len) {
    if (len == 0) return;  // src may be an empty container's null data()
    const size_t old = data_.size();
    data_.resize(old + len);
    std::memcpy(data_.data() + old, src, len);
  }
  template <typename T>
  void PutScalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(&v, sizeof(T));
  }
  static constexpr size_t kMaxVarintBytes = 10;  // ceil(64 / 7)
  // Unsigned LEB128 (see the header note).
  void PutVarint(uint64_t v) {
    uint8_t bytes[kMaxVarintBytes];
    size_t len = 0;
    while (v >= 0x80) {
      bytes[len++] = static_cast<uint8_t>(v | 0x80);
      v >>= 7;
    }
    bytes[len++] = static_cast<uint8_t>(v);
    PutRaw(bytes, len);
  }

  size_t size() const { return data_.size(); }
  const uint8_t* data() const { return data_.data(); }
  void clear() { data_.clear(); }

 private:
  std::vector<uint8_t> data_;
};

// Bounds-checked reader over a serialized buffer. Shuffle bytes are
// data-driven input (and, through DWM_AUDIT replay and file-backed tools,
// potentially corrupt), so a malformed length must not abort the process:
// an out-of-bounds read instead zero-fills the destination, drains the
// reader (Done() becomes true, ending any record loop) and latches a
// failure flag the caller surfaces as a Status (see RunJobOr's reduce
// deserialization).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const ByteBuffer& buf)
      : ByteReader(buf.data(), buf.size()) {}

  void GetRaw(void* dst, size_t len) {
    if (len == 0) return;  // dst/data_ may be an empty container's null data()
    // `len <= size_ - pos_`, not `pos_ + len <= size_`: the latter wraps
    // for a corrupt length near SIZE_MAX and reads out of bounds.
    if (len > size_ - pos_) {
      // `len` is data-derived on this path and may be absurd (near
      // SIZE_MAX), so zero-filling all of it could itself overrun a sanely
      // sized destination; clamp to what this buffer could ever have held.
      // GetScalar value-initializes, so failed scalar reads still yield 0.
      std::memset(dst, 0, std::min(len, size_));
      Invalidate();
      return;
    }
    std::memcpy(dst, data_ + pos_, len);
    pos_ += len;
  }
  template <typename T>
  T GetScalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};  // stays zero when the read fails short (see GetRaw)
    GetRaw(&v, sizeof(T));
    return v;
  }

  // Unsigned LEB128 (see the header note). Truncation and non-canonical or
  // overflowing forms invalidate the reader and yield 0.
  uint64_t GetVarint() {
    uint64_t v = 0;
    for (size_t i = 0; i < ByteBuffer::kMaxVarintBytes; ++i) {
      if (pos_ >= size_) break;
      const uint8_t byte = data_[pos_++];
      // The 10th byte holds bit 63 alone; anything above it overflows, and
      // a continuation bit there would ask for an 11th byte.
      if (i == ByteBuffer::kMaxVarintBytes - 1 && byte > 1) break;
      v |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (byte == 0 && i > 0) break;  // overlong: a trailing zero group
        return v;
      }
    }
    Invalidate();
    return 0;
  }

  // Marks the stream corrupt: the reader drains (every later Get yields
  // zero-filled values) and ok() reports the failure.
  void Invalidate() {
    pos_ = size_;
    failed_ = true;
  }

  bool Done() const { return pos_ >= size_; }
  // False once any read ran past the buffer or a Serde rejected a length
  // prefix; decoded values from a failed reader are meaningless.
  bool ok() const { return !failed_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
  bool failed_ = false;
};

// Serialization trait; specialize for custom key/value structs.
template <typename T>
struct Serde;

template <>
struct Serde<uint8_t> {
  static void Put(ByteBuffer& b, uint8_t v) { b.PutScalar(v); }
  static uint8_t Get(ByteReader& r) { return r.GetScalar<uint8_t>(); }
};
template <>
struct Serde<int32_t> {
  static void Put(ByteBuffer& b, int32_t v) { b.PutScalar(v); }
  static int32_t Get(ByteReader& r) { return r.GetScalar<int32_t>(); }
};
template <>
struct Serde<int64_t> {
  static void Put(ByteBuffer& b, int64_t v) { b.PutScalar(v); }
  static int64_t Get(ByteReader& r) { return r.GetScalar<int64_t>(); }
};
template <>
struct Serde<uint64_t> {
  static void Put(ByteBuffer& b, uint64_t v) { b.PutScalar(v); }
  static uint64_t Get(ByteReader& r) { return r.GetScalar<uint64_t>(); }
};
template <>
struct Serde<double> {
  static void Put(ByteBuffer& b, double v) { b.PutScalar(v); }
  static double Get(ByteReader& r) { return r.GetScalar<double>(); }
};
template <>
struct Serde<std::string> {
  // The wire format carries a 32-bit length prefix; a longer string would
  // have its length silently truncated by the cast, corrupting every record
  // after it in the shuffle. Emitting such a key/value is a programmer
  // error, so it aborts rather than producing a bad stream.
  static constexpr size_t kMaxBytes = UINT32_MAX;

  static void Put(ByteBuffer& b, const std::string& v) {
    DWM_CHECK_LE(v.size(), kMaxBytes);
    b.PutScalar<uint32_t>(static_cast<uint32_t>(v.size()));
    b.PutRaw(v.data(), v.size());
  }
  static std::string Get(ByteReader& r) {
    const uint32_t len = r.GetScalar<uint32_t>();
    if (len > r.remaining()) {  // corrupt prefix: don't allocate for it
      r.Invalidate();
      return std::string();
    }
    std::string v(len, '\0');
    r.GetRaw(v.data(), len);
    return v;
  }
};
template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Put(ByteBuffer& b, const std::pair<A, B>& v) {
    Serde<A>::Put(b, v.first);
    Serde<B>::Put(b, v.second);
  }
  static std::pair<A, B> Get(ByteReader& r) {
    A a = Serde<A>::Get(r);
    B b2 = Serde<B>::Get(r);
    return {std::move(a), std::move(b2)};
  }
};
template <typename T>
struct Serde<std::vector<T>> {
  static void Put(ByteBuffer& b, const std::vector<T>& v) {
    b.PutScalar<uint64_t>(v.size());
    for (const T& x : v) Serde<T>::Put(b, x);
  }
  static std::vector<T> Get(ByteReader& r) {
    const uint64_t n = r.GetScalar<uint64_t>();
    std::vector<T> v;
    // Clamp the pre-reservation by the bytes actually left: every element
    // costs at least one byte, so a corrupt length prefix cannot request an
    // exabyte allocation before the per-element reads fail. The element
    // loop stops at the first failed read rather than spinning up to a
    // bogus 2^64 count.
    v.reserve(static_cast<size_t>(
        std::min<uint64_t>(n, static_cast<uint64_t>(r.remaining()))));
    for (uint64_t i = 0; i < n; ++i) {
      if (!r.ok()) break;
      v.push_back(Serde<T>::Get(r));
    }
    return v;
  }
};
// A u64 count, then the pairs in key order. Put always writes keys strictly
// ascending, so a repeated or descending key can only be corruption: Get
// invalidates the reader instead of silently merging entries.
template <typename K, typename V>
struct Serde<std::map<K, V>> {
  static void Put(ByteBuffer& b, const std::map<K, V>& m) {
    b.PutScalar<uint64_t>(m.size());
    for (const auto& [key, value] : m) {
      Serde<K>::Put(b, key);
      Serde<V>::Put(b, value);
    }
  }
  static std::map<K, V> Get(ByteReader& r) {
    const uint64_t n = r.GetScalar<uint64_t>();
    std::map<K, V> m;
    for (uint64_t i = 0; i < n; ++i) {
      if (!r.ok()) break;
      K key = Serde<K>::Get(r);
      V value = Serde<V>::Get(r);
      if (!m.empty() && !m.key_comp()(m.rbegin()->first, key)) {
        r.Invalidate();
        break;
      }
      m.emplace_hint(m.end(), std::move(key), std::move(value));
    }
    return m;
  }
};

}  // namespace dwm

#endif  // DWMAXERR_COMMON_BYTES_H_
