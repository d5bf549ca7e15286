// Serde specializations for the distributed algorithms' own types: every
// record they ship through the MapReduce shuffle that is not a primitive,
// a coefficient array or a Synopsis (those live in common/bytes.h and
// wavelet/synopsis.h, shared with checkpoints and serve frames). Centralized
// in one header so that (a) the byte format that Equation 6's communication
// accounting is validated against is defined in exactly one place, and (b)
// the serde round-trip tests (tests/serde_roundtrip_test.cc) and the
// DWM_AUDIT shuffle self-verification can exercise each specialization
// directly.
#ifndef DWMAXERR_DIST_SERDE_H_
#define DWMAXERR_DIST_SERDE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "core/min_haar_space.h"
#include "core/min_max_var.h"
#include "dist/dgreedy.h"

namespace dwm {

// DGreedy's level-1 -> level-2 record. Varints throughout (common/bytes.h)
// except e_b, a raw double: base; the size count, the first size, then
// each next size's increment (>= 1); e_b; the point count; then per point a
// bucket code and a kept code. A bucket that is an exact integer in
// [0, 2^63) ships as its index: index + 1 when it opens the frontier or
// follows an escape, else the decrement from the previous index (>= 1,
// since buckets strictly decrease). Any other bucket (huge, negative, -0,
// non-finite) escapes: code 0, then the raw double. The first kept is
// absolute and later ones are increments (>= 1). Get recomputes the
// bucket as double(index), so the receiver's bucket * e_b has the sender's
// bits, and it rejects every form Put would not write: a zero increment,
// an index below zero or not a double, an escape of an index-codable
// bucket, a count larger than the bytes left.
template <>
struct Serde<dgreedy_internal::BaseFrontier> {
  // The varint index of `bucket`, or -1 when it must escape.
  static int64_t Index(double bucket) {
    if (!(bucket >= 0.0 && bucket < 0x1p63)) return -1;  // NaN fails too
    const auto index = static_cast<int64_t>(bucket);
    return std::bit_cast<uint64_t>(static_cast<double>(index)) ==
                   std::bit_cast<uint64_t>(bucket)
               ? index
               : -1;
  }

  static void Put(ByteBuffer& b, const dgreedy_internal::BaseFrontier& v) {
    DWM_CHECK_GE(v.base, 0);
    b.PutVarint(static_cast<uint64_t>(v.base));
    b.PutVarint(v.sizes.size());
    int64_t prev_size = -1;
    for (const int64_t s : v.sizes) {
      DWM_CHECK_GT(s, prev_size);
      b.PutVarint(static_cast<uint64_t>(prev_size < 0 ? s : s - prev_size));
      prev_size = s;
    }
    b.PutScalar<double>(v.bucket_width);
    b.PutVarint(v.points.size());
    int64_t prev_index = -1;
    int64_t prev_kept = -1;
    for (const dgreedy_internal::FrontierPoint& p : v.points) {
      const int64_t index = Index(p.bucket);
      if (index < 0) {
        b.PutVarint(0);
        b.PutScalar<double>(p.bucket);
      } else if (prev_index < 0) {
        b.PutVarint(static_cast<uint64_t>(index) + 1);
      } else {
        DWM_CHECK_LT(index, prev_index);
        b.PutVarint(static_cast<uint64_t>(prev_index - index));
      }
      prev_index = index;
      DWM_CHECK_GT(p.kept, prev_kept);
      b.PutVarint(
          static_cast<uint64_t>(prev_kept < 0 ? p.kept : p.kept - prev_kept));
      prev_kept = p.kept;
    }
  }

  static dgreedy_internal::BaseFrontier Get(ByteReader& r) {
    // The next varint added to `sum`; below `min`, or past int64, it
    // invalidates the reader and yields `sum`.
    const auto add = [&r](int64_t sum, uint64_t min) {
      const uint64_t step = r.GetVarint();
      if (step < min || step > static_cast<uint64_t>(INT64_MAX - sum)) {
        r.Invalidate();
        return sum;
      }
      return sum + static_cast<int64_t>(step);
    };
    dgreedy_internal::BaseFrontier v;
    v.base = add(0, 0);
    const uint64_t num_sizes = r.GetVarint();
    // Every size costs a byte and every point two, so a larger count is
    // corrupt; within the bytes left, it is safe to reserve.
    if (num_sizes > r.remaining()) r.Invalidate();
    if (r.ok()) v.sizes.reserve(static_cast<size_t>(num_sizes));
    for (uint64_t i = 0; i < num_sizes && r.ok(); ++i) {
      v.sizes.push_back(i == 0 ? add(0, 0) : add(v.sizes.back(), 1));
    }
    v.bucket_width = r.GetScalar<double>();
    const uint64_t num_points = r.GetVarint();
    if (num_points > r.remaining() / 2) r.Invalidate();
    if (r.ok()) v.points.reserve(static_cast<size_t>(num_points));
    int64_t prev_index = -1;
    for (uint64_t i = 0; i < num_points && r.ok(); ++i) {
      dgreedy_internal::FrontierPoint p;
      const uint64_t code = r.GetVarint();
      int64_t index = -1;
      if (code == 0) {
        p.bucket = r.GetScalar<double>();
        if (Index(p.bucket) >= 0) r.Invalidate();  // Put would index it
      } else {
        if (prev_index < 0) {  // index + 1
          if (code - 1 <= uint64_t{INT64_MAX}) {
            index = static_cast<int64_t>(code - 1);
          }
        } else if (code <= static_cast<uint64_t>(prev_index)) {  // decrement
          index = prev_index - static_cast<int64_t>(code);
        }
        p.bucket = static_cast<double>(index);
        if (index < 0 || Index(p.bucket) != index) r.Invalidate();
      }
      prev_index = index;
      p.kept = i == 0 ? add(0, 0) : add(v.points.back().kept, 1);
      v.points.push_back(p);
    }
    return v;
  }
};

// DMHaarSpace M-rows cross worker boundaries; their serialized size is what
// Equation 6 accounts.
template <>
struct Serde<mhs::Cell> {
  static void Put(ByteBuffer& b, const mhs::Cell& c) {
    b.PutScalar<int32_t>(c.count);
    b.PutScalar<double>(c.err);
  }
  static mhs::Cell Get(ByteReader& r) {
    mhs::Cell c;
    c.count = r.GetScalar<int32_t>();
    c.err = r.GetScalar<double>();
    return c;
  }
};

template <>
struct Serde<mhs::Row> {
  static void Put(ByteBuffer& b, const mhs::Row& row) {
    b.PutScalar<int64_t>(row.lo);
    Serde<std::vector<mhs::Cell>>::Put(b, row.cells);
  }
  static mhs::Row Get(ByteReader& r) {
    mhs::Row row;
    row.lo = r.GetScalar<int64_t>();
    row.cells = Serde<std::vector<mhs::Cell>>::Get(r);
    return row;
  }
};

// DMinMaxVar M-rows (the O(B q)-cell rows the paper cites as the reason to
// prefer the dual DP).
template <>
struct Serde<mmv::Cell> {
  static void Put(ByteBuffer& b, const mmv::Cell& c) {
    b.PutScalar<double>(c.v);
    b.PutScalar<int32_t>(c.y_units);
    b.PutScalar<int32_t>(c.left_units);
  }
  static mmv::Cell Get(ByteReader& r) {
    mmv::Cell c;
    c.v = r.GetScalar<double>();
    c.y_units = r.GetScalar<int32_t>();
    c.left_units = r.GetScalar<int32_t>();
    return c;
  }
};

template <>
struct Serde<mmv::Row> {
  static void Put(ByteBuffer& b, const mmv::Row& row) {
    Serde<std::vector<mmv::Cell>>::Put(b, row.cells);
  }
  static mmv::Row Get(ByteReader& r) {
    mmv::Row row;
    row.cells = Serde<std::vector<mmv::Cell>>::Get(r);
    return row;
  }
};

}  // namespace dwm

#endif  // DWMAXERR_DIST_SERDE_H_
