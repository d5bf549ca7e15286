// Serde specializations for the distributed algorithms' own types: every
// record they ship through the MapReduce shuffle that is not a primitive,
// Coefficient or Synopsis (those live in common/bytes.h and
// wavelet/synopsis.h, shared with checkpoints and serve frames). Centralized
// in one header so that (a) the byte format that Equation 6's communication
// accounting is validated against is defined in exactly one place, and (b)
// the serde round-trip tests (tests/serde_roundtrip_test.cc) and the
// DWM_AUDIT shuffle self-verification can exercise each specialization
// directly.
#ifndef DWMAXERR_DIST_SERDE_H_
#define DWMAXERR_DIST_SERDE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/min_haar_space.h"
#include "core/min_max_var.h"
#include "dist/dgreedy.h"

namespace dwm {

// DGreedy level-1 emission: one Pareto-frontier stopping point (a
// BaseFrontier ships a vector of them through the generic pair/vector
// Serde).
template <>
struct Serde<dgreedy_internal::FrontierPoint> {
  static void Put(ByteBuffer& b, const dgreedy_internal::FrontierPoint& p) {
    b.PutScalar<double>(p.error);
    b.PutScalar<int64_t>(p.kept);
  }
  static dgreedy_internal::FrontierPoint Get(ByteReader& r) {
    dgreedy_internal::FrontierPoint p;
    p.error = r.GetScalar<double>();
    p.kept = r.GetScalar<int64_t>();
    return p;
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
