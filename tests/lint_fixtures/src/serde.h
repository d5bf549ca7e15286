#ifndef DWMAXERR_SERDE_H_
#define DWMAXERR_SERDE_H_
template <> struct Serde<Unpaired> {  // serde-pair: no Get
  static void Put(ByteBuffer& out, const Unpaired& v);
};
template <> struct Serde<Untested> {  // serde-roundtrip: no test names it
  static void Put(ByteBuffer& out, const Untested& v);
  static Untested Get(ByteReader& in);
};
template <> struct Serde<Covered> {
  static void Put(ByteBuffer& out, const Covered& v);
  static Covered Get(ByteReader& in);
};
#endif  // DWMAXERR_SERDE_H_
