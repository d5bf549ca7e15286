// Per-dataset shard registry for the serving engine. A shard is one loaded
// synopsis keyed by (dataset, algo, budget); registering under an existing
// key replaces the shard and bumps the monotonically increasing shard id,
// so the id names one registered version of the data. Lookups (Find, Keys)
// may run concurrently with each other; registration must not overlap any
// other call.
#ifndef DWMAXERR_SERVE_REGISTRY_H_
#define DWMAXERR_SERVE_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/format.h"
#include "wavelet/synopsis.h"

namespace dwm::serve {

struct ShardKey {
  std::string dataset;
  std::string algo;
  int64_t budget = 0;

  friend auto operator<=>(const ShardKey&, const ShardKey&) = default;
};

struct Shard {
  ShardKey key;
  uint64_t id = 0;  // unique per registration, never reused
  Synopsis synopsis;
  // Builder-guaranteed maximum absolute error of point reconstructions
  // (e.g. GreedyAbsResult::max_abs_error); NaN when the producer did not
  // supply one. Feeds the achieved-vs-bound gauge pair in serve/engine.h.
  double error_bound = std::numeric_limits<double>::quiet_NaN();
};

class ShardRegistry {
 public:
  // Registers (or replaces) the shard under `key`. The synopsis must
  // already be validated (Synopsis::Create / LoadSynopsisFrame).
  // `error_bound` is the builder's guaranteed max-abs point error (NaN =
  // unknown). Returns the new shard's id; every registration logs a
  // `shard_registered` info record.
  uint64_t Register(ShardKey key, Synopsis synopsis,
                    double error_bound = std::numeric_limits<double>::quiet_NaN());

  // Loads `path` via LoadSynopsisFrame and registers it. Frame
  // provenance fills the key; any field the frame leaves empty (build and
  // dbuild write none) falls back to the given defaults. On failure the
  // registry is unchanged.
  [[nodiscard]] Status RegisterFile(const std::string& path,
                                    const ShardKey& fallback,
                                    uint64_t* id = nullptr);

  // Shard under `key`, or nullptr. The pointer stays valid until the key
  // is re-registered.
  const Shard* Find(const ShardKey& key) const;

  // All registered keys, in key order (deterministic for `dwm_cli serve`
  // listings and tests).
  std::vector<ShardKey> Keys() const;

  size_t size() const { return shards_.size(); }

 private:
  std::map<ShardKey, Shard> shards_;
  uint64_t next_id_ = 1;  // 0 is reserved as "no shard"
};

}  // namespace dwm::serve

#endif  // DWMAXERR_SERVE_REGISTRY_H_
