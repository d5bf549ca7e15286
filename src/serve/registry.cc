#include "serve/registry.h"

#include <cmath>
#include <utility>

#include "common/log.h"

namespace dwm::serve {

uint64_t ShardRegistry::Register(ShardKey key, Synopsis synopsis,
                                 double error_bound) {
  const uint64_t id = next_id_++;
  Shard& shard = shards_[key];
  const bool replaced = shard.id != 0;
  shard.key = std::move(key);
  shard.id = id;
  shard.synopsis = std::move(synopsis);
  shard.error_bound = error_bound;
  {
    // Stable event: shard ids and registration order are a pure function
    // of the load sequence.
    log::Record r(log::Level::kInfo, "shard_registered");
    r.Str("dataset", shard.key.dataset)
        .Str("algo", shard.key.algo)
        .I64("budget", shard.key.budget)
        .U64("shard", id)
        .I64("domain", shard.synopsis.domain_size())
        .I64("coeffs", shard.synopsis.size())
        .Bool("replaced", replaced);
    if (std::isfinite(error_bound)) r.F64("error_bound", error_bound);
  }
  return id;
}

Status ShardRegistry::RegisterFile(const std::string& path,
                                   const ShardKey& fallback, uint64_t* id) {
  SynopsisFrame frame;
  DWM_RETURN_NOT_OK(LoadSynopsisFrame(path, &frame));
  ShardKey key;
  key.dataset = frame.dataset.empty() ? fallback.dataset : frame.dataset;
  key.algo = frame.algo.empty() ? fallback.algo : frame.algo;
  key.budget = frame.budget != 0 ? frame.budget : fallback.budget;
  const uint64_t new_id = Register(std::move(key), std::move(frame.synopsis));
  if (id != nullptr) *id = new_id;
  return Status::OK();
}

const Shard* ShardRegistry::Find(const ShardKey& key) const {
  auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : &it->second;
}

std::vector<ShardKey> ShardRegistry::Keys() const {
  std::vector<ShardKey> keys;
  keys.reserve(shards_.size());
  for (const auto& [key, shard] : shards_) keys.push_back(key);
  return keys;
}

}  // namespace dwm::serve
