// Checkpoint store for job-chain recovery (mr/pipeline.h): each committed
// stage of a JobChain snapshots its outputs, counters and simulated-time
// accounting into one versioned DWMCKPT1 sealed file (common/sealed_file.h:
// checksummed, written atomically), so a killed writer can never leave a
// half-frame behind. A
// restarted chain loads verified frames and resumes from the first
// incomplete stage; anything that fails verification — truncated file, bad
// checksum, wrong format version, a frame from another chain or another
// input — reads as a miss and the stage recomputes (graceful degradation,
// never UB or abort).
#ifndef DWMAXERR_MR_CHECKPOINT_H_
#define DWMAXERR_MR_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm::mr {

// One decoded checkpoint frame. Every checkpoint serde struct carries an
// explicit `version` field (enforced by dwm_lint's sealed-format-version
// rule): the on-disk format may evolve, and a reader must be able to
// reject a frame written by a different format before trusting any of it.
struct CheckpointFrame {
  uint32_t version = 0;      // format version, kCheckpointFormatVersion
  std::string chain;         // owning chain (scope-qualified)
  std::string stage;         // stage name, e.g. "transform"
  int32_t stage_index = 0;   // position in the chain, 0-based
  uint64_t fingerprint = 0;  // input fingerprint the chain was built over
  std::vector<uint8_t> payload;
};

inline constexpr uint32_t kCheckpointFormatVersion = 1;

// FNV-1a fingerprint of a driver's input (raw data bytes plus shape
// parameters such as budget or base_leaves): resuming from a checkpoint
// written over different input must read as a miss, not as silent reuse.
uint64_t CheckpointFingerprint(const std::vector<double>& data,
                               const std::vector<int64_t>& params);

class CheckpointStore {
 public:
  // Disabled store: every Load misses, every Save is a no-op.
  CheckpointStore() = default;
  // `dir` empty keeps the store disabled. `chain` namespaces the files so
  // nested pipelines (ClusterConfig::checkpoint_scope) stay distinct.
  CheckpointStore(std::string dir, std::string chain, uint64_t fingerprint);

  bool enabled() const { return !dir_.empty(); }
  const std::string& chain() const { return chain_; }

  // Loads stage `stage_index` and fills *payload on a verified hit.
  // Returns false on a miss or on any verification failure; a corrupt file
  // (truncation, checksum mismatch) is deleted so it is never retried,
  // while a cleanly-decoded frame that merely mismatches (other version,
  // chain, stage or fingerprint) is left for Save to overwrite.
  bool Load(int stage_index, const std::string& stage,
            std::vector<uint8_t>* payload) const;

  // Atomically writes stage `stage_index` (WriteSealedFile). Returns
  // IOError when the directory cannot be created or the write fails.
  [[nodiscard]] Status Save(int stage_index, const std::string& stage,
                            const ByteBuffer& payload) const;

 private:
  std::string FilePath(int stage_index) const;

  std::string dir_;
  std::string chain_;
  uint64_t fingerprint_ = 0;
};

}  // namespace dwm::mr

namespace dwm {

// Serde encodings of the engine accounting a stage snapshot replays into
// the makespan on resume (mr/pipeline.cc). Decoding never aborts: a corrupt
// stream yields zero-filled values and a failed reader (ByteReader::ok()).
template <>
struct Serde<mr::TaskAttempt> {
  static void Put(ByteBuffer& b, const mr::TaskAttempt& attempt);
  static mr::TaskAttempt Get(ByteReader& r);
};
template <>
struct Serde<mr::TaskExecution> {
  static void Put(ByteBuffer& b, const mr::TaskExecution& execution) {
    Serde<std::vector<mr::TaskAttempt>>::Put(b, execution.attempts);
  }
  static mr::TaskExecution Get(ByteReader& r) {
    return {Serde<std::vector<mr::TaskAttempt>>::Get(r)};
  }
};
template <>
struct Serde<mr::JobStats> {
  static void Put(ByteBuffer& b, const mr::JobStats& stats);
  static mr::JobStats Get(ByteReader& r);
};
template <>
struct Serde<mr::DriverSpan> {
  static void Put(ByteBuffer& b, const mr::DriverSpan& span) {
    Serde<std::string>::Put(b, span.name);
    Serde<double>::Put(b, span.seconds);
    Serde<int64_t>::Put(b, span.after_job);
  }
  static mr::DriverSpan Get(ByteReader& r) {
    mr::DriverSpan span;
    span.name = Serde<std::string>::Get(r);
    span.seconds = Serde<double>::Get(r);
    span.after_job = Serde<int64_t>::Get(r);
    return span;
  }
};

}  // namespace dwm

#endif  // DWMAXERR_MR_CHECKPOINT_H_
