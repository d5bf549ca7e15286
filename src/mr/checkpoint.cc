#include "mr/checkpoint.h"

#include <filesystem>
#include <span>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/sealed_file.h"

namespace dwm::mr {
namespace {

// 8-byte file magic; the trailing digit is cosmetic (the real format gate
// is CheckpointFrame::version, covered by the checksum).
constexpr std::string_view kMagic = "DWMCKPT1";

std::string SanitizeForFilename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                      c == '_';
    out += keep ? c : '_';
  }
  return out;
}

}  // namespace

uint64_t CheckpointFingerprint(const std::vector<double>& data,
                               const std::vector<int64_t>& params) {
  uint64_t h = Fnv1a(kFnv1aOffset, data.data(), data.size() * sizeof(double));
  for (const int64_t p : params) h = Fnv1a(h, &p, sizeof(p));
  return h;
}

CheckpointStore::CheckpointStore(std::string dir, std::string chain,
                                 uint64_t fingerprint)
    : dir_(std::move(dir)),
      chain_(std::move(chain)),
      fingerprint_(fingerprint) {}

std::string CheckpointStore::FilePath(int stage_index) const {
  return (std::filesystem::path(dir_) /
          (SanitizeForFilename(chain_) + "-" + std::to_string(stage_index) +
           ".ckpt"))
      .string();
}

bool CheckpointStore::Load(int stage_index, const std::string& stage,
                           std::vector<uint8_t>* payload) const {
  if (!enabled()) return false;
  const std::string path = FilePath(stage_index);
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  const Status sealed = ReadSealedFile(path, kMagic, &bytes, &body);
  if (sealed.code() == StatusCode::kIOError) return false;
  // Anything corrupt is deleted so a damaged file can never shadow the
  // recomputed stage on the next resume.
  bool corrupt = !sealed.ok();
  CheckpointFrame frame;
  if (!corrupt) {
    ByteReader reader(body.data(), body.size());
    frame.version = reader.GetScalar<uint32_t>();
    frame.chain = Serde<std::string>::Get(reader);
    frame.stage = Serde<std::string>::Get(reader);
    frame.stage_index = Serde<int32_t>::Get(reader);
    frame.fingerprint = reader.GetScalar<uint64_t>();
    const uint64_t payload_size = reader.GetScalar<uint64_t>();
    corrupt = !reader.ok() || payload_size != reader.remaining();
    if (!corrupt) {
      frame.payload.resize(static_cast<size_t>(payload_size));
      reader.GetRaw(frame.payload.data(), frame.payload.size());
      corrupt = !reader.ok();
    }
  }
  if (corrupt) {
    std::error_code ec;  // best effort: an undeletable file stays a miss
    std::filesystem::remove(path, ec);
    return false;
  }
  // A cleanly-decoded frame that is not ours (older format, another chain
  // or stage layout, different input data) is a miss, not corruption: the
  // stage recomputes and Save overwrites it.
  if (frame.version != kCheckpointFormatVersion || frame.chain != chain_ ||
      frame.stage != stage || frame.stage_index != stage_index ||
      frame.fingerprint != fingerprint_) {
    return false;
  }
  *payload = std::move(frame.payload);
  return true;
}

Status CheckpointStore::Save(int stage_index, const std::string& stage,
                             const ByteBuffer& payload) const {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("checkpoint: cannot create directory '" + dir_ +
                           "': " + ec.message());
  }
  ByteBuffer body;
  body.PutScalar<uint32_t>(kCheckpointFormatVersion);
  Serde<std::string>::Put(body, chain_);
  Serde<std::string>::Put(body, stage);
  Serde<int32_t>::Put(body, stage_index);
  body.PutScalar<uint64_t>(fingerprint_);
  body.PutScalar<uint64_t>(static_cast<uint64_t>(payload.size()));
  body.PutRaw(payload.data(), payload.size());
  return WriteSealedFile(FilePath(stage_index), kMagic,
                         {body.data(), body.size()});
}

}  // namespace dwm::mr

namespace dwm {

using mr::JobStats;
using mr::TaskAttempt;
using mr::TaskExecution;

void Serde<TaskAttempt>::Put(ByteBuffer& buffer, const TaskAttempt& attempt) {
  Serde<double>::Put(buffer, attempt.seconds);
  Serde<double>::Put(buffer, attempt.slowdown);
  Serde<int32_t>::Put(buffer, attempt.failed ? 1 : 0);
  Serde<int32_t>::Put(buffer, attempt.node_lost ? 1 : 0);
  Serde<double>::Put(buffer, attempt.cpu_seconds);
}

TaskAttempt Serde<TaskAttempt>::Get(ByteReader& reader) {
  TaskAttempt out;
  out.seconds = Serde<double>::Get(reader);
  out.slowdown = Serde<double>::Get(reader);
  out.failed = Serde<int32_t>::Get(reader) != 0;
  out.node_lost = Serde<int32_t>::Get(reader) != 0;
  out.cpu_seconds = Serde<double>::Get(reader);
  return out;
}

void Serde<JobStats>::Put(ByteBuffer& buffer, const JobStats& stats) {
  Serde<std::string>::Put(buffer, stats.name);
  Serde<int64_t>::Put(buffer, stats.map_tasks);
  Serde<int64_t>::Put(buffer, stats.reduce_tasks);
  Serde<int64_t>::Put(buffer, stats.input_bytes);
  Serde<int64_t>::Put(buffer, stats.shuffle_bytes);
  Serde<int64_t>::Put(buffer, stats.shuffle_records);
  Serde<int64_t>::Put(buffer, stats.output_records);
  Serde<double>::Put(buffer, stats.map_makespan_seconds);
  Serde<double>::Put(buffer, stats.shuffle_seconds);
  Serde<double>::Put(buffer, stats.reduce_makespan_seconds);
  Serde<double>::Put(buffer, stats.job_overhead_seconds);
  Serde<double>::Put(buffer, stats.real_seconds);
  Serde<std::vector<double>>::Put(buffer, stats.map_task_seconds);
  Serde<std::vector<double>>::Put(buffer, stats.reduce_task_seconds);
  Serde<std::vector<TaskExecution>>::Put(buffer, stats.map_attempts);
  Serde<std::vector<TaskExecution>>::Put(buffer, stats.reduce_attempts);
  Serde<std::vector<double>>::Put(buffer, stats.map_task_in_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.map_task_out_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.map_task_records);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_in_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_records);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_out_records);
  Serde<int64_t>::Put(buffer, stats.task_attempts);
  Serde<int64_t>::Put(buffer, stats.failed_attempts);
  Serde<int64_t>::Put(buffer, stats.node_loss_kills);
  Serde<int64_t>::Put(buffer, stats.straggler_attempts);
  Serde<int64_t>::Put(buffer, stats.speculative_backups);
  Serde<int64_t>::Put(buffer, stats.skipped_bad_records);
}

JobStats Serde<JobStats>::Get(ByteReader& reader) {
  JobStats out;
  out.name = Serde<std::string>::Get(reader);
  out.map_tasks = Serde<int64_t>::Get(reader);
  out.reduce_tasks = Serde<int64_t>::Get(reader);
  out.input_bytes = Serde<int64_t>::Get(reader);
  out.shuffle_bytes = Serde<int64_t>::Get(reader);
  out.shuffle_records = Serde<int64_t>::Get(reader);
  out.output_records = Serde<int64_t>::Get(reader);
  out.map_makespan_seconds = Serde<double>::Get(reader);
  out.shuffle_seconds = Serde<double>::Get(reader);
  out.reduce_makespan_seconds = Serde<double>::Get(reader);
  out.job_overhead_seconds = Serde<double>::Get(reader);
  out.real_seconds = Serde<double>::Get(reader);
  out.map_task_seconds = Serde<std::vector<double>>::Get(reader);
  out.reduce_task_seconds = Serde<std::vector<double>>::Get(reader);
  out.map_attempts = Serde<std::vector<TaskExecution>>::Get(reader);
  out.reduce_attempts = Serde<std::vector<TaskExecution>>::Get(reader);
  out.map_task_in_bytes = Serde<std::vector<double>>::Get(reader);
  out.map_task_out_bytes = Serde<std::vector<int64_t>>::Get(reader);
  out.map_task_records = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_in_bytes = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_records = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_out_records = Serde<std::vector<int64_t>>::Get(reader);
  out.task_attempts = Serde<int64_t>::Get(reader);
  out.failed_attempts = Serde<int64_t>::Get(reader);
  out.node_loss_kills = Serde<int64_t>::Get(reader);
  out.straggler_attempts = Serde<int64_t>::Get(reader);
  out.speculative_backups = Serde<int64_t>::Get(reader);
  out.skipped_bad_records = Serde<int64_t>::Get(reader);
  return out;
}

}  // namespace dwm
