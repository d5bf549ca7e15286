#include "mr/pipeline.h"

#include <cstddef>
#include <map>

#include "common/log.h"
#include "common/metrics.h"

namespace dwm::mr {

namespace pipeline_internal {

void PublishJobRetry(const std::string& job) {
  metrics::Default()
      .GetCounter("dwm_mr_job_retries_total",
                  "Job-level re-submissions after task-retry exhaustion "
                  "(ClusterConfig::max_job_attempts)",
                  {{"job", job}})
      ->Increment();
}

void PublishStageResumed(const std::string& chain, const std::string& stage) {
  metrics::Default()
      .GetCounter("dwm_mr_stages_resumed_total",
                  "Pipeline stages replayed from a verified checkpoint "
                  "instead of recomputed",
                  {{"chain", chain}, {"stage", stage}})
      ->Increment();
}

}  // namespace pipeline_internal

JobChain::JobChain(std::string name, const ClusterConfig& config,
                   SimReport* report, Counters* counters,
                   uint64_t fingerprint)
    : name_(config.checkpoint_scope.empty()
                ? std::move(name)
                : config.checkpoint_scope + "/" + name),
      config_(&config),
      report_(report),
      counters_(counters),
      store_(ResolveCheckpointDir(config.checkpoint_dir), name_, fingerprint),
      status_(Status::OK()) {}

bool JobChain::RunEncodedStage(
    const std::string& stage, const std::function<Status()>& run,
    const std::function<void(ByteBuffer&)>& encode,
    const std::function<bool(ByteReader&)>& decode) {
  if (!status_.ok()) return false;
  const int index = stage_index_++;
  if (resume_active_ && store_.enabled()) {
    std::vector<uint8_t> payload;
    if (store_.Load(index, stage, &payload) &&
        RestoreSnapshot(payload, decode)) {
      ++resumed_stages_;
      pipeline_internal::PublishStageResumed(name_, stage);
      return true;
    }
    // Miss or failed verification: this and every later stage recompute
    // live (a chain resumes only from a contiguous verified prefix).
    resume_active_ = false;
  }

  const size_t jobs_before = report_->jobs.size();
  const size_t spans_before = report_->driver_spans.size();
  std::map<std::string, int64_t> counters_before;
  if (counters_ != nullptr && store_.enabled()) {
    counters_before = counters_->values();
  }

  const Status stage_status = run();
  if (!stage_status.ok()) {
    status_ = stage_status;
    return false;
  }

  if (store_.enabled()) {
    // Snapshot layout: the stage's report delta (jobs + driver spans, span
    // positions relative to the stage start), the counter delta, then the
    // driver's own state as a sized blob — the restore side verifies the
    // frame structurally before any driver state is touched.
    const std::vector<JobStats> jobs(
        report_->jobs.begin() + static_cast<std::ptrdiff_t>(jobs_before),
        report_->jobs.end());
    std::vector<DriverSpan> spans(
        report_->driver_spans.begin() +
            static_cast<std::ptrdiff_t>(spans_before),
        report_->driver_spans.end());
    for (DriverSpan& span : spans) {
      span.after_job -= static_cast<int64_t>(jobs_before);
    }
    std::vector<std::pair<std::string, int64_t>> counter_delta;
    if (counters_ != nullptr) {
      for (const auto& [key, value] : counters_->values()) {
        const auto it = counters_before.find(key);
        const int64_t delta =
            value - (it == counters_before.end() ? 0 : it->second);
        if (delta != 0) counter_delta.emplace_back(key, delta);
      }
    }
    ByteBuffer payload;
    Serde<std::vector<JobStats>>::Put(payload, jobs);
    Serde<std::vector<DriverSpan>>::Put(payload, spans);
    Serde<std::vector<std::pair<std::string, int64_t>>>::Put(payload,
                                                             counter_delta);
    ByteBuffer state;
    encode(state);
    payload.PutScalar<uint64_t>(state.size());
    payload.PutRaw(state.data(), state.size());
    const Status saved = store_.Save(index, stage, payload);
    if (!saved.ok()) {
      // A failed snapshot write degrades resume, not the run itself.
      log::Warn("checkpoint_save_failed")
          .Str("stage", stage)
          .I64("stage_index", index)
          .Str("status", saved.ToString())
          .Str("action", "stage will recompute on resume");
    }
  }
  return true;
}

bool JobChain::RestoreSnapshot(const std::vector<uint8_t>& payload,
                               const std::function<bool(ByteReader&)>& decode) {
  ByteReader reader(payload.data(), payload.size());
  std::vector<JobStats> jobs = Serde<std::vector<JobStats>>::Get(reader);
  const std::vector<DriverSpan> spans =
      Serde<std::vector<DriverSpan>>::Get(reader);
  const std::vector<std::pair<std::string, int64_t>> counter_delta =
      Serde<std::vector<std::pair<std::string, int64_t>>>::Get(reader);
  const uint64_t state_size = reader.GetScalar<uint64_t>();
  // Structural verification before any driver state moves: the driver blob
  // must be exactly the frame's remainder. Only then does `decode` run,
  // over a reader bounded to that blob.
  if (!reader.ok() || state_size != reader.remaining()) return false;
  ByteReader state(payload.data() + (payload.size() - reader.remaining()),
                   static_cast<size_t>(state_size));
  if (!decode(state)) return false;

  const int64_t base = static_cast<int64_t>(report_->jobs.size());
  for (JobStats& job : jobs) report_->jobs.push_back(std::move(job));
  for (const DriverSpan& span : spans) {
    report_->driver_spans.push_back(
        {span.name, span.seconds, base + span.after_job});
    report_->driver_seconds += span.seconds;
  }
  if (counters_ != nullptr) {
    for (const auto& [key, delta] : counter_delta) {
      counters_->Add(key, delta);
    }
  }
  return true;
}

}  // namespace dwm::mr
