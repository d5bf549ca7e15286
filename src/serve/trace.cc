#include "serve/trace.h"

#include <cstdio>
#include <utility>

#include "common/log.h"

namespace dwm::serve {
namespace {

// args_json helper: appends `"key":value` (no surrounding braces). Keys are
// literals and values integral, so no escaping is needed; string values go
// through log::AppendJsonEscaped.
void AppendArg(std::string* out, const char* key, int64_t value) {
  if (!out->empty()) *out += ',';
  *out += '"';
  *out += key;
  *out += "\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  *out += buf;
}

void AppendArg(std::string* out, const char* key, const std::string& value) {
  if (!out->empty()) *out += ',';
  *out += '"';
  *out += key;
  *out += "\":\"";
  log::AppendJsonEscaped(out, value);
  *out += '"';
}

}  // namespace

ServeTraceCollector::ServeTraceCollector()
    : epoch_(std::chrono::steady_clock::now()) {}

void ServeTraceCollector::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  requests_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

double ServeTraceCollector::NowSeconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ServeTraceCollector::Record(RequestTrace&& request) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (requests_.size() >= kMaxRequests) {
    ++dropped_;
    return;
  }
  requests_.push_back(std::move(request));
}

size_t ServeTraceCollector::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return requests_.size();
}

size_t ServeTraceCollector::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

mr::Trace ServeTraceCollector::Snapshot() const {
  mr::Trace trace;
  Append(&trace);
  return trace;
}

void ServeTraceCollector::Append(mr::Trace* trace) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const RequestTrace& req : requests_) {
    mr::TraceSpan root;
    root.kind = mr::SpanKind::kServe;
    root.name = "req" + std::to_string(req.request);
    root.cat = "serve";
    root.start_seconds = req.start_seconds;
    root.end_seconds = req.end_seconds;
    std::string args;
    AppendArg(&args, "request", static_cast<int64_t>(req.request));
    AppendArg(&args, "dataset", req.dataset);
    AppendArg(&args, "algo", req.algo);
    AppendArg(&args, "budget", req.budget);
    AppendArg(&args, "queries", req.queries);
    AppendArg(&args, "points", req.points);
    AppendArg(&args, "range_sums", req.range_sums);
    AppendArg(&args, "range_avgs", req.range_avgs);
    root.args_json = std::move(args);
    trace->spans.push_back(std::move(root));
    for (const RequestPhase& phase : req.phases) {
      mr::TraceSpan span;
      span.kind = mr::SpanKind::kServe;
      span.name = "req" + std::to_string(req.request) + "/" + phase.name;
      span.cat = "serve";
      span.start_seconds = phase.start_seconds;
      span.end_seconds = phase.end_seconds;
      std::string phase_args;
      AppendArg(&phase_args, "request", static_cast<int64_t>(req.request));
      span.args_json = std::move(phase_args);
      trace->spans.push_back(std::move(span));
    }
    if (req.end_seconds > trace->total_seconds) {
      trace->total_seconds = req.end_seconds;
    }
  }
}

Status ServeTraceCollector::WriteChromeTrace(
    const std::string& path, const mr::ChromeTraceOptions& options) const {
  const std::string json = mr::ChromeTraceJson(Snapshot(), options);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace dwm::serve
