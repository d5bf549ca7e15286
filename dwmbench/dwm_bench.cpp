// dwm_bench: one measured benchmark for the build and serve paths, from raw
// data to a synopsis and from a sealed synopsis frame to served answers.
// One named workload runs per process:
//
//   dwm_bench --workload W --seed S [--seconds T] [--trace FILE]
//             [--scratch DIR] [--smoke]
//
//   build_dgreedy  DGreedyAbs on SYN uniform data (map-CPU and shuffle heavy)
//   build_dih      DIndirectHaar on NYCT-like data (many short jobs)
//   serve_hot      point batches over a hot set that fits the block cache
//   serve_scan     point and range batches over a working set that does not,
//                  re-registering the shard from its frame every 100 batches
//
// README.md gives the sizes, why each workload exists, and which end-to-end
// metric each per-layer metric should move.
//
// The library is driven only through its public functions and timed from
// outside: spans are recorded here, around each call, never inside the
// program. The seed makes the data; seed + 1 makes the query stream. One
// client thread runs a closed loop, and MR jobs run on one worker thread
// with fault injection disabled. Every DWM_* environment variable is removed
// at start-up, because those knobs change what is measured.
//
// Each run sets up at least three times (setup_s is the median), runs one
// warm-up operation or pass, then measures for --seconds. Times are scaled
// by an interleaved machine-speed reference (see SampleReference). With
// --trace the measured time is split: an untraced half, then a traced half
// whose spans go to FILE as Chrome trace-event JSON, followed by per-layer
// probes. Every metric prints as `metric <name> <value> <unit>`, and the
// last stdout line is one JSON object with `correct`, `attempted`, `failed`
// and `metrics`: the end-to-end metrics, or with --trace the per-layer ones.
// A failed correctness check prints `CHECK FAILED` on stderr and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/greedy_abs.h"
#include "core/indirect_haar.h"
#include "data/generators.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/trace.h"
#include "serve/engine.h"
#include "serve/format.h"
#include "serve/registry.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"
#include "wavelet/synopsis.h"

extern char** environ;

namespace {

using dwm::Status;
using dwm::Synopsis;
using dwm::serve::Query;
using dwm::serve::QueryType;

// Set-up repeats at least kSetupMinReps times and, except in smoke runs,
// for at least kSetupMinSeconds; setup_s is the median.
constexpr size_t kSetupMinReps = 3;
constexpr double kSetupMinSeconds = 1.0;
constexpr int64_t kBatchSize = 64;
// MR engine worker threads. On a shared host, several worker threads make
// per-build CPU time swing with co-tenant load (turbo and memory
// contention); one thread keeps per-task work steady from run to run.
constexpr int kWorkerThreads = 1;

// Per-layer metrics in output order, with units. A layer that a workload
// does not exercise reports 0: the MR layer on the serve workloads, the
// cache and batch metrics on the build workloads.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"data.gen_s", "s"},
    {"wavelet.forward_haar_s", "s"},
    {"wavelet.point_estimate_ns", "ns"},
    {"wavelet.range_sum_ns", "ns"},
    {"wavelet.reconstruct_block_us", "us"},
    {"core.greedy_abs_s", "s"},
    {"core.indirect_haar_s", "s"},
    {"core.max_abs_error", "abs"},
    {"mr.jobs", "count"},
    {"mr.map_tasks", "count"},
    {"mr.reduce_tasks", "count"},
    {"mr.map_cpu_s", "s"},
    {"mr.map_task_cpu_max_s", "s"},
    {"mr.reduce_cpu_s", "s"},
    {"mr.shuffle_bytes", "bytes"},
    {"mr.shuffle_records", "count"},
    {"mr.job_wall_s", "s"},
    {"mr.parallel_efficiency", "ratio"},
    {"mr.reducer_skew", "ratio"},
    {"mr.failed_attempts", "count"},
    {"mr.makespan_model_s", "s"},
    {"dist.driver_s", "s"},
    {"dist.outside_jobs_s", "s"},
    {"dist.probes", "count"},
    {"serve.frame_bytes", "bytes"},
    {"serve.frame_save_ms", "ms"},
    {"serve.frame_load_ms", "ms"},
    {"serve.register_us", "us"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.engine_minus_direct_ns", "ns"},
    {"serve.point_batch_p50_us", "us"},
    {"serve.range_batch_p50_us", "us"},
    {"serve.reload_p50_ms", "ms"},
};

// Keeps benchmark-side reads of results from being optimized away.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Clocks and statistics.

double NowSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double CpuSeconds() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const double start = NowSeconds();
  fn();
  return NowSeconds() - start;
}

// Median wall seconds of `reps` calls of fn.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(TimeSeconds(fn));
  return Median(times);
}

// ---------------------------------------------------------------------------
// Machine-speed reference. On a shared host the clock speed drifts by about
// +-15% over tens of seconds, and every time measured here drifts with it.
// The reference kernel is timed between the operations of each phase (the
// set-ups, a measured window), and the phase's times are reported scaled to
// a host on which the kernel takes kNominalReferenceMs, a round figure near
// its 0.40-0.47 ms medians on the 4-vCPU Xeon this benchmark was developed
// on. The kernel is the benchmark's own code, so no change to the library
// can move it.

constexpr double kNominalReferenceMs = 0.5;

// Appends the times (ms) of five runs of the kernel: scalar Haar pyramids
// over a fixed L2-resident array.
void SampleReference(std::vector<double>* samples) {
  static const std::vector<double> in = [] {
    std::vector<double> v(size_t{1} << 15);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>((i * 2654435761u) % 1000);
    }
    return v;
  }();
  static std::vector<double> a(in.size()), b(in.size());
  for (int run = 0; run < 5; ++run) {
    samples->push_back(1e3 * TimeSeconds([] {
      for (int rep = 0; rep < 8; ++rep) {
        std::copy(in.begin(), in.end(), a.begin());
        for (size_t len = a.size(); len > 1; len /= 2) {
          const size_t half = len / 2;
          for (size_t i = 0; i < half; ++i) {
            b[i] = 0.5 * (a[2 * i] + a[2 * i + 1]);
            b[half + i] = 0.5 * (a[2 * i] - a[2 * i + 1]);
          }
          std::copy(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(len),
                    a.begin());
        }
      }
      g_sink = a[0];
    }));
  }
}

// Factor that turns times measured alongside `samples` into nominal time.
double NominalScale(const std::vector<double>& samples) {
  return kNominalReferenceMs / Median(samples);
}

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark around each public call.

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; -1 when tracing is off.
  int Begin(std::string name, const char* layer, double start) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), layer, start, start, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  int Begin(std::string name, const char* layer) {
    return Begin(std::move(name), layer, NowSeconds());
  }
  void End(int id, double end) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = end;
    open_ = spans_[static_cast<size_t>(id)].parent;
  }
  void End(int id) { End(id, NowSeconds()); }
  // A closed span under the innermost open one, for intervals known only
  // after the call returned (the jobs of a SimReport).
  void Add(std::string name, const char* layer, double start, double end) {
    End(Begin(std::move(name), layer, start), end);
  }

  // Per layer: summed span time minus the time its child spans cover.
  std::map<std::string, double> LayerSelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.layer] += std::max(0.0, s.end - s.start - child[i]);
    }
    return self;
  }

  size_t size() const { return spans_.size(); }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string name;
      for (char c : s.name) {
        if (c == '"' || c == '\\') name += '\\';
        name += c;
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", name.c_str(), s.layer, s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    double start;
    double end;
    int parent;
  };
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

class SpanScope {
 public:
  SpanScope(std::string name, const char* layer)
      : id_(GlobalTracer().Begin(std::move(name), layer)) {}
  ~SpanScope() { GlobalTracer().End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// Lays a finished build's jobs and driver phases out, in execution order,
// as child spans of the build span that started at `start`.
void AddReportSpans(const dwm::mr::SimReport& report, double start) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  double cursor = start;
  const auto driver_spans_after = [&](int64_t jobs_done) {
    for (const dwm::mr::DriverSpan& d : report.driver_spans) {
      if (d.after_job != jobs_done) continue;
      tracer.Add("driver:" + d.name, "dist", cursor, cursor + d.seconds);
      cursor += d.seconds;
    }
  };
  for (size_t j = 0; j < report.jobs.size(); ++j) {
    driver_spans_after(static_cast<int64_t>(j));
    const double wall = report.jobs[j].real_seconds;
    tracer.Add("job:" + report.jobs[j].name, "mr", cursor, cursor + wall);
    cursor += wall;
  }
  driver_spans_after(static_cast<int64_t>(report.jobs.size()));
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::map<std::string, double> layer;  // keyed by kLayerMetrics names

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
  // Counts one operation; a non-OK status is a failure and a failed check.
  void Count(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    Check(false, std::string(what) + ": " + status.ToString());
  }
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

void PrintJsonLine(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 15.0;
  std::string trace_path;
  std::string scratch = ".";
  bool smoke = false;
};

// One measured window: per-operation wall times plus per-pass CPU and
// throughput (a build workload's pass is one build), and for the serve
// workloads the batch and reload times by type.
struct Window {
  std::vector<double> op_seconds;
  std::vector<double> cpu_per_op;
  std::vector<double> items_per_second;
  std::vector<double> point_us, range_us, reload_ms;
  std::vector<double> reference_ms;
  // Peak RSS after the first min_passes passes: a fixed amount of work, as
  // the allocator's footprint grows with the number of passes a run fits.
  double peak_rss_mb = 0.0;
};

// Set-up wall times with the reference samples taken between them.
struct Setup {
  std::vector<double> seconds;
  std::vector<double> reference_ms;
};

// The end-to-end metrics of a window, scaled to the nominal host speed.
std::vector<Metric> EndToEnd(const Setup& setup, const Window& w) {
  const double setup_s = Median(setup.seconds);
  const double latency_s = Median(w.op_seconds);
  const double cpu_s = Median(w.cpu_per_op);
  const double items = Median(w.items_per_second);
  const double setup_scale = NominalScale(setup.reference_ms);
  const double scale = NominalScale(w.reference_ms);
  std::printf("raw        : setup_s %.6g latency_ms %.6g cpu_ms %.6g "
              "items_per_s %.6g (reference %.4f ms at set-up, %.4f ms "
              "measured)\n",
              setup_s, latency_s * 1e3, cpu_s * 1e3, items,
              Median(setup.reference_ms), Median(w.reference_ms));
  return {
      {"setup_s", setup_s * setup_scale, "s"},
      {"latency_ms", latency_s * 1e3 * scale, "ms"},
      {"cpu_ms", cpu_s * 1e3 * scale, "ms"},
      {"items_per_s", items / scale, "1/s"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
  };
}

// Runs `pass` until `seconds` have elapsed and at least `min_passes` ran,
// sampling the reference before each pass and after the last.
void MeasureFor(double seconds, int min_passes,
                const std::function<void(Window*)>& pass, Window* w) {
  const double start = NowSeconds();
  int passes = 0;
  while (passes < min_passes || NowSeconds() - start < seconds) {
    SampleReference(&w->reference_ms);
    pass(w);
    if (++passes == min_passes) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      w->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  SampleReference(&w->reference_ms);
}

bool MoreSetups(const Args& args, size_t done, double start) {
  return done < kSetupMinReps ||
         (!args.smoke && NowSeconds() - start < kSetupMinSeconds);
}

// Measures `pass` for --seconds into out->end_to_end and returns the window.
// With --trace, the first half is untraced and gives the end-to-end
// metrics; the second half is traced, and the difference is printed as the
// tracing overhead.
Window MeasureWorkload(const Args& args, const Setup& setup,
                       const std::function<void(Window*)>& pass,
                       Outcome* out) {
  Tracer& tracer = GlobalTracer();
  const bool traced = !args.trace_path.empty();
  const int min_passes = args.smoke ? 1 : 2;
  Window untraced;
  tracer.set_enabled(false);
  MeasureFor(traced ? args.seconds / 2 : args.seconds, min_passes, pass,
             &untraced);
  out->end_to_end = EndToEnd(setup, untraced);
  if (!traced) return untraced;

  Window traced_window;
  tracer.set_enabled(true);
  {
    SpanScope s("measure.traced", "bench");
    MeasureFor(args.seconds / 2, min_passes, pass, &traced_window);
  }
  const std::vector<Metric> traced_e2e = EndToEnd(setup, traced_window);
  for (size_t i = 0; i < traced_e2e.size(); ++i) {
    const double base = out->end_to_end[i].value;
    std::printf("overhead   : %-12s untraced %.6g traced %.6g (%+.2f%%)\n",
                traced_e2e[i].name.c_str(), base, traced_e2e[i].value,
                base != 0.0 ? 100.0 * (traced_e2e[i].value / base - 1.0) : 0.0);
  }
  return untraced;
}

// ---------------------------------------------------------------------------
// Configuration.

// The paper's platform (8 slaves x 5 map slots, 2 GHz Xeons), fault-free
// and independent of every environment knob.
dwm::mr::ClusterConfig PaperCluster(int reduce_slots) {
  dwm::mr::ClusterConfig config;
  config.map_slots = 40;
  config.reduce_slots = reduce_slots;
  config.task_startup_seconds = 1.0;
  config.job_overhead_seconds = 6.0;
  config.network_bytes_per_second = 100.0e6;
  config.storage_bytes_per_second = 400.0e6;
  config.compute_scale = 2.0;
  config.worker_threads = kWorkerThreads;
  config.max_skipped_bad_records = 0;
  config.faults = dwm::mr::FaultPlan::Disabled();
  return config;
}

double NumericTolerance(double magnitude) {
  return 1e-9 * std::max(1.0, std::fabs(magnitude));
}

bool SameSynopsis(const Synopsis& a, const Synopsis& b) {
  if (a.domain_size() != b.domain_size() || a.size() != b.size()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.coefficients().data(), b.coefficients().data(),
                     static_cast<size_t>(a.size()) * sizeof(dwm::Coefficient)) ==
         0;
}

// ---------------------------------------------------------------------------
// Per-layer probes shared by all workloads: the wavelet kernels on the
// workload's data and synopsis, and the frame/registry path.

void ProbeWavelet(const std::vector<double>& data, const Synopsis& synopsis,
                  uint64_t seed, std::map<std::string, double>* layer) {
  SpanScope span("probe.wavelet", "bench");
  const int64_t n = synopsis.domain_size();
  dwm::Rng rng(seed);
  const auto leaf = [&] {
    return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
  };
  std::vector<int64_t> points(1 << 16);
  for (int64_t& p : points) p = leaf();
  std::vector<std::pair<int64_t, int64_t>> ranges(1 << 14);
  for (auto& [lo, hi] : ranges) {
    const int64_t a = leaf();
    const int64_t b = leaf();
    lo = std::min(a, b);
    hi = std::max(a, b);
  }
  const int64_t block = std::min<int64_t>(256, n);
  std::vector<int64_t> blocks(1 << 10);
  for (int64_t& b : blocks) b = leaf() / block * block;

  double sink = 0.0;
  const double haar_s = MedianSeconds(3, [&] {
    SpanScope s("ForwardHaar", "wavelet");
    sink += dwm::ForwardHaar(data)[0];
  });
  const double point_s = MedianSeconds(3, [&] {
    SpanScope s("PointEstimate", "wavelet");
    for (int64_t p : points) sink += synopsis.PointEstimate(p);
  });
  const double range_s = MedianSeconds(3, [&] {
    SpanScope s("RangeSum", "wavelet");
    for (const auto& [lo, hi] : ranges) sink += synopsis.RangeSum(lo, hi);
  });
  const double block_s = MedianSeconds(3, [&] {
    SpanScope s("ReconstructRange", "wavelet");
    for (int64_t first : blocks) {
      sink += synopsis.ReconstructRange(first, block)[0];
    }
  });
  g_sink = sink;
  (*layer)["wavelet.forward_haar_s"] = haar_s;
  (*layer)["wavelet.point_estimate_ns"] =
      point_s * 1e9 / static_cast<double>(points.size());
  (*layer)["wavelet.range_sum_ns"] =
      range_s * 1e9 / static_cast<double>(ranges.size());
  (*layer)["wavelet.reconstruct_block_us"] =
      block_s * 1e6 / static_cast<double>(blocks.size());
}

// Saves `frame` (unless save_ms is given, as the serve set-up already timed
// it), then times LoadSynopsisFrame and ShardRegistry::Register on it.
void ProbeFrame(const dwm::serve::SynopsisFrame& frame, const std::string& path,
                double save_ms, Outcome* out) {
  SpanScope span("probe.frame", "bench");
  if (save_ms < 0.0) {
    save_ms = 1e3 * MedianSeconds(3, [&] {
                SpanScope s("SaveSynopsisFrame", "serve");
                out->Count(dwm::serve::SaveSynopsisFrame(path, frame),
                           "SaveSynopsisFrame");
              });
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  std::vector<double> load_s;
  std::vector<double> register_s;
  dwm::serve::ShardRegistry registry;
  for (int i = 0; i < 5; ++i) {
    dwm::serve::SynopsisFrame loaded;
    load_s.push_back(TimeSeconds([&] {
      SpanScope s("LoadSynopsisFrame", "serve");
      out->Count(dwm::serve::LoadSynopsisFrame(path, &loaded),
                 "LoadSynopsisFrame");
    }));
    out->Check(SameSynopsis(loaded.synopsis, frame.synopsis),
               "a loaded frame holds the saved synopsis");
    register_s.push_back(TimeSeconds([&] {
      SpanScope s("Register", "serve");
      registry.Register({loaded.dataset, loaded.algo, loaded.budget},
                        std::move(loaded.synopsis));
    }));
  }
  out->layer["serve.frame_bytes"] = ec ? 0.0 : static_cast<double>(bytes);
  out->layer["serve.frame_save_ms"] = save_ms;
  out->layer["serve.frame_load_ms"] = Median(load_s) * 1e3;
  out->layer["serve.register_us"] = Median(register_s) * 1e6;
}

// ---------------------------------------------------------------------------
// Build workloads.

struct BuildResult {
  Status status;
  Synopsis synopsis;
  dwm::mr::SimReport report;
  double estimated_error = 0.0;  // DGreedyAbs: histogram estimate
  bool converged = true;         // DIndirectHaar
  double search_error = 0.0;     // DIndirectHaar: search.max_abs_error
  int probes = 0;                // DIndirectHaar: Problem-2 runs
};

struct BuildSpec {
  const char* name = nullptr;  // span name of the public call
  const char* dataset = nullptr;
  int64_t n = 0;
  int64_t budget = 0;
  std::function<std::vector<double>(int64_t, uint64_t)> generate;
  std::function<BuildResult(const std::vector<double>&)> build;
  // Checks specific to the algorithm, run on the warm-up build.
  std::function<void(const BuildResult&, double max_abs, Outcome*)> check;
  // Centralized baseline(s) timed in the traced run.
  std::function<void(const std::vector<double>&, Outcome*)> probe_core;
};

// MR-layer numbers of one build, read from its SimReport, plus the driver
// and outside-job time against the build's measured wall time.
void AddMrMetrics(const dwm::mr::SimReport& report, double build_wall,
                  int probes, std::map<std::string, double>* layer) {
  int64_t map_tasks = 0;
  int64_t reduce_tasks = 0;
  int64_t shuffle_records = 0;
  int64_t failed_attempts = 0;
  double map_cpu = 0.0;
  double map_task_cpu_max = 0.0;
  double reduce_cpu = 0.0;
  double job_wall = 0.0;
  double skew = 1.0;
  const auto committed_cpu = [](const dwm::mr::TaskExecution& task) {
    return task.attempts.empty() ? 0.0 : task.attempts.back().cpu_seconds;
  };
  for (const dwm::mr::JobStats& job : report.jobs) {
    map_tasks += job.map_tasks;
    reduce_tasks += job.reduce_tasks;
    shuffle_records += job.shuffle_records;
    failed_attempts += job.failed_attempts;
    job_wall += job.real_seconds;
    for (const auto& task : job.map_attempts) {
      map_cpu += committed_cpu(task);
      map_task_cpu_max = std::max(map_task_cpu_max, committed_cpu(task));
    }
    for (const auto& task : job.reduce_attempts) reduce_cpu += committed_cpu(task);
    skew = std::max(skew, dwm::mr::ReducerSkew(job).ratio);
  }
  const double threads = kWorkerThreads;
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  std::map<std::string, double>& m = *layer;
  m["mr.jobs"] = count(report.total_jobs());
  m["mr.map_tasks"] = count(map_tasks);
  m["mr.reduce_tasks"] = count(reduce_tasks);
  m["mr.map_cpu_s"] = map_cpu;
  m["mr.map_task_cpu_max_s"] = map_task_cpu_max;
  m["mr.reduce_cpu_s"] = reduce_cpu;
  m["mr.shuffle_bytes"] = count(report.total_shuffle_bytes());
  m["mr.shuffle_records"] = count(shuffle_records);
  m["mr.job_wall_s"] = job_wall;
  m["mr.parallel_efficiency"] =
      job_wall > 0.0 ? (map_cpu + reduce_cpu) / (job_wall * threads) : 0.0;
  m["mr.reducer_skew"] = skew;
  m["mr.failed_attempts"] = count(failed_attempts);
  m["mr.makespan_model_s"] = report.total_sim_seconds();
  m["dist.driver_s"] = report.driver_seconds;
  m["dist.outside_jobs_s"] =
      std::max(0.0, build_wall - job_wall - report.driver_seconds);
  m["dist.probes"] = static_cast<double>(probes);
}

void RunBuild(const BuildSpec& spec, const Args& args, Outcome* out) {
  Tracer& tracer = GlobalTracer();
  std::vector<double> data;
  Setup setup;
  const double setup_start = NowSeconds();
  while (MoreSetups(args, setup.seconds.size(), setup_start)) {
    SampleReference(&setup.reference_ms);
    setup.seconds.push_back(TimeSeconds([&] {
      SpanScope s("setup", "bench");
      SpanScope g("generate", "data");
      data = spec.generate(spec.n, args.seed);
    }));
  }

  // One build call with its span, its MR jobs as child spans, and a check
  // that it succeeded within budget.
  double last_wall = 0.0;
  const auto build_once = [&](Window* w) {
    const double cpu0 = CpuSeconds();
    const double start = NowSeconds();
    const int id = tracer.Begin(spec.name, "dist", start);
    BuildResult r = spec.build(data);
    const double end = NowSeconds();
    AddReportSpans(r.report, start);
    tracer.End(id, end);
    const double cpu = CpuSeconds() - cpu0;
    last_wall = end - start;
    out->Count(r.status, spec.name);
    out->Check(r.synopsis.size() <= spec.budget,
               std::string(spec.name) + " keeps at most B coefficients");
    if (w != nullptr) {
      w->op_seconds.push_back(last_wall);
      w->cpu_per_op.push_back(cpu);
      w->items_per_second.push_back(static_cast<double>(spec.n) / last_wall);
    }
    return r;
  };

  BuildResult warm;
  {
    SpanScope s("warmup", "bench");
    warm = build_once(nullptr);
  }
  const double max_abs = dwm::MaxAbsError(data, warm.synopsis);
  spec.check(warm, max_abs, out);
  std::printf("build      : %s n=%lld B=%lld coefficients=%lld "
              "max_abs_error=%.9g\n",
              spec.name, static_cast<long long>(spec.n),
              static_cast<long long>(spec.budget),
              static_cast<long long>(warm.synopsis.size()), max_abs);

  BuildResult last;
  const auto timed_pass = [&](Window* w) {
    last = build_once(w);
    out->Check(SameSynopsis(last.synopsis, warm.synopsis),
               std::string(spec.name) +
                   ": a timed build's synopsis is byte-identical to the "
                   "warm-up build's");
  };
  MeasureWorkload(args, setup, timed_pass, out);
  if (args.trace_path.empty()) return;

  out->layer["data.gen_s"] = Median(setup.seconds);
  AddMrMetrics(last.report, last_wall, last.probes, &out->layer);
  spec.probe_core(data, out);
  out->layer["core.max_abs_error"] = max_abs;
  ProbeWavelet(data, warm.synopsis, args.seed + 2, &out->layer);
  dwm::serve::SynopsisFrame frame;
  frame.dataset = spec.dataset;
  frame.algo = spec.name;
  frame.budget = spec.budget;
  frame.synopsis = warm.synopsis;
  const std::string frame_path = args.scratch + "/dwm_bench_build.frame";
  ProbeFrame(frame, frame_path, -1.0, out);
  std::filesystem::remove(frame_path);
}

BuildSpec DGreedySpec(bool smoke) {
  BuildSpec spec;
  spec.name = "DGreedyAbs";
  spec.dataset = "uniform";
  spec.n = int64_t{1} << (smoke ? 12 : 19);
  spec.budget = spec.n / 8;
  const int64_t base_leaves = smoke ? spec.n / 16 : int64_t{1} << 16;
  const double bucket_width = 0.01;
  const int64_t budget = spec.budget;
  spec.generate = [](int64_t n, uint64_t seed) {
    return dwm::MakeUniform(n, 1000.0, seed);
  };
  spec.build = [=](const std::vector<double>& data) {
    dwm::DGreedyOptions options;
    options.budget = budget;
    options.base_leaves = base_leaves;
    options.bucket_width = bucket_width;
    dwm::DGreedyResult r = dwm::DGreedyAbs(data, options, PaperCluster(4));
    BuildResult out;
    out.status = r.status;
    out.synopsis = std::move(r.synopsis);
    out.report = std::move(r.report);
    out.estimated_error = r.estimated_error;
    return out;
  };
  spec.check = [=](const BuildResult& r, double max_abs, Outcome* out) {
    out->Check(r.estimated_error - 1e-9 <= max_abs &&
                   max_abs <= r.estimated_error + bucket_width + 1e-9,
               "DGreedyAbs: estimated_error <= MaxAbsError <= "
               "estimated_error + e_b");
  };
  spec.probe_core = [=](const std::vector<double>& data, Outcome* out) {
    const double s = TimeSeconds([&] {
      SpanScope span("GreedyAbs", "core");
      const dwm::GreedyAbsResult r = dwm::GreedyAbs(data, budget);
      out->Check(r.synopsis.size() <= budget, "GreedyAbs keeps at most B");
    });
    out->layer["core.greedy_abs_s"] = s;
  };
  return spec;
}

BuildSpec DihSpec(bool smoke) {
  BuildSpec spec;
  spec.name = "DIndirectHaar";
  spec.dataset = "nyct";
  spec.n = int64_t{1} << (smoke ? 12 : 18);
  spec.budget = spec.n / 8;
  const int64_t subtree_inputs = smoke ? spec.n / 16 : int64_t{1} << 15;
  const double quantum = 50.0;
  const int64_t budget = spec.budget;
  spec.generate = [](int64_t n, uint64_t seed) {
    return dwm::MakeNyctLike(n, seed);
  };
  spec.build = [=](const std::vector<double>& data) {
    dwm::DIndirectHaarOptions options;
    options.budget = budget;
    options.quantum = quantum;
    options.subtree_inputs = subtree_inputs;
    dwm::DIndirectHaarResult r =
        dwm::DIndirectHaar(data, options, PaperCluster(1));
    BuildResult out;
    out.status = r.status;
    out.synopsis = std::move(r.search.synopsis);
    out.report = std::move(r.report);
    out.converged = r.search.converged;
    out.search_error = r.search.max_abs_error;
    out.probes = r.search.solver_runs;
    return out;
  };
  spec.check = [](const BuildResult& r, double max_abs, Outcome* out) {
    out->Check(r.converged, "DIndirectHaar converged");
    out->Check(std::fabs(max_abs - r.search_error) <=
                   NumericTolerance(r.search_error),
               "DIndirectHaar: MaxAbsError equals search.max_abs_error");
  };
  spec.probe_core = [=](const std::vector<double>& data, Outcome* out) {
    const double greedy_s = TimeSeconds([&] {
      SpanScope span("GreedyAbs", "core");
      const dwm::GreedyAbsResult r = dwm::GreedyAbs(data, budget);
      out->Check(r.synopsis.size() <= budget, "GreedyAbs keeps at most B");
    });
    const double indirect_s = TimeSeconds([&] {
      SpanScope span("IndirectHaar", "core");
      const dwm::IndirectHaarResult r =
          dwm::IndirectHaar(data, {budget, quantum, 40});
      out->Check(r.converged && r.synopsis.size() <= budget,
                 "IndirectHaar converges within B");
    });
    out->layer["core.greedy_abs_s"] = greedy_s;
    out->layer["core.indirect_haar_s"] = indirect_s;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Serve workloads.

struct ServeSpec {
  bool scan = false;       // serve_scan (else serve_hot)
  int64_t n = 0;
  int64_t budget = 0;
  uint64_t cache_bytes = 0;
  size_t pass_batches = 0;
  size_t reload_every = 0;  // serve_scan: batches between shard reloads
};

std::vector<std::vector<Query>> MakeStream(const ServeSpec& spec,
                                           uint64_t seed) {
  dwm::Rng rng(seed);
  const auto below = [&](int64_t bound) {
    return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(bound)));
  };
  std::vector<std::vector<Query>> batches(spec.pass_batches);
  for (size_t b = 0; b < batches.size(); ++b) {
    const bool ranges = spec.scan && b % 4 != 0;
    for (int64_t i = 0; i < kBatchSize; ++i) {
      Query q;
      if (!ranges) {
        // serve_hot: 90% over the first N/16 leaves; serve_scan: uniform.
        const bool hot = !spec.scan && rng.NextDouble() < 0.9;
        q.lo = q.hi = below(hot ? spec.n / 16 : spec.n);
      } else {
        q.type = rng.NextDouble() < 0.5 ? QueryType::kRangeSum
                                        : QueryType::kRangeAvg;
        const int64_t a = below(spec.n);
        const int64_t c = below(spec.n);
        q.lo = std::min(a, c);
        q.hi = std::max(a, c);
      }
      batches[b].push_back(q);
    }
  }
  return batches;
}

void RunServe(const ServeSpec& spec, const Args& args, Outcome* out) {
  Tracer& tracer = GlobalTracer();
  const std::string frame_path = args.scratch + "/dwm_bench_serve.frame";
  const dwm::serve::ShardKey key{"nyct", "greedy_abs", spec.budget};
  dwm::serve::EngineOptions options;
  options.cache_bytes = spec.cache_bytes;

  // Set-up: data, the shard build, the sealed frame, and registration.
  std::vector<double> data;
  double eps = 0.0;
  std::unique_ptr<dwm::serve::QueryEngine> engine;
  dwm::serve::SynopsisFrame frame;
  Setup setup;
  std::vector<double> gen_s, greedy_s, save_s;
  const double setup_start = NowSeconds();
  while (MoreSetups(args, setup.seconds.size(), setup_start)) {
    SampleReference(&setup.reference_ms);
    const double start = NowSeconds();
    SpanScope s("setup", "bench");
    gen_s.push_back(TimeSeconds([&] {
      SpanScope g("generate", "data");
      data = dwm::MakeNyctLike(spec.n, args.seed);
    }));
    greedy_s.push_back(TimeSeconds([&] {
      SpanScope g("GreedyAbs", "core");
      dwm::GreedyAbsResult built = dwm::GreedyAbs(data, spec.budget);
      eps = built.max_abs_error;
      frame.dataset = key.dataset;
      frame.algo = key.algo;
      frame.budget = key.budget;
      frame.synopsis = std::move(built.synopsis);
    }));
    save_s.push_back(TimeSeconds([&] {
      SpanScope g("SaveSynopsisFrame", "serve");
      out->Count(dwm::serve::SaveSynopsisFrame(frame_path, frame),
                 "SaveSynopsisFrame");
    }));
    engine = std::make_unique<dwm::serve::QueryEngine>(options);
    {
      SpanScope g("RegisterFile", "serve");
      out->Count(engine->registry().RegisterFile(frame_path, key),
                 "RegisterFile");
    }
    setup.seconds.push_back(NowSeconds() - start);
  }
  const double max_abs = dwm::MaxAbsError(data, frame.synopsis);
  out->Check(frame.synopsis.size() <= spec.budget,
             "GreedyAbs keeps at most B coefficients");
  out->Check(std::fabs(max_abs - eps) <= NumericTolerance(eps),
             "GreedyAbs max_abs_error matches MaxAbsError");
  std::printf("shard      : nyct n=%lld B=%lld coefficients=%lld eps=%.9g "
              "cache=%llu bytes\n",
              static_cast<long long>(spec.n),
              static_cast<long long>(spec.budget),
              static_cast<long long>(frame.synopsis.size()), eps,
              static_cast<unsigned long long>(spec.cache_bytes));

  // Exact answers come from prefix sums of the source data.
  std::vector<long double> prefix(data.size() + 1, 0.0L);
  for (size_t i = 0; i < data.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<long double>(data[i]);
  }
  const auto check_answer = [&](const Query& q, double answer) {
    const int64_t k = q.type == QueryType::kPoint ? 1 : q.hi - q.lo + 1;
    const double sum = static_cast<double>(
        prefix[static_cast<size_t>(q.lo + k)] - prefix[static_cast<size_t>(q.lo)]);
    const double exact =
        q.type == QueryType::kRangeAvg ? sum / static_cast<double>(k) : sum;
    const double bound =
        q.type == QueryType::kRangeSum ? static_cast<double>(k) * eps : eps;
    return std::fabs(answer - exact) <=
           bound + NumericTolerance(std::fabs(exact) + bound);
  };

  const std::vector<std::vector<Query>> stream = MakeStream(spec, args.seed + 1);
  std::vector<std::vector<double>> answers(stream.size());
  const auto pass = [&](Window* w) {
    double busy = 0.0;
    const double cpu0 = CpuSeconds();
    for (size_t b = 0; b < stream.size(); ++b) {
      if (spec.scan && b > 0 && b % spec.reload_every == 0) {
        const double t0 = NowSeconds();
        const int id = tracer.Begin("RegisterFile", "serve", t0);
        const Status status = engine->registry().RegisterFile(frame_path, key);
        const double t1 = NowSeconds();
        tracer.End(id, t1);
        out->Count(status, "RegisterFile");
        busy += t1 - t0;
        if (w != nullptr) w->reload_ms.push_back((t1 - t0) * 1e3);
      }
      const double t0 = NowSeconds();
      const int id = tracer.Begin("AnswerBatch", "serve", t0);
      const Status status = engine->AnswerBatch(key, stream[b], &answers[b]);
      const double t1 = NowSeconds();
      tracer.End(id, t1);
      out->Count(status, "AnswerBatch");
      busy += t1 - t0;
      if (w == nullptr) continue;
      w->op_seconds.push_back(t1 - t0);
      (stream[b][0].type == QueryType::kPoint ? w->point_us : w->range_us)
          .push_back((t1 - t0) * 1e6);
    }
    const double cpu = CpuSeconds() - cpu0;
    const double queries = static_cast<double>(stream.size()) *
                           static_cast<double>(kBatchSize);
    if (w != nullptr) {
      w->cpu_per_op.push_back(cpu / static_cast<double>(stream.size()));
      w->items_per_second.push_back(queries / busy);
    }
    int64_t bad = 0;
    for (size_t b = 0; b < stream.size(); ++b) {
      if (answers[b].size() != stream[b].size()) {
        ++bad;
        continue;
      }
      for (size_t i = 0; i < stream[b].size(); ++i) {
        if (!check_answer(stream[b][i], answers[b][i])) ++bad;
      }
    }
    out->Check(bad == 0, std::to_string(bad) +
                             " served answers outside their guarantee");
  };

  {
    SpanScope s("warmup", "bench");
    pass(nullptr);
  }
  const dwm::serve::SubtreeCache::Stats cache0 = engine->CacheStats();
  const Window untraced = MeasureWorkload(args, setup, pass, out);
  const dwm::serve::SubtreeCache::Stats cache1 = engine->CacheStats();

  // Tail of the untraced window, per batch type, with its sample count.
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{"point",
                                                           &untraced.point_us},
        {"range", &untraced.range_us}}) {
    if (samples->empty()) continue;
    std::printf("tail       : %s batches p50 %.4g us, p99 %.4g us "
                "(n=%zu, %zu beyond p99)\n",
                name, Median(*samples), Quantile(*samples, 0.99),
                samples->size(), samples->size() / 100);
  }
  if (args.trace_path.empty()) {
    std::filesystem::remove(frame_path);
    return;
  }

  // Engine turnaround minus direct Synopsis calls for the same queries.
  double engine_s = 0.0;
  double direct_s = 0.0;
  if (const dwm::serve::Shard* shard = engine->registry().Find(key)) {
    SpanScope s("probe.engine_vs_direct", "bench");
    double sink = 0.0;
    std::vector<double> results;
    for (const std::vector<Query>& batch : stream) {
      engine_s += TimeSeconds([&] {
        out->Count(engine->AnswerBatch(key, batch, &results), "AnswerBatch");
      });
      direct_s += TimeSeconds([&] {
        for (const Query& q : batch) {
          if (q.type == QueryType::kPoint) {
            sink += shard->synopsis.PointEstimate(q.lo);
          } else {
            const double sum = shard->synopsis.RangeSum(q.lo, q.hi);
            sink += q.type == QueryType::kRangeSum
                        ? sum
                        : sum / static_cast<double>(q.hi - q.lo + 1);
          }
        }
      });
    }
    g_sink = sink;
  }
  const double queries = static_cast<double>(stream.size()) *
                         static_cast<double>(kBatchSize);
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;

  std::map<std::string, double>& m = out->layer;
  m["data.gen_s"] = Median(gen_s);
  m["core.greedy_abs_s"] = Median(greedy_s);
  m["core.max_abs_error"] = max_abs;
  ProbeWavelet(data, frame.synopsis, args.seed + 2, &m);
  ProbeFrame(frame, frame_path, Median(save_s) * 1e3, out);
  std::filesystem::remove(frame_path);
  m["serve.cache_hit_rate"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  m["serve.cache_misses"] = static_cast<double>(misses);
  m["serve.cache_evictions"] =
      static_cast<double>(cache1.evictions - cache0.evictions);
  m["serve.engine_minus_direct_ns"] = (engine_s - direct_s) * 1e9 / queries;
  m["serve.point_batch_p50_us"] = Median(untraced.point_us);
  m["serve.range_batch_p50_us"] = Median(untraced.range_us);
  m["serve.reload_p50_ms"] = Median(untraced.reload_ms);
}

ServeSpec ServeWorkload(bool scan, bool smoke) {
  ServeSpec spec;
  spec.scan = scan;
  spec.n = int64_t{1} << (smoke ? 12 : 21);
  spec.budget = spec.n / 128;
  // Half the shard's 256-leaf blocks fit: the hot set (N/16 leaves) stays
  // resident, a uniform stream misses about half the time.
  spec.cache_bytes = static_cast<uint64_t>(spec.n / 256 / 2) * (256 * 8 + 64);
  spec.pass_batches = smoke ? 8 : (scan ? 1400 : 4000);
  spec.reload_every = smoke ? 4 : 100;
  return spec;
}

// ---------------------------------------------------------------------------

void RemoveDwmEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.starts_with("DWM_")) {
      names.emplace_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
    std::printf("env        : removed %s\n", name.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return args->workload == "build_dgreedy" || args->workload == "build_dih" ||
         args->workload == "serve_hot" || args->workload == "serve_scan";
}

}  // namespace

int main(int argc, char** argv) {
  NowSeconds();  // fixes the trace epoch at process start
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dwm_bench --workload build_dgreedy|build_dih|"
                 "serve_hot|serve_scan --seed S [--seconds T] [--trace FILE] "
                 "[--scratch DIR] [--smoke]\n");
    return 2;
  }
  if (args.smoke) args.seconds = 0.0;  // exactly the minimum passes
  RemoveDwmEnvironment();
  std::vector<double> reference_ms;
  SampleReference(&reference_ms);
  std::printf("header     : workload=%s seed=%llu seconds=%g threads=%d "
              "reference_ms=%.4f%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, kWorkerThreads, Median(reference_ms),
              args.smoke ? " smoke" : "");

  Tracer& tracer = GlobalTracer();
  tracer.set_enabled(!args.trace_path.empty());
  Outcome out;
  if (args.workload == "build_dgreedy") {
    RunBuild(DGreedySpec(args.smoke), args, &out);
  } else if (args.workload == "build_dih") {
    RunBuild(DihSpec(args.smoke), args, &out);
  } else {
    RunServe(ServeWorkload(args.workload == "serve_scan", args.smoke), args,
             &out);
  }

  for (const Metric& m : out.end_to_end) PrintMetric(m);
  std::vector<Metric> layer;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = out.layer.find(name);
    layer.push_back({name, it == out.layer.end() ? 0.0 : it->second, unit});
  }
  if (!args.trace_path.empty()) {
    for (const Metric& m : layer) PrintMetric(m);
    for (const auto& [name, seconds] : tracer.LayerSelfSeconds()) {
      std::printf("self time  : %-8s %.6f s\n", name.c_str(), seconds);
    }
    if (!tracer.WriteChromeTrace(args.trace_path)) {
      out.Check(false, "cannot write trace " + args.trace_path);
    }
    std::printf("trace      : %zu spans -> %s\n", tracer.size(),
                args.trace_path.c_str());
  }
  std::printf("result     : attempted=%lld failed=%lld failed_frac=%.6g %s\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              static_cast<double>(out.failed) /
                  static_cast<double>(std::max<int64_t>(out.attempted, 1)),
              out.correct ? "correct" : "INCORRECT");
  PrintJsonLine(out, args.trace_path.empty() ? out.end_to_end : layer);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
