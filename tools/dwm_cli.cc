// dwm_cli: command-line front end for building, inspecting and querying
// max-error wavelet synopses.
//
//   dwm_cli gen   --dataset uniform|zipf07|zipf15|nyct|wd --n N
//                 [--max M] [--seed S] --output data.bin
//   dwm_cli build --input data.bin --algo greedy-abs|greedy-rel|conventional|
//                 indirect-haar|minmaxvar --budget B [--sanity S]
//                 [--quantum Q] --output synopsis.dwm
//   dwm_cli dbuild --input data.bin --algo dgreedy-abs|dgreedy-rel|dcon|
//                 send-v|send-coef|hwtopk|dmhs|dmmv|dih --budget B
//                 [--base-leaves L] [--sanity S] [--quantum Q] [--eps E]
//                 [--threads T] [--faults seed[:k=v,...]]
//                 [--checkpoint DIR] [--trace t.json]
//                 [--trace-stable t.json] [--metrics[=m.prom]]
//                 --output synopsis.dwm
//   dwm_cli info  --synopsis synopsis.dwm
//   dwm_cli point --synopsis synopsis.dwm --index I
//   dwm_cli sum   --synopsis synopsis.dwm --from A --to B
//   dwm_cli eval  --synopsis synopsis.dwm --input data.bin [--sanity S]
//   dwm_cli pack  --synopsis synopsis.dwm [--dataset D] [--algo A]
//                 [--budget B] --output synopsis.dwms
//   dwm_cli query --synopsis synopsis.dwm[s] (--queries FILE|- |
//                 --type point|sum|avg --from A [--to B])
//   dwm_cli serve --synopsis file[,file...]   (query protocol on stdin)
//
// Every synopsis file dwm_cli writes is one versioned, checksummed serve
// frame (src/serve/format.h), and every subcommand that takes --synopsis
// reads frames and legacy DWMSYN01 files alike. `build` and `dbuild` write
// no provenance; `pack` only sets it (--dataset/--algo/--budget). `query`
// answers a one-shot batch through the serving engine; `serve` is the
// long-running loop reading one command per line from stdin:
//   point I | sum A B | avg A B   answer against the current shard
//   batch K                       answer the next K query lines as a batch
//   use DATASET ALGO BUDGET       switch the current shard
//   shards                        list registered shards
//   stats                         per-type query counts, request id
//   metrics                       Prometheus scrape, ends with "end metrics"
//   loglevel debug|info|warn|error  runtime log-level change
//   trace on FILE | trace off     collect request spans; off (or quit/EOF)
//                                 writes the Chrome trace to FILE
//   quit                          exit
// Serve output is deterministic for a fixed script (the serve determinism
// gate pipes the same script at DWM_THREADS=1 and 8 and byte-compares;
// `metrics` and `trace` output is measured, so scripted determinism runs
// must not diff those).
//
// Inputs whose size is not a power of two are padded by repeating the last
// value (see PadToPowerOfTwo).
//
// dwm-lint: allow-file(no-raw-stderr): interactive CLI; usage and error
// reporting go to the terminal's stderr by design, not the structured log.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/env.h"
#include "common/log.h"
#include "common/metrics.h"
#include "core/conventional.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "core/indirect_haar.h"
#include "core/min_max_var.h"
#include "data/generators.h"
#include "data/io.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "dist/dmin_haar_space.h"
#include "dist/dmin_max_var.h"
#include "dist/hwtopk.h"
#include "dist/send_coef.h"
#include "dist/send_v.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/trace.h"
#include "serve/engine.h"
#include "serve/format.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace {

using Flags = std::map<std::string, std::string>;

// Flags that may appear bare ("--metrics") as well as with a value
// ("--metrics=FILE"); bare spelling stores the empty string.
bool TakesOptionalValue(const std::string& name) { return name == "metrics"; }

// Accepts both "--flag value" and "--flag=value".
Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      std::exit(2);
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      continue;
    }
    const std::string name = arg.substr(2);
    if (TakesOptionalValue(name) &&
        (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0)) {
      flags[name] = "";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      std::exit(2);
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::string Require(const Flags& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
    std::exit(2);
  }
  return it->second;
}

std::string Optional(const Flags& flags, const std::string& name,
                     const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

// Numeric flags parse strictly (common/env.h): "--budget 1e3" or
// "--threads abc" is a usage error (exit 2), never a silent prefix or 0.
// A null `fallback` makes the flag required.
int64_t IntFlag(const Flags& flags, const std::string& name,
                const char* fallback = nullptr,
                int64_t max = std::numeric_limits<int64_t>::max()) {
  const std::string text = fallback == nullptr
                               ? Require(flags, name)
                               : Optional(flags, name, fallback);
  int64_t value = 0;
  if (!dwm::ParseInt(text, 0, max, &value)) {
    std::fprintf(stderr, "bad --%s '%s' (want an integer in [0, %lld])\n",
                 name.c_str(), text.c_str(), static_cast<long long>(max));
    std::exit(2);
  }
  return value;
}

double DoubleFlag(const Flags& flags, const std::string& name,
                  const char* fallback) {
  const std::string text = Optional(flags, name, fallback);
  double value = 0.0;
  if (!dwm::ParseDouble(text, &value)) {
    std::fprintf(stderr, "bad --%s '%s' (want a finite number)\n",
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  return value;
}

// DoubleFlag with a lower bound, for the DP knobs whose kernels require one
// (--quantum > 0, --eps >= 0): out of range is a usage error naming the
// flag, not a failed DWM_CHECK.
double DoubleFlagAbove(const Flags& flags, const std::string& name,
                       const char* fallback, double floor, bool or_equal) {
  const double value = DoubleFlag(flags, name, fallback);
  if (value < floor || (value == floor && !or_equal)) {
    std::fprintf(stderr, "bad --%s %g (want a number %s %g)\n",
                 name.c_str(), value, or_equal ? ">=" : ">", floor);
    std::exit(2);
  }
  return value;
}

double QuantumFlag(const Flags& flags, const char* fallback) {
  return DoubleFlagAbove(flags, "quantum", fallback, 0.0, false);
}

// Prints a failed `status` to stderr; true when it failed.
bool Failed(const dwm::Status& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return true;
}

std::vector<double> LoadData(const std::string& path) {
  std::vector<double> data;
  dwm::Status status = path.size() > 4 && path.substr(path.size() - 4) == ".csv"
                           ? dwm::ReadDoublesCsv(path, &data)
                           : dwm::ReadDoublesBinary(path, &data);
  if (Failed(status)) std::exit(1);
  if (data.empty()) {
    std::fprintf(stderr, "empty input: %s\n", path.c_str());
    std::exit(1);
  }
  return data;
}

// Loads any synopsis file dwm_cli ever wrote: a DWMSRV01 frame (what
// build, dbuild and pack write) or a legacy DWMSYN01 file.
dwm::serve::SynopsisFrame LoadFrame(const std::string& path) {
  dwm::serve::SynopsisFrame frame;
  if (Failed(dwm::serve::LoadServableSynopsis(path, &frame))) std::exit(1);
  return frame;
}

// Writes a built synopsis to --output as a frame without provenance
// (budget = retained count, exactly what `pack` makes of a legacy file),
// then prints the build summary. Returns the exit code.
int SaveBuilt(const Flags& flags, const std::string& algo,
              dwm::Synopsis synopsis, const std::vector<double>& data,
              int64_t original) {
  dwm::serve::SynopsisFrame frame;
  frame.budget = synopsis.size();
  frame.synopsis = std::move(synopsis);
  if (Failed(dwm::serve::SaveSynopsisFrame(Require(flags, "output"), frame))) {
    return 1;
  }
  std::printf(
      "%s synopsis: %lld coefficients over %lld values (%lld original), "
      "max_abs %.4f\n",
      algo.c_str(), static_cast<long long>(frame.synopsis.size()),
      static_cast<long long>(frame.synopsis.domain_size()),
      static_cast<long long>(original),
      dwm::MaxAbsError(data, frame.synopsis));
  return 0;
}

int CmdGen(const Flags& flags) {
  const std::string dataset = Require(flags, "dataset");
  const int64_t n = IntFlag(flags, "n");
  const uint64_t seed = static_cast<uint64_t>(IntFlag(flags, "seed", "1"));
  const double max_value = DoubleFlag(flags, "max", "1000");
  std::vector<double> data;
  if (dataset == "uniform") {
    data = dwm::MakeUniform(n, max_value, seed);
  } else if (dataset == "zipf07") {
    data = dwm::MakeZipf(n, 0.7, static_cast<int64_t>(max_value), seed);
  } else if (dataset == "zipf15") {
    data = dwm::MakeZipf(n, 1.5, static_cast<int64_t>(max_value), seed);
  } else if (dataset == "nyct") {
    data = dwm::MakeNyctLike(n, seed);
  } else if (dataset == "wd") {
    data = dwm::MakeWdLike(n, seed);
  } else {
    std::fprintf(stderr, "unknown dataset: %s\n", dataset.c_str());
    return 2;
  }
  if (Failed(dwm::WriteDoublesBinary(Require(flags, "output"), data))) {
    return 1;
  }
  const dwm::DataStats stats = dwm::ComputeStats(data);
  std::printf("wrote %lld values (avg %.2f stdev %.2f max %.2f)\n",
              static_cast<long long>(data.size()), stats.avg, stats.stdev,
              stats.max);
  return 0;
}

int CmdBuild(const Flags& flags) {
  std::vector<double> data = LoadData(Require(flags, "input"));
  const int64_t original = dwm::PadToPowerOfTwo(&data);
  const std::string algo = Require(flags, "algo");
  const int64_t budget = IntFlag(flags, "budget");
  const double sanity = DoubleFlag(flags, "sanity", "1");

  dwm::Synopsis synopsis;
  if (algo == "greedy-abs") {
    synopsis = dwm::GreedyAbs(data, budget).synopsis;
  } else if (algo == "greedy-rel") {
    synopsis = dwm::GreedyRel(data, budget, sanity).synopsis;
  } else if (algo == "conventional") {
    synopsis = dwm::ConventionalSynopsis(data, budget);
  } else if (algo == "indirect-haar") {
    const dwm::IndirectHaarResult r =
        dwm::IndirectHaar(data, {budget, QuantumFlag(flags, "1"), 60});
    if (!r.converged) {
      std::fprintf(stderr,
                   "indirect-haar did not converge (quantum too coarse?)\n");
      return 1;
    }
    synopsis = r.synopsis;
  } else if (algo == "minmaxvar") {
    synopsis = dwm::MinMaxVar(data, {budget, 4, 1}).synopsis;
  } else {
    std::fprintf(stderr, "unknown algorithm: %s\n", algo.c_str());
    return 2;
  }
  return SaveBuilt(flags, algo, std::move(synopsis), data, original);
}

// Distributed construction on the simulated cluster. --threads sets the
// engine's real worker-thread count (0 = auto: DWM_THREADS env, then
// hardware concurrency); results are byte-identical at any setting.
// --faults seed[:k=v,...] injects deterministic failures/stragglers/node
// loss (same format as the DWM_FAULTS env knob; see src/mr/faults.h) —
// results stay byte-identical unless a task exhausts its retries, in which
// case dbuild reports the job that died and exits nonzero.
// --checkpoint DIR (or DWM_CHECKPOINT=DIR) snapshots each completed
// pipeline stage into DIR; a rerun with the same flags resumes from the
// last committed stage and produces the same synopsis bytes.
int CmdDBuild(const Flags& flags) {
  std::vector<double> data = LoadData(Require(flags, "input"));
  const int64_t original = dwm::PadToPowerOfTwo(&data);
  const std::string algo = Require(flags, "algo");
  const int64_t budget = IntFlag(flags, "budget");
  const double sanity = DoubleFlag(flags, "sanity", "1");
  // --base-leaves is the partition's leaves per base sub-tree for dcon,
  // dmmv and dgreedy-* (a power of two >= 2, clamped to n/2) and the mapper
  // count for send-v, send-coef and hwtopk.
  int64_t base_leaves = IntFlag(flags, "base-leaves", "256");
  const bool partitioned =
      algo == "dcon" || algo == "dmmv" || algo.rfind("dgreedy-", 0) == 0;
  if (base_leaves == 0 ||
      (partitioned &&
       (base_leaves < 2 ||
        !dwm::IsPowerOfTwo(static_cast<uint64_t>(base_leaves))))) {
    std::fprintf(stderr, "bad --base-leaves %lld (want %s)\n",
                 static_cast<long long>(base_leaves),
                 partitioned ? "a power of two >= 2" : "an integer >= 1");
    return 2;
  }
  if (partitioned) {
    base_leaves =
        std::min<int64_t>(base_leaves, static_cast<int64_t>(data.size()) / 2);
  }
  dwm::mr::ClusterConfig cluster;
  cluster.worker_threads = static_cast<int>(
      IntFlag(flags, "threads", "0", std::numeric_limits<int>::max()));
  const std::string faults_text = Optional(flags, "faults", "");
  if (!faults_text.empty()) {
    const dwm::Status parsed =
        dwm::mr::FaultPlan::Parse(faults_text, &cluster.faults);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--faults: %s\n", parsed.ToString().c_str());
      return 2;
    }
  }
  cluster.checkpoint_dir = Optional(flags, "checkpoint", "");

  dwm::Synopsis synopsis;
  dwm::mr::SimReport report;
  dwm::Status job_status;
  if (algo == "dgreedy-abs" || algo == "dgreedy-rel") {
    dwm::DGreedyOptions options;
    options.budget = budget;
    options.base_leaves = base_leaves;
    dwm::DGreedyResult r = algo == "dgreedy-abs"
                               ? dwm::DGreedyAbs(data, options, cluster)
                               : dwm::DGreedyRel(data, options, sanity, cluster);
    synopsis = std::move(r.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "dcon") {
    dwm::DistSynopsisResult r = dwm::RunCon(data, budget, base_leaves, cluster);
    synopsis = std::move(r.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "send-v") {
    dwm::DistSynopsisResult r =
        dwm::RunSendV(data, budget, base_leaves, cluster);
    synopsis = std::move(r.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "send-coef") {
    dwm::DistSynopsisResult r =
        dwm::RunSendCoef(data, budget, base_leaves, cluster);
    synopsis = std::move(r.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "hwtopk") {
    dwm::DistSynopsisResult r =
        dwm::RunHWTopk(data, budget, base_leaves, cluster);
    synopsis = std::move(r.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "dmhs") {
    dwm::DmhsOptions options;
    options.error_bound = DoubleFlagAbove(flags, "eps", "1", 0.0, true);
    options.quantum = QuantumFlag(flags, "0.5");
    options.subtree_inputs =
        std::min<int64_t>(options.subtree_inputs,
                          static_cast<int64_t>(data.size()) / 2);
    dwm::DmhsResult r = dwm::DMinHaarSpace(data, options, cluster);
    if (r.status.ok() && !r.result.feasible) {
      std::fprintf(stderr,
                   "dmhs: no synopsis meets --eps %g at --quantum %g\n",
                   options.error_bound, options.quantum);
      return 1;
    }
    synopsis = std::move(r.result.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "dmmv") {
    dwm::MinMaxVarOptions options;
    options.budget = budget;
    dwm::DMinMaxVarResult r =
        dwm::DMinMaxVar(data, options, base_leaves, cluster);
    synopsis = std::move(r.result.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else if (algo == "dih") {
    dwm::DIndirectHaarOptions options;
    options.budget = budget;
    options.quantum = QuantumFlag(flags, "0.5");
    options.subtree_inputs =
        std::min<int64_t>(options.subtree_inputs,
                          static_cast<int64_t>(data.size()) / 2);
    dwm::DIndirectHaarResult r = dwm::DIndirectHaar(data, options, cluster);
    if (r.status.ok() && !r.search.converged) {
      std::fprintf(stderr, "dih: binary search did not converge\n");
      return 1;
    }
    synopsis = std::move(r.search.synopsis);
    report = std::move(r.report);
    job_status = r.status;
  } else {
    std::fprintf(stderr, "unknown distributed algorithm: %s\n", algo.c_str());
    return 2;
  }
  if (!job_status.ok()) {
    std::fprintf(stderr, "dbuild failed after %lld completed jobs: %s\n",
                 static_cast<long long>(
                     std::max<int64_t>(report.total_jobs() - 1, 0)),
                 job_status.ToString().c_str());
    return 1;
  }
  if (SaveBuilt(flags, algo, std::move(synopsis), data, original) != 0) {
    return 1;
  }
  std::printf(
      "cluster    : %lld jobs, %lld shuffle bytes, %.3f simulated s "
      "(%d engine threads)\n",
      static_cast<long long>(report.total_jobs()),
      static_cast<long long>(report.total_shuffle_bytes()),
      report.total_sim_seconds(),
      dwm::mr::ResolveWorkerThreads(cluster.worker_threads));
  const dwm::mr::FaultPlan& plan = dwm::mr::EffectiveFaultPlan(cluster.faults);
  if (plan.active()) {
    int64_t attempts = 0;
    int64_t failed = 0;
    int64_t backups = 0;
    for (const dwm::mr::JobStats& job : report.jobs) {
      attempts += job.task_attempts;
      failed += job.failed_attempts;
      backups += job.speculative_backups;
    }
    std::printf(
        "faults     : seed %llu, %lld task attempts (%lld failed, "
        "%lld speculative backups)\n",
        static_cast<unsigned long long>(plan.seed()),
        static_cast<long long>(attempts), static_cast<long long>(failed),
        static_cast<long long>(backups));
  }

  // Trace export: --trace FILE writes Chrome trace_event JSON (open in
  // chrome://tracing or Perfetto); --trace-stable FILE writes the
  // byte-stable variant (measured-derived fields zeroed) used by the CI
  // determinism check; DWM_TRACE=FILE is the env spelling of --trace. Any
  // of the three also prints the per-job phase table.
  std::string trace_path = Optional(flags, "trace", "");
  if (trace_path.empty()) {
    if (const char* env = std::getenv("DWM_TRACE")) trace_path = env;
  }
  const std::string stable_path = Optional(flags, "trace-stable", "");
  if (!trace_path.empty() || !stable_path.empty()) {
    const dwm::mr::Trace trace = dwm::mr::BuildTrace(report, cluster);
    if (!trace_path.empty()) {
      if (!WriteTextFile(trace_path, dwm::mr::ChromeTraceJson(trace))) {
        return 1;
      }
      std::printf("trace      : wrote %s (%lld spans, faults: %s)\n",
                  trace_path.c_str(),
                  static_cast<long long>(trace.spans.size()),
                  trace.fault_summary.c_str());
    }
    if (!stable_path.empty()) {
      dwm::mr::ChromeTraceOptions options;
      options.stable = true;
      if (!WriteTextFile(stable_path,
                         dwm::mr::ChromeTraceJson(trace, options))) {
        return 1;
      }
      std::printf("trace      : wrote %s (stable, %lld spans)\n",
                  stable_path.c_str(),
                  static_cast<long long>(trace.spans.size()));
    }
    std::printf("%s", dwm::mr::PhaseTableText(report).c_str());
  }

  // Metrics export: bare --metrics prints the process metrics registry in
  // Prometheus text-exposition format to stdout; --metrics=FILE writes it
  // to FILE instead. DWM_METRICS=PREFIX is the env spelling, writing
  // PREFIX.dbuild.prom (same path scheme as the bench harnesses).
  if (flags.count("metrics") != 0) {
    const std::string text = dwm::metrics::Default().PrometheusText();
    const std::string metrics_path = flags.at("metrics");
    if (metrics_path.empty()) {
      std::printf("%s", text.c_str());
    } else {
      if (!WriteTextFile(metrics_path, text)) return 1;
      std::printf("metrics    : wrote %s\n", metrics_path.c_str());
    }
  }
  if (const char* prefix = std::getenv("DWM_METRICS");
      prefix != nullptr && prefix[0] != '\0') {
    const std::string metrics_path = std::string(prefix) + ".dbuild.prom";
    if (!WriteTextFile(metrics_path,
                       dwm::metrics::Default().PrometheusText())) {
      return 1;
    }
    std::printf("metrics    : wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  const dwm::Synopsis synopsis =
      LoadFrame(Require(flags, "synopsis")).synopsis;
  std::printf("domain size : %lld\n",
              static_cast<long long>(synopsis.domain_size()));
  std::printf("coefficients: %lld\n", static_cast<long long>(synopsis.size()));
  std::printf("compression : %.1fx\n",
              static_cast<double>(synopsis.domain_size()) /
                  static_cast<double>(std::max<int64_t>(synopsis.size(), 1)));
  const auto& cs = synopsis.coefficients();
  for (int64_t i = 0; i < std::min<int64_t>(8, synopsis.size()); ++i) {
    std::printf("  c[%lld] = %.6g\n",
                static_cast<long long>(cs[static_cast<size_t>(i)].index),
                cs[static_cast<size_t>(i)].value);
  }
  return 0;
}

int CmdPoint(const Flags& flags) {
  const dwm::Synopsis synopsis =
      LoadFrame(Require(flags, "synopsis")).synopsis;
  const int64_t index = IntFlag(flags, "index");
  if (index >= synopsis.domain_size()) {
    std::fprintf(stderr, "index out of range\n");
    return 2;
  }
  std::printf("%.10g\n", synopsis.PointEstimate(index));
  return 0;
}

int CmdSum(const Flags& flags) {
  const dwm::Synopsis synopsis =
      LoadFrame(Require(flags, "synopsis")).synopsis;
  const int64_t from = IntFlag(flags, "from");
  const int64_t to = IntFlag(flags, "to");
  if (to < from || to >= synopsis.domain_size()) {
    std::fprintf(stderr, "bad range\n");
    return 2;
  }
  std::printf("%.10g\n", synopsis.RangeSum(from, to));
  return 0;
}

int CmdEval(const Flags& flags) {
  const dwm::Synopsis synopsis =
      LoadFrame(Require(flags, "synopsis")).synopsis;
  std::vector<double> data = LoadData(Require(flags, "input"));
  dwm::PadToPowerOfTwo(&data);
  if (static_cast<int64_t>(data.size()) != synopsis.domain_size()) {
    std::fprintf(stderr, "synopsis domain (%lld) != padded input size (%lld)\n",
                 static_cast<long long>(synopsis.domain_size()),
                 static_cast<long long>(data.size()));
    return 2;
  }
  const double sanity = DoubleFlag(flags, "sanity", "1");
  std::printf("max_abs: %.6f\n", dwm::MaxAbsError(data, synopsis));
  std::printf("max_rel: %.6f (sanity %.3f)\n",
              dwm::MaxRelError(data, synopsis, sanity), sanity);
  std::printf("l2     : %.6f\n", dwm::L2Error(data, synopsis));
  return 0;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Parses one protocol line ("point I", "sum A B", "avg A B"); false on
// anything else, including trailing junk.
bool ParseQueryLine(const std::string& line, dwm::serve::Query* query) {
  std::istringstream ss(line);
  std::string op;
  if (!(ss >> op)) return false;
  if (op == "point") {
    query->type = dwm::serve::QueryType::kPoint;
    if (!(ss >> query->lo)) return false;
    query->hi = query->lo;
  } else if (op == "sum" || op == "avg") {
    query->type = op == "sum" ? dwm::serve::QueryType::kRangeSum
                              : dwm::serve::QueryType::kRangeAvg;
    if (!(ss >> query->lo >> query->hi)) return false;
  } else {
    return false;
  }
  std::string rest;
  return !(ss >> rest);
}

// Splits a comma-separated --synopsis list; empty segments are rejected by
// the loader's IOError.
std::vector<std::string> SplitPaths(const std::string& list) {
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      paths.push_back(list.substr(start));
      break;
    }
    paths.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return paths;
}

// Registers `path` with a filename-derived fallback key (used when the
// file is a legacy synopsis with no provenance of its own).
dwm::Status RegisterPath(dwm::serve::QueryEngine& engine,
                         const std::string& path) {
  dwm::serve::ShardKey fallback;
  fallback.dataset = BaseName(path);
  fallback.algo = "synopsis";
  return engine.registry().RegisterFile(path, fallback);
}

int CmdPack(const Flags& flags) {
  dwm::serve::SynopsisFrame frame = LoadFrame(Require(flags, "synopsis"));
  frame.dataset = Optional(flags, "dataset", frame.dataset);
  frame.algo = Optional(flags, "algo", frame.algo);
  if (flags.count("budget") != 0) frame.budget = IntFlag(flags, "budget");
  const std::string output = Require(flags, "output");
  if (Failed(dwm::serve::SaveSynopsisFrame(output, frame))) return 1;
  std::printf("packed %lld coefficients over %lld values into %s "
              "(dataset '%s', algo '%s', B=%lld)\n",
              static_cast<long long>(frame.synopsis.size()),
              static_cast<long long>(frame.synopsis.domain_size()),
              output.c_str(), frame.dataset.c_str(), frame.algo.c_str(),
              static_cast<long long>(frame.budget));
  return 0;
}

int CmdQuery(const Flags& flags) {
  dwm::serve::QueryEngine engine;
  if (Failed(RegisterPath(engine, Require(flags, "synopsis")))) return 1;
  const dwm::serve::ShardKey key = engine.registry().Keys().front();

  std::vector<dwm::serve::Query> queries;
  if (flags.count("queries") != 0) {
    const std::string path = flags.at("queries");
    std::ifstream file;
    if (path != "-") {
      file.open(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
      }
    }
    std::istream& in = path == "-" ? std::cin : file;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      dwm::serve::Query query;
      if (!ParseQueryLine(line, &query)) {
        std::fprintf(stderr, "bad query line: %s\n", line.c_str());
        return 2;
      }
      queries.push_back(query);
    }
  } else {
    dwm::serve::Query query;
    const std::string type = Optional(flags, "type", "point");
    const std::string from = Require(flags, "from");
    const std::string line =
        type == "point" ? type + " " + from
                        : type + " " + from + " " + Require(flags, "to");
    if (!ParseQueryLine(line, &query)) {
      std::fprintf(stderr, "bad query: %s\n", line.c_str());
      return 2;
    }
    queries.push_back(query);
  }

  std::vector<double> results;
  if (Failed(engine.AnswerBatch(key, queries, &results))) return 1;
  for (const double r : results) std::printf("%.10g\n", r);
  return 0;
}

int CmdServe(const Flags& flags) {
  dwm::serve::QueryEngine engine;
  for (const std::string& path : SplitPaths(Require(flags, "synopsis"))) {
    if (Failed(RegisterPath(engine, path))) return 1;
  }
  const auto print_shards = [&] {
    for (const dwm::serve::ShardKey& key : engine.registry().Keys()) {
      const dwm::serve::Shard* shard = engine.registry().Find(key);
      std::printf("shard %s %s %lld domain=%lld coefficients=%lld\n",
                  key.dataset.c_str(), key.algo.c_str(),
                  static_cast<long long>(key.budget),
                  static_cast<long long>(shard->synopsis.domain_size()),
                  static_cast<long long>(shard->synopsis.size()));
    }
  };
  print_shards();
  dwm::serve::ShardKey current = engine.registry().Keys().front();

  // `trace on <file>` starts collecting request spans; `trace off` (and
  // quit/EOF while tracing) writes the Chrome trace to the remembered path.
  std::string trace_path;
  const auto flush_trace = [&] {
    if (trace_path.empty()) return;
    const dwm::Status written = engine.tracer().WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::printf("error: %s\n", written.ToString().c_str());
    } else {
      std::printf("trace written %s requests=%llu\n", trace_path.c_str(),
                  static_cast<unsigned long long>(engine.tracer().size()));
    }
    engine.tracer().Disable();
    trace_path.clear();
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string op;
    ss >> op;
    if (op == "quit") break;
    if (op == "shards") {
      print_shards();
      continue;
    }
    if (op == "stats") {
      const dwm::serve::QueryEngine::TypeCounts counts = engine.QueryCounts();
      std::printf("stats points=%lld range_sums=%lld range_avgs=%lld "
                  "requests=%llu\n",
                  static_cast<long long>(counts.points),
                  static_cast<long long>(counts.range_sums),
                  static_cast<long long>(counts.range_avgs),
                  static_cast<unsigned long long>(engine.Requests()));
      continue;
    }
    if (op == "metrics") {
      // On-demand Prometheus scrape; "end metrics" terminates the block so
      // a driving process can read a bounded response.
      std::fputs(dwm::metrics::Default().PrometheusText().c_str(), stdout);
      std::printf("end metrics\n");
      continue;
    }
    if (op == "loglevel") {
      std::string name;
      dwm::log::Level level = dwm::log::Level::kInfo;
      if (!(ss >> name) || !dwm::log::ParseLevel(name, &level)) {
        std::printf("error: bad level (want debug|info|warn|error): %s\n",
                    line.c_str());
        continue;
      }
      dwm::log::Logger::Global().SetLevel(level);
      std::printf("loglevel %s\n", dwm::log::LevelName(level));
      continue;
    }
    if (op == "trace") {
      std::string mode;
      ss >> mode;
      if (mode == "on") {
        std::string path;
        if (!(ss >> path)) {
          std::printf("error: trace on needs a file: %s\n", line.c_str());
          continue;
        }
        flush_trace();  // an already-running trace is finalized first
        engine.tracer().Clear();
        engine.tracer().Enable();
        trace_path = std::move(path);
        std::printf("trace on %s\n", trace_path.c_str());
      } else if (mode == "off") {
        if (trace_path.empty()) {
          std::printf("error: trace is not on\n");
        } else {
          flush_trace();
        }
      } else {
        std::printf("error: bad trace command (want on <file>|off): %s\n",
                    line.c_str());
      }
      continue;
    }
    if (op == "use") {
      dwm::serve::ShardKey key;
      if (!(ss >> key.dataset >> key.algo >> key.budget) ||
          engine.registry().Find(key) == nullptr) {
        std::printf("error: no such shard: %s\n", line.c_str());
        continue;
      }
      current = std::move(key);
      continue;
    }
    std::vector<dwm::serve::Query> batch;
    if (op == "batch") {
      int64_t k = 0;
      if (!(ss >> k) || k < 0) {
        std::printf("error: bad batch count: %s\n", line.c_str());
        continue;
      }
      bool bad = false;
      for (int64_t i = 0; i < k && std::getline(std::cin, line); ++i) {
        dwm::serve::Query query;
        if (!ParseQueryLine(line, &query)) {
          std::printf("error: bad query line: %s\n", line.c_str());
          bad = true;
          break;
        }
        batch.push_back(query);
      }
      if (bad) continue;
    } else {
      dwm::serve::Query query;
      if (!ParseQueryLine(line, &query)) {
        std::printf("error: bad command: %s\n", line.c_str());
        continue;
      }
      batch.push_back(query);
    }
    std::vector<double> results;
    const dwm::Status answered = engine.AnswerBatch(current, batch, &results);
    if (!answered.ok()) {
      std::printf("error: %s\n", answered.ToString().c_str());
      continue;
    }
    for (const double r : results) std::printf("%.10g\n", r);
  }
  flush_trace();
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: dwm_cli "
               "<gen|build|dbuild|info|point|sum|eval|pack|query|serve> "
               "--flag value "
               "...\n(see the header of tools/dwm_cli.cc)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "gen") return CmdGen(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "dbuild") return CmdDBuild(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "point") return CmdPoint(flags);
  if (command == "sum") return CmdSum(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "pack") return CmdPack(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "serve") return CmdServe(flags);
  Usage();
  return 2;
}
