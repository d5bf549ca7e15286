// Process-wide metrics registry: named instruments (monotonic counters,
// gauges, histograms) grouped into labeled families, with one exporter —
// the Prometheus text-exposition format, read by `dwm_cli dbuild --metrics`,
// the `dwm_cli serve` `metrics` command, the bench harnesses' DWM_METRICS
// files and the determinism tests.
//
// Determinism contract (mirrors the stable Chrome-trace export in
// mr/trace.h): every instrument is registered with a Stability tag.
// kStable instruments hold values that are a pure function of the inputs
// and the cluster *cost model* — bytes, record counts, task/attempt
// tallies, synopsis quality numbers — and are byte-identical at any
// DWM_THREADS and under any non-exhausting fault plan with the same seed.
// kMeasured instruments hold anything derived from wall-clock or CPU time
// (phase makespans, task-duration histograms). PrometheusText(true)
// exports only the kStable families, so its output can be `cmp`-ed across
// thread counts; PrometheusText() exports everything.
//
// Thread safety: the registry and every instrument are safe for concurrent
// use from any thread (the MR engine's workers may publish while the
// driver exports). Registration handles stay valid for the life of the
// registry; callers typically cache the Counter*/Gauge*/Histogram* they
// publish to.
#ifndef DWMAXERR_COMMON_METRICS_H_
#define DWMAXERR_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dwm::metrics {

// Whether an instrument's value is reproducible (cost-model/input derived)
// or measured (wall-clock/CPU derived). See the header comment.
enum class Stability { kStable, kMeasured };

// Label set attached to one instrument within a family, e.g.
// {{"job", "dgreedyabs_hist"}, {"phase", "map"}}. Keys are sorted at
// registration so the same set always names the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic counter (Prometheus `counter`): only ever increases.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Gauge (Prometheus `gauge`): a value that can go up and down.
class Gauge {
 public:
  void Set(double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    value_ = value;
  }
  void Add(double delta) {
    const std::lock_guard<std::mutex> lock(mu_);
    value_ += delta;
  }
  double value() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return value_;
  }

 private:
  mutable std::mutex mu_;
  double value_ = 0.0;
};

// Bucket boundary builders for Histogram. Boundaries are the inclusive
// upper bounds of each bucket ("le" in Prometheus terms); an implicit
// overflow bucket catches everything above the last bound.
struct HistogramBuckets {
  // The given bounds, which must be strictly increasing.
  static std::vector<double> Fixed(std::vector<double> bounds);
  // `count` bounds: start, start*factor, start*factor^2, ...
  // (start > 0, factor > 1, count >= 1).
  static std::vector<double> Exponential(double start, double factor,
                                         int count);
};

// Histogram (Prometheus `histogram`): counts observations into fixed
// buckets and answers nearest-rank percentile queries at bucket
// resolution.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  // Records `n` observations of the same value under one lock: the serve
  // engine times each query type's run of a batch as a whole and feeds
  // every query of the run the same per-query value (run time / run size),
  // where a per-query Observe would put a mutex acquisition on the hot
  // path. No-op for n <= 0.
  void ObserveN(double value, int64_t n);

  int64_t count() const;
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  // the last entry being the overflow bucket.
  std::vector<int64_t> bucket_counts() const;

  // Nearest-rank percentile at bucket resolution: the upper bound of the
  // bucket holding the ceil(q * count)-th smallest observation (q in
  // (0, 1]). Observations in the overflow bucket report the largest value
  // observed. Returns 0.0 on an empty histogram. With a single sample —
  // or all samples equal — every percentile lands in the same bucket and
  // reports the same bound.
  double Percentile(double q) const;

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<int64_t> counts_;  // bounds_.size() + 1 buckets
  double sum_ = 0.0;
  int64_t count_ = 0;
  double max_ = 0.0;  // largest observation, for the overflow bucket
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry. Library code publishes to Default(), which
  // resolves to this unless a ScopedRegistry override is active.
  static Registry& Global();

  // Finds or creates the instrument `name`+`labels`. `help` and
  // `stability` are fixed by the first registration of `name`; re-using a
  // name with a different instrument type is a programming error (CHECK).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {},
                      Stability stability = Stability::kStable);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {},
                  Stability stability = Stability::kStable);
  // `bounds` is fixed by the first registration of `name` (see
  // HistogramBuckets).
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const Labels& labels = {},
                          Stability stability = Stability::kMeasured);

  // Prometheus text-exposition format (# HELP / # TYPE / samples;
  // histograms expand to cumulative _bucket{le=...}, _sum, _count).
  // Families are sorted by name and children by label set, numbers are
  // formatted deterministically and no timestamps are written. With
  // `stable_only` only kStable families appear: that text is
  // byte-identical at any DWM_THREADS (pinned by tests/dist_metrics_test).
  std::string PrometheusText(bool stable_only = false) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    Stability stability = Stability::kStable;
    std::vector<double> bounds;  // histograms only
    // std::map keys the children by sorted labels => stable export order.
    std::map<Labels, std::unique_ptr<Counter>> counters;
    std::map<Labels, std::unique_ptr<Gauge>> gauges;
    std::map<Labels, std::unique_ptr<Histogram>> histograms;
  };

  Family* GetFamily(const std::string& name, const std::string& help,
                    Type type, Stability stability);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

// The registry library code publishes to: the innermost active
// ScopedRegistry override, else Registry::Global().
Registry& Default();

// RAII override of Default() — tests isolate a run's metrics with
//   metrics::Registry registry;
//   metrics::ScopedRegistry scoped(&registry);
// Overrides nest; each restores the previous default on destruction.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace dwm::metrics

#endif  // DWMAXERR_COMMON_METRICS_H_
