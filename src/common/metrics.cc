#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace dwm::metrics {
namespace {

// Label-value escaping of the text-exposition format: a backslash, a
// double quote and a line feed are the only escapes; every other byte,
// tabs and control characters included, is written as is.
void AppendLabelValue(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

// Deterministic numeric formatting: integers print exactly, everything
// else prints as %.9g (enough digits to distinguish any two values the cost
// model can produce, no locale dependence). Non-finite values print as the
// format's NaN, +Inf and -Inf.
void AppendNumber(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

Labels SortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// {job="x",phase="map"} — or nothing for an unlabeled instrument. `extra`
// appends one more pair (the histogram `le` bound).
void AppendPromLabels(std::string& out, const Labels& labels,
                      const std::string& extra_key = "",
                      const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    AppendLabelValue(out, value);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
}

}  // namespace

std::vector<double> HistogramBuckets::Fixed(std::vector<double> bounds) {
  for (size_t i = 1; i < bounds.size(); ++i) {
    DWM_CHECK(bounds[i] > bounds[i - 1]);
  }
  return bounds;
}

std::vector<double> HistogramBuckets::Exponential(double start, double factor,
                                                  int count) {
  DWM_CHECK(start > 0.0);
  DWM_CHECK(factor > 1.0);
  DWM_CHECK(count >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1, 0) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    DWM_CHECK(bounds_[i] > bounds_[i - 1]);
  }
}

void Histogram::Observe(double value) { ObserveN(value, 1); }

void Histogram::ObserveN(double value, int64_t n) {
  if (n <= 0) return;
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  const std::lock_guard<std::mutex> lock(mu_);
  counts_[bucket] += n;
  sum_ += value * static_cast<double>(n);
  const bool first = count_ == 0;
  count_ += n;
  if (first || value > max_) max_ = value;
}

int64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::vector<int64_t> Histogram::bucket_counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

double Histogram::Percentile(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  // Nearest rank: the ceil(q * n)-th smallest observation, clamped into
  // [1, n] so q <= 0 degrades to the minimum bucket and q >= 1 to the max.
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::max<int64_t>(1, std::min(rank, count_));
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return i < bounds_.size() ? bounds_[i] : max_;
    }
  }
  return max_;  // unreachable: cumulative == count_ after the loop
}

Registry& Registry::Global() {
  static Registry* const global = new Registry();
  return *global;
}

Registry::Family* Registry::GetFamily(const std::string& name,
                                      const std::string& help, Type type,
                                      Stability stability) {
  // Callers hold mu_.
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
    family.stability = stability;
  } else {
    // Re-using a metric name with a different instrument type is a
    // programming error, not a runtime condition.
    DWM_CHECK(family.type == type);
  }
  return &family;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              const Labels& labels, Stability stability) {
  const Labels key = SortedLabels(labels);
  const std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kCounter, stability);
  auto [it, inserted] = family->counters.try_emplace(key);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels, Stability stability) {
  const Labels key = SortedLabels(labels);
  const std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kGauge, stability);
  auto [it, inserted] = family->gauges.try_emplace(key);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const std::vector<double>& bounds,
                                  const Labels& labels, Stability stability) {
  const Labels key = SortedLabels(labels);
  const std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamily(name, help, Type::kHistogram, stability);
  if (family->histograms.empty()) family->bounds = bounds;
  auto [it, inserted] = family->histograms.try_emplace(key);
  if (inserted) it->second = std::make_unique<Histogram>(family->bounds);
  return it->second.get();
}

std::string Registry::PrometheusText(bool stable_only) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (stable_only && family.stability != Stability::kStable) continue;
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    switch (family.type) {
      case Type::kCounter:
        out += "counter\n";
        for (const auto& [labels, counter] : family.counters) {
          out += name;
          AppendPromLabels(out, labels);
          out += ' ';
          AppendNumber(out, static_cast<double>(counter->value()));
          out += '\n';
        }
        break;
      case Type::kGauge:
        out += "gauge\n";
        for (const auto& [labels, gauge] : family.gauges) {
          out += name;
          AppendPromLabels(out, labels);
          out += ' ';
          AppendNumber(out, gauge->value());
          out += '\n';
        }
        break;
      case Type::kHistogram:
        out += "histogram\n";
        for (const auto& [labels, histogram] : family.histograms) {
          const std::vector<int64_t> counts = histogram->bucket_counts();
          int64_t cumulative = 0;
          for (size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            std::string le;
            if (i < histogram->bounds().size()) {
              AppendNumber(le, histogram->bounds()[i]);
            } else {
              le = "+Inf";
            }
            out += name + "_bucket";
            AppendPromLabels(out, labels, "le", le);
            out += ' ';
            AppendNumber(out, static_cast<double>(cumulative));
            out += '\n';
          }
          out += name + "_sum";
          AppendPromLabels(out, labels);
          out += ' ';
          AppendNumber(out, histogram->sum());
          out += '\n';
          out += name + "_count";
          AppendPromLabels(out, labels);
          out += ' ';
          AppendNumber(out, static_cast<double>(histogram->count()));
          out += '\n';
        }
        break;
    }
  }
  return out;
}

namespace {
// The active Default() override. Publishes happen on the driver thread but
// may interleave with exporters on other threads; an atomic pointer keeps
// the handoff well-defined without a lock on every publish.
std::atomic<Registry*> g_default{nullptr};
}  // namespace

Registry& Default() {
  Registry* overridden = g_default.load(std::memory_order_acquire);
  return overridden != nullptr ? *overridden : Registry::Global();
}

ScopedRegistry::ScopedRegistry(Registry* registry)
    : previous_(g_default.exchange(registry, std::memory_order_acq_rel)) {}

ScopedRegistry::~ScopedRegistry() {
  g_default.store(previous_, std::memory_order_release);
}

}  // namespace dwm::metrics
