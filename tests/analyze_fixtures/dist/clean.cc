// Clean-pass fixture: the same constructs the violation fixtures seed,
// written compliantly — ordered containers on emit paths, a reducer that
// writes only its `out` and a driver that folds the output, the steady
// clock, and pointers held as mapped values rather than keys.
// Analyzer input only; never compiled.
#include <chrono>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace dwm {

void Emit(int64_t key, double value);

struct FakeJobSpec {
  void* reduce = nullptr;
  int num_reducers = 1;
};

void ForwardTotals(const std::map<int64_t, double>& totals) {
  for (const auto& [key, value] : totals) {
    Emit(key, 2.0 * value);
  }
}

void BuildJob(std::vector<double>& collected,
              const std::vector<std::pair<int64_t, double>>& output) {
  FakeJobSpec spec;
  spec.num_reducers = 1;
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<std::pair<int64_t, double>>* out) {
    double total = 0.0;
    for (double v : values) total += v;
    out->emplace_back(key, total);
  };
  for (const auto& [key, total] : output) {
    collected[static_cast<size_t>(key)] = total;
  }
}

int64_t CountRows(const std::map<int64_t, const double*>& rows) {
  const auto start = std::chrono::steady_clock::now();
  (void)start;
  return static_cast<int64_t>(rows.size());
}

}  // namespace dwm
