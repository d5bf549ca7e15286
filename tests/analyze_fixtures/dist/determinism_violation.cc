// Seeded violation for the `determinism` rule: a dist/ function names an
// unordered map, whose iteration order depends on hash seeding. The rule is a
// token ban, so the declarations alone are findings, emit path or not.
// Analyzer input only; never compiled.
#include <cstdint>
#include <unordered_map>

namespace dwm {

void Emit(int64_t key, double value);

void ForwardTotals(const std::unordered_map<int64_t, double>& totals) {
  std::unordered_map<int64_t, double> scaled;
  for (const auto& [key, value] : totals) {
    scaled[key] = 2.0 * value;
  }
  for (const auto& [key, value] : scaled) {  // violation: hash order -> Emit
    Emit(key, value);
  }
}

}  // namespace dwm
