// Seeded violation for the `lambda-capture` rule's reduce role: a reduce
// closure handed to a JobSpec writes driver state through a by-reference
// capture instead of its `out` parameter, with no suppression.
// Analyzer input only; never compiled.
#include <cstdint>
#include <vector>

namespace dwm {

struct FakeJobSpec {
  void* reduce = nullptr;
  int num_reducers = 1;
};

void BuildJob(std::vector<double>& collected) {
  FakeJobSpec spec;
  spec.num_reducers = 1;
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<double>* out) {
    collected[static_cast<size_t>(key)] = values[0];  // violation
    out->push_back(values[0]);
  };
}

}  // namespace dwm
