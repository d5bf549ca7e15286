// Seeded violation for the `lambda-capture` rule: inside a class template's
// member function, a single-reducer reduce closure writes a data member
// through its captured `this` instead of only its `out`. Analyzer input
// only; never compiled.
#include <cstdint>
#include <utility>
#include <vector>

namespace dwm {

struct FakeJobSpec {
  void* reduce = nullptr;
  int num_reducers = 1;
};

template <typename Policy>
class FakeTreeDp {
 public:
  void RunDownJob() {
    FakeJobSpec spec;
    spec.num_reducers = 1;
    spec.reduce = [this](const int64_t& key, std::vector<double>& values,
                         std::vector<std::pair<int64_t, double>>* out) {
      for (double value : values) out->emplace_back(key, value);
      picks_.push_back(key);  // violation: shared write through `this`
    };
  }

 private:
  std::vector<int64_t> picks_;
};

}  // namespace dwm
