// Seeded violation for the captureless-closure contract (mr/job.h): a
// single-reducer reduce closure that captures driver state by reference
// and writes it instead of its `out`. A JobSpec closure is a plain
// function pointer, so a lambda with a capture does not convert and the
// assignment fails to compile. The compile_fixture_capturing_closure ctest
// compiles this file (-fsyntax-only) and passes only on that conversion
// error. Never linked.
#include <cstdint>
#include <vector>

#include "mr/job.h"

namespace dwm {

struct TotalsCtx {};

void BuildJob(std::vector<double>& totals) {
  mr::JobSpec<TotalsCtx, int64_t, int64_t, double, double> spec;
  spec.num_reducers = 1;
  spec.reduce = [&](const TotalsCtx&, const int64_t& key,
                    std::vector<double>& values, std::vector<double>* out) {
    totals[static_cast<size_t>(key)] = values[0];  // violation
    out->push_back(values[0]);
  };
}

}  // namespace dwm
