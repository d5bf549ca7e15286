// DIndirectHaar (Algorithm 2): solves Problem 1 by binary search over the
// error bound. Each probe is the bottom-up half of DMHaarSpace (one job per
// up stage), which already fixes the probe's count and error; only the
// probe the search returns runs the top-down half (one job per down stage),
// in that probe's own job chain. The search bounds come from three more
// jobs: CON and its evaluation give e_u, the max_abs of the conventional
// B-term synopsis, and one job gives e_l, the (B+1)-largest coefficient
// magnitude.
#ifndef DWMAXERR_DIST_DINDIRECT_HAAR_H_
#define DWMAXERR_DIST_DINDIRECT_HAAR_H_

#include <cstdint>
#include <vector>

#include "core/indirect_haar.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm {

struct DIndirectHaarOptions {
  int64_t budget = 0;
  double quantum = 1.0;
  int64_t subtree_inputs = 256;  // DMHaarSpace worker sub-tree size
  int max_iterations = 40;
};

struct DIndirectHaarResult {
  IndirectHaarResult search;
  mr::SimReport report;  // accumulated over every job of every probe
  // Non-OK when any bound, probe or materialization job died (see
  // DistSynopsisResult::status); the search result is then meaningless.
  Status status;
};

[[nodiscard]] DIndirectHaarResult DIndirectHaar(const std::vector<double>& data,
                                                const DIndirectHaarOptions& options,
                                                const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DINDIRECT_HAAR_H_
