// Tests for the DWM_AUDIT runtime invariant layer (common/audit.h).
//
// The same test binary is built in both configurations; `audit::kEnabled`
// selects the expectations. Audit builds must show the layer firing on
// shuffle records, tree partitions and synopsis construction; production
// builds must execute zero audit checks.
#include "common/audit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dist/dgreedy.h"
#include "mr/cluster.h"
#include "mr/job.h"
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

struct NoCtx {};

int64_t RunTinyJob() {
  using Split = std::vector<int64_t>;
  const std::vector<Split> splits = {{1, 2, 3}, {4, 5}};
  mr::JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "audit_probe";
  spec.num_reducers = 2;
  spec.map = [](const NoCtx&, int64_t, const Split& split, const auto& emit) {
    for (int64_t v : split) emit(v, v * 10);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  mr::JobStats stats;
  std::vector<int64_t> out;
  EXPECT_TRUE(mr::RunJobOr(spec, NoCtx{}, splits, mr::ClusterConfig{}, out,
                           stats).ok());
  return static_cast<int64_t>(out.size());
}

TEST(AuditTest, ShuffleRecordsAreAudited) {
  const int64_t before = audit::ChecksPerformed();
  EXPECT_EQ(RunTinyJob(), 5);
  const int64_t delta = audit::ChecksPerformed() - before;
  if constexpr (audit::kEnabled) {
    // Five records, each with a partitioner check and four round-trip
    // checks: the layer must have fired at least once per record.
    EXPECT_GE(delta, 5 * 5);
  } else {
    EXPECT_EQ(delta, 0);
  }
}

TEST(AuditTest, CustomPartitionIsRechecked) {
  const int64_t before = audit::ChecksPerformed();
  mr::JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec;
  spec.name = "audit_partition";
  spec.num_reducers = 3;
  spec.partition = [](const NoCtx&, const int64_t& k) {
    return static_cast<int>(k % 3);
  };
  spec.map = [](const NoCtx&, int64_t, const int64_t&, const auto& emit) {
    for (int64_t k = 0; k < 6; ++k) emit(k, k);
  };
  spec.reduce = [](const NoCtx&, const int64_t&, std::vector<int64_t>&,
                   std::vector<int64_t>*) {};
  mr::JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(mr::RunJobOr(spec, NoCtx{}, std::vector<int64_t>{0},
                           mr::ClusterConfig{}, out, stats).ok());
  const int64_t delta = audit::ChecksPerformed() - before;
  if constexpr (audit::kEnabled) {
    EXPECT_GE(delta, 6);
  } else {
    EXPECT_EQ(delta, 0);
  }
}

TEST(AuditTest, ErrorTreeStructureValidates) {
  // The validator itself runs in every build (it is plain DWM_CHECKs); the
  // audit layer only decides whether production code paths invoke it.
  for (int64_t n : {2, 4, 16, 256, 1024}) {
    ValidateErrorTreeStructure(n);
  }
}

TEST(AuditTest, SynopsisPostconditionsHoldUnderAudit) {
  // End-to-end: a DGreedyAbs run crosses every audited layer (partitioning,
  // shuffle round-trips, tree validation, synopsis post-conditions). Under
  // audit a violated invariant aborts the process, so reaching the
  // assertions below *is* the test; we still re-verify the contract here.
  std::vector<double> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto x = static_cast<double>(i);
    data[i] = (i % 7 == 0) ? 10.0 + x : x / 8.0;
  }
  DGreedyOptions options;
  options.budget = 8;
  options.base_leaves = 16;
  const int64_t before = audit::ChecksPerformed();
  const DGreedyResult result = DGreedyAbs(data, options, mr::ClusterConfig{});
  EXPECT_LE(static_cast<int64_t>(result.synopsis.size()), options.budget);
  EXPECT_LE(result.estimated_error, MaxAbsError(data, result.synopsis) + 1e-6);
  const int64_t delta = audit::ChecksPerformed() - before;
  if constexpr (audit::kEnabled) {
    EXPECT_GT(delta, 0);
  } else {
    EXPECT_EQ(delta, 0);
  }
}

}  // namespace
}  // namespace dwm
