#include "dist/tree_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "test_util.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(TreePartitionTest, BasicSplit) {
  const TreePartition p = MakeTreePartition(64, 8);
  EXPECT_EQ(p.num_base, 8);
  EXPECT_EQ(p.BaseRoot(0), 8);
  EXPECT_EQ(p.BaseRoot(7), 15);
  EXPECT_EQ(p.SliceBegin(3), 24);
  // N = R + R*S with S = L - 1 (paper Section 5.3).
  const int64_t S = p.base_leaves - 1;
  EXPECT_EQ(p.n, p.num_base + p.num_base * S);
}

TEST(TreePartitionTest, BaseRootCoversSlice) {
  const TreePartition p = MakeTreePartition(256, 16);
  for (int64_t t = 0; t < p.num_base; ++t) {
    const LeafRange r = NodeLeafRange(p.n, p.BaseRoot(t));
    EXPECT_EQ(r.first, p.SliceBegin(t));
    EXPECT_EQ(r.count, p.base_leaves);
  }
}

TEST(TreePartitionTest, IncomingErrorMatchesReconstruction) {
  // Discarding a set of root nodes changes every leaf of base t by exactly
  // the sum of IncomingErrorContribution over the set.
  const auto data = testing::RandomData(64, 3);
  const auto coeffs = ForwardHaar(data);
  const TreePartition p = MakeTreePartition(64, 8);
  // Full synopsis minus root nodes {0, 2, 5}.
  std::vector<Coefficient> kept;
  const std::vector<int64_t> dropped = {0, 2, 5};
  for (int64_t i = 0; i < 64; ++i) {
    if (std::find(dropped.begin(), dropped.end(), i) != dropped.end()) continue;
    if (coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  const Synopsis s(64, std::move(kept));
  const std::vector<double> err = SignedErrors(data, s);
  for (int64_t t = 0; t < p.num_base; ++t) {
    double expected = 0.0;
    for (int64_t node : dropped) {
      expected +=
          IncomingErrorContribution(p, t, node, coeffs[static_cast<size_t>(node)]);
    }
    for (int64_t i = p.SliceBegin(t); i < p.SliceBegin(t) + p.base_leaves; ++i) {
      EXPECT_NEAR(err[static_cast<size_t>(i)], expected, 1e-9)
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(TreePartitionTest, PaperIncomingErrorExample) {
  // Figure 1 example: deleting {c0, c2} gives incoming error -11 to the
  // right sub-tree of c2 (leaves d2, d3) and -3 to its left (d0, d1).
  const TreePartition p = MakeTreePartition(8, 2);
  const double c0 = 7.0;
  const double c2 = -4.0;
  // Base 1 covers leaves 2..3 = right subtree of c2.
  EXPECT_DOUBLE_EQ(IncomingErrorContribution(p, 1, 0, c0) +
                       IncomingErrorContribution(p, 1, 2, c2),
                   -11.0);
  EXPECT_DOUBLE_EQ(IncomingErrorContribution(p, 0, 0, c0) +
                       IncomingErrorContribution(p, 0, 2, c2),
                   -3.0);
  // c2 is not an ancestor of base 2 (leaves 4..5).
  EXPECT_DOUBLE_EQ(IncomingErrorContribution(p, 2, 2, c2), 0.0);
}

TEST(TreePartitionTest, LayerCountsEquationFour) {
  // n = 2^10, h = 3: the n/2 = 512 pair rows collapse by 8x per layer.
  EXPECT_EQ(LayerSubtreeCounts(1024, 3), (std::vector<int64_t>{64, 8, 1}));
  EXPECT_EQ(LayerSubtreeCounts(16, 3), (std::vector<int64_t>{1}));
  EXPECT_EQ(LayerSubtreeCounts(1 << 20, 10),
            (std::vector<int64_t>{512, 1}));
}

TEST(TreePartitionTest, LayerCountsAreTheDmhsStageWidths) {
  // DMinHaarSpace runs one up stage per layer: n / (2 fan) bottom workers,
  // then fan-fold fewer per stage down to a single top worker.
  for (int64_t n = 4; n <= (1 << 14); n *= 2) {
    for (int height = 1; (int64_t{1} << height) <= n / 2; ++height) {
      const int64_t fan = int64_t{1} << height;
      std::vector<int64_t> widths = {std::max<int64_t>(1, n / (2 * fan))};
      while (widths.back() > 1) {
        widths.push_back(std::max<int64_t>(1, widths.back() / fan));
      }
      EXPECT_EQ(LayerSubtreeCounts(n, height), widths)
          << "n=" << n << " h=" << height;
    }
  }
}

TEST(TreePartitionTest, AlignedBlocksCoverExactly) {
  for (int64_t begin = 0; begin < 40; ++begin) {
    for (int64_t end = begin; end < 48; ++end) {
      const auto blocks = AlignedBlocks(begin, end);
      int64_t pos = begin;
      for (const AlignedBlock& b : blocks) {
        EXPECT_EQ(b.begin, pos);
        EXPECT_GE(b.size, 1);
        EXPECT_EQ(b.begin % b.size, 0) << "alignment";
        EXPECT_EQ(b.size & (b.size - 1), 0) << "power of two";
        pos += b.size;
      }
      EXPECT_EQ(pos, end);
    }
  }
}

TEST(TreePartitionTest, AlignedBlocksAreMaximal) {
  // Doubling any block must escape [begin, end) or break alignment.
  const auto blocks = AlignedBlocks(4, 16);
  EXPECT_EQ(blocks.size(), 2u);  // (4,4), (8,8)
  EXPECT_EQ(blocks[0].size, 4);
  EXPECT_EQ(blocks[1].size, 8);
}

TEST(TreePartitionTest, BaseSplitsAndSliceBytes) {
  const TreePartition p = MakeTreePartition(256, 16);
  std::vector<int64_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(p.BaseSplits(), expected);
  // Every base job reads its slice: L doubles per split.
  struct {
    TreePartition partition;
  } ctx{p};
  EXPECT_EQ(TreePartition::SliceBytes(ctx, 3), 16.0 * sizeof(double));
}

TEST(TreePartitionTest, LocalTransformIsTheGlobalTransformOfTheSlice) {
  for (const int64_t n : {8, 64, 1024}) {
    const auto data = testing::RandomData(n, 11);
    const std::vector<double> global = ForwardHaar(data);
    for (int64_t leaves = 2; leaves <= n / 2; leaves *= 2) {
      const TreePartition p = MakeTreePartition(n, leaves);
      for (int64_t t = 0; t < p.num_base; ++t) {
        const std::vector<double> local = p.LocalTransform(data, t);
        ASSERT_EQ(static_cast<int64_t>(local.size()), leaves);
        // Slot 0 is the slice average.
        const auto begin = data.begin() + p.SliceBegin(t);
        EXPECT_NEAR(local[0],
                    std::accumulate(begin, begin + leaves, 0.0) /
                        static_cast<double>(leaves),
                    1e-9);
        for (int64_t s = 1; s < leaves; ++s) {
          EXPECT_EQ(local[static_cast<size_t>(s)],
                    global[static_cast<size_t>(p.GlobalNode(t, s))])
              << "n=" << n << " L=" << leaves << " t=" << t << " s=" << s;
        }
      }
    }
  }
}

TEST(TreePartitionTest, GlobalNodeIsABijectionOntoTheBaseSubtree) {
  // Slots 1 .. L-1 of base t map one-to-one onto the detail nodes whose leaf
  // range lies in slice t, so the mapping has an inverse on that set.
  const TreePartition p = MakeTreePartition(128, 16);
  for (int64_t t = 0; t < p.num_base; ++t) {
    EXPECT_EQ(p.GlobalNode(t, 1), p.BaseRoot(t));
    std::vector<int64_t> mapped;
    for (int64_t s = 1; s < p.base_leaves; ++s) {
      mapped.push_back(p.GlobalNode(t, s));
    }
    std::sort(mapped.begin(), mapped.end());
    std::vector<int64_t> inside;
    for (int64_t node = 1; node < p.n; ++node) {
      const LeafRange r = NodeLeafRange(p.n, node);
      if (r.first >= p.SliceBegin(t) &&
          r.first + r.count <= p.SliceBegin(t) + p.base_leaves) {
        inside.push_back(node);
      }
    }
    EXPECT_EQ(mapped, inside) << "t=" << t;
  }
}

TEST(TreePartitionTest, RangeSplitsAreCeilChunks) {
  EXPECT_EQ(RangeSplits(10, 3),
            (std::vector<RangeSplit>{{0, 4}, {4, 8}, {8, 10}}));
  EXPECT_EQ(RangeSplits(8, 8).size(), 8u);
  EXPECT_EQ(RangeSplits(4096, 256).size(), 256u);
  EXPECT_EQ(RangeSplits(4096, 256)[255], (RangeSplit{4080, 4096}));
  // ceil(16 / 5) = 4 leaves each leaves only four splits.
  EXPECT_EQ(RangeSplits(16, 5).size(), 4u);
  EXPECT_EQ(RangeSplitBytes(0, {8, 10}), 2.0 * sizeof(double));
}

TEST(TreePartitionTest, ContainedCoefficientsAreExactAndComplete) {
  const int64_t n = 64;
  const auto data = testing::RandomData(n, 5);
  const std::vector<double> global = ForwardHaar(data);
  for (int64_t begin = 0; begin < n; begin += 3) {
    for (int64_t end = begin; end <= n; end += 5) {
      std::vector<int64_t> nodes;
      ForEachContainedCoefficient(data, begin, end, [&](int64_t g, double c) {
        EXPECT_NEAR(c, global[static_cast<size_t>(g)], 1e-9) << "g=" << g;
        nodes.push_back(g);
      });
      std::sort(nodes.begin(), nodes.end());
      std::vector<int64_t> expected;
      for (int64_t node = 1; node < n; ++node) {
        const LeafRange r = NodeLeafRange(n, node);
        if (r.first >= begin && r.first + r.count <= end) {
          expected.push_back(node);
        }
      }
      EXPECT_EQ(nodes, expected) << "[" << begin << ", " << end << ")";
    }
  }
}

}  // namespace
}  // namespace dwm
