// Locality-preserving error-tree partitioning (Sections 4 and 5.2):
// one *root sub-tree* of R coefficient nodes (c_0 .. c_{R-1}) plus R *base
// sub-trees*, the t-th rooted at node R + t and covering the aligned data
// slice [t * L, (t+1) * L) with L leaves (so each base sub-tree holds
// S = L - 1 coefficients and N = R + R*S).
//
// The partition owns what a job over the base sub-trees reads: its splits
// (split t is base t), the bytes each split scans, the local transform of
// slice t and the local-slot -> global-node mapping of base t. It also
// provides the layer arithmetic of Equation 4 used by the DP
// parallelization framework, and the [begin, end) range splits of the
// drivers whose mappers are not aligned to the tree.
#ifndef DWMAXERR_DIST_TREE_PARTITION_H_
#define DWMAXERR_DIST_TREE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dwm {

struct TreePartition {
  int64_t n = 0;            // data size (power of two)
  int64_t base_leaves = 0;  // L, leaves per base sub-tree (power of two)
  int64_t num_base = 0;     // R = n / L, also the root sub-tree node count

  int64_t BaseRoot(int64_t t) const { return num_base + t; }
  int64_t SliceBegin(int64_t t) const { return t * base_leaves; }

  // The splits of a job over every base sub-tree: 0 .. R-1.
  std::vector<int64_t> BaseSplits() const;

  // split_bytes of a job whose splits each read one slice: L doubles.
  template <typename Split>
  std::function<double(const Split&)> SliceBytes() const {
    const double bytes = static_cast<double>(base_leaves) * sizeof(double);
    return [bytes](const Split&) { return bytes; };
  }

  // Haar transform of slice t in local heap order: slot 0 is the slice
  // average, slot s >= 1 the coefficient of global node GlobalNode(t, s).
  std::vector<double> LocalTransform(const std::vector<double>& data,
                                     int64_t t) const;

  // Global error-tree index of local slot s >= 1 of base sub-tree t.
  int64_t GlobalNode(int64_t t, int64_t slot) const;
};

// Validates and builds the partition. Requires n >= 4, 2 <= base_leaves and
// base_leaves <= n / 2 (at least two base sub-trees).
TreePartition MakeTreePartition(int64_t n, int64_t base_leaves);

// Signed error added to every data leaf of base sub-tree t when root
// sub-tree node `root_node` (with coefficient `value`) is *discarded*:
// -delta * value, where delta is the side of t under root_node (+1 left /
// average, -1 right), or 0 if root_node is not an ancestor of the base root.
double IncomingErrorContribution(const TreePartition& partition, int64_t t,
                                 int64_t root_node, double value);

// Equation 4: the number of sub-trees in each layer when an error tree over
// n leaves is decomposed into sub-trees of height h (each consuming 2^h
// inputs). Layer 0 is the bottommost; the final layer has one sub-tree.
std::vector<int64_t> LayerSubtreeCounts(int64_t n, int height);

// [begin, end) leaf ranges of the drivers whose mappers split the data
// without regard to the tree (Send-V, Send-Coef, H-WTopk): ceil(n /
// num_mappers) leaves each, the last one possibly shorter. Requires
// 1 <= num_mappers <= n.
using RangeSplit = std::pair<int64_t, int64_t>;
std::vector<RangeSplit> RangeSplits(int64_t n, int64_t num_mappers);

// split_bytes of a range split: its leaves, as doubles.
double RangeSplitBytes(const RangeSplit& split);

// Decomposes [begin, end) into maximal aligned power-of-two blocks (each
// block is the exact leaf range of one error-tree node). Used by the
// Send-Coef-style mappers whose splits are not power-of-two aligned.
struct AlignedBlock {
  int64_t begin = 0;
  int64_t size = 0;
};
std::vector<AlignedBlock> AlignedBlocks(int64_t begin, int64_t end);

// Calls take(global node, coefficient) for every detail coefficient whose
// leaf range lies inside [begin, end), with its exact value: the local
// transform of each aligned block, block by block in slot order.
void ForEachContainedCoefficient(
    const std::vector<double>& data, int64_t begin, int64_t end,
    const std::function<void(int64_t, double)>& take);

}  // namespace dwm

#endif  // DWMAXERR_DIST_TREE_PARTITION_H_
