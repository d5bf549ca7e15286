#include "dist/tree_partition.h"

#include <algorithm>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"

namespace dwm {

TreePartition MakeTreePartition(int64_t n, int64_t base_leaves) {
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(base_leaves)));
  DWM_CHECK_GE(n, kPartitionedMinValues);
  DWM_CHECK_GE(base_leaves, 2);
  DWM_CHECK_LE(base_leaves, n / 2);
  TreePartition partition;
  partition.n = n;
  partition.base_leaves = base_leaves;
  partition.num_base = n / base_leaves;
  if constexpr (audit::kEnabled) {
    // Every distributed run enters through this partition; audit builds
    // re-verify the index algebra the slice/sub-tree mapping relies on.
    ValidateErrorTreeStructure(n);
    audit::NoteCheck();
  }
  return partition;
}

std::vector<int64_t> TreePartition::BaseSplits() const {
  std::vector<int64_t> splits(static_cast<size_t>(num_base));
  for (int64_t t = 0; t < num_base; ++t) splits[static_cast<size_t>(t)] = t;
  return splits;
}

std::vector<double> TreePartition::LocalTransform(
    const std::vector<double>& data, int64_t t) const {
  const auto begin = data.begin() + SliceBegin(t);
  return ForwardHaar(std::vector<double>(begin, begin + base_leaves));
}

int64_t TreePartition::GlobalNode(int64_t t, int64_t slot) const {
  return LocalToGlobal(BaseRoot(t), slot);
}

double IncomingErrorContribution(const TreePartition& partition, int64_t t,
                                 int64_t root_node, double value) {
  DWM_CHECK_GE(root_node, 0);
  DWM_CHECK_LT(root_node, partition.num_base);
  const int64_t begin = partition.SliceBegin(t);
  if (root_node == 0) return -value;
  const LeafRange range = NodeLeafRange(partition.n, root_node);
  if (begin < range.first || begin >= range.first + range.count) return 0.0;
  const int sign = begin < range.first + range.count / 2 ? +1 : -1;
  return -sign * value;
}

std::vector<RangeSplit> RangeSplits(int64_t n, int64_t num_mappers) {
  DWM_CHECK_GE(num_mappers, 1);
  DWM_CHECK_LE(num_mappers, n);
  const int64_t chunk = (n + num_mappers - 1) / num_mappers;
  std::vector<RangeSplit> splits;
  for (int64_t begin = 0; begin < n; begin += chunk) {
    splits.push_back({begin, std::min(n, begin + chunk)});
  }
  return splits;
}

std::vector<AlignedBlock> AlignedBlocks(int64_t begin, int64_t end) {
  DWM_CHECK_LE(begin, end);
  DWM_CHECK_GE(begin, 0);
  std::vector<AlignedBlock> blocks;
  int64_t lo = begin;
  while (lo < end) {
    // Largest power of two that both divides lo and fits in [lo, end).
    int64_t size = lo == 0 ? static_cast<int64_t>(
                                 NextPowerOfTwo(static_cast<uint64_t>(end)))
                           : (lo & -lo);
    while (lo + size > end) size /= 2;
    blocks.push_back({lo, size});
    lo += size;
  }
  return blocks;
}

void ForEachContainedCoefficient(
    const std::vector<double>& data, int64_t begin, int64_t end,
    const std::function<void(int64_t, double)>& take) {
  const int64_t n = static_cast<int64_t>(data.size());
  for (const AlignedBlock& block : AlignedBlocks(begin, end)) {
    if (block.size < 2) continue;
    const auto first = data.begin() + block.begin;
    const std::vector<double> local =
        ForwardHaar(std::vector<double>(first, first + block.size));
    const int64_t root = n / block.size + block.begin / block.size;
    for (int64_t s = 1; s < block.size; ++s) {
      take(LocalToGlobal(root, s), local[static_cast<size_t>(s)]);
    }
  }
}

std::vector<int64_t> LayerSubtreeCounts(int64_t n, int height) {
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(height, 1);
  // The bottom layer consumes the n/2 pair nodes in groups of 2^height;
  // every further layer reduces the width by 2^height until one sub-tree
  // remains.
  std::vector<int64_t> counts;
  int64_t width = n / 2;  // inputs feeding the next layer
  const int64_t fan = int64_t{1} << height;
  for (;;) {
    if (width <= fan) {
      counts.push_back(1);
      break;
    }
    width /= fan;
    counts.push_back(width);
  }
  return counts;
}

}  // namespace dwm
