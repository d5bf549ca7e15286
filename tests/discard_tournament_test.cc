#include "core/discard_tournament.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace dwm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The pick by plain double compares: the smallest key over alive slots,
// ties going to the smaller slot; -1 when every slot is discarded.
int64_t ReferenceTop(const std::vector<double>& keys) {
  int64_t best = -1;
  for (size_t s = 0; s < keys.size(); ++s) {
    if (keys[s] == kInf) continue;
    if (best < 0 || keys[s] < keys[static_cast<size_t>(best)]) {
      best = static_cast<int64_t>(s);
    }
  }
  return best;
}

// The smallest record the tournament can view: a caller's per-slot state
// holds these two members beside its own, the key starting discarded.
struct Record {
  uint64_t key = kDiscardedOrderKey;
  TournamentAggregate best = 0;
};

// A tournament over `keys` (+inf = discarded), built in one sweep, with
// the records it views.
struct Built {
  explicit Built(const std::vector<double>& keys)
      : records(keys.size()), t(records.data(), std::ssize(keys)) {
    for (size_t s = 0; s < keys.size(); ++s) {
      if (keys[s] != kInf) t.SetKey(static_cast<int64_t>(s), keys[s]);
    }
    t.Build();
  }
  Built(const Built&) = delete;
  Built& operator=(const Built&) = delete;

  std::vector<Record> records;
  DiscardTournament<Record> t;
};

TEST(DiscardTournamentTest, ViewsTheCallersRecords) {
  // A key set through the tournament is the record's key; an aggregate is
  // the record's best, (order key << 64) | slot.
  Built b({kInf, 2.0, 1.0, 3.0});
  EXPECT_EQ(b.t.Top(), 2);
  EXPECT_EQ(static_cast<int64_t>(static_cast<uint64_t>(b.records[1].best)),
            2);
  EXPECT_EQ(static_cast<uint64_t>(b.records[1].best >> 64),
            b.records[2].key);
  EXPECT_FALSE(b.t.alive(0));
  b.t.Discard(2);
  b.t.RepairPath(2);
  EXPECT_EQ(b.t.Top(), 1);
  EXPECT_EQ(b.records[2].key, b.records[0].key);  // both discarded
}

TEST(DiscardTournamentTest, SignedZerosTieToTheSmallerSlot) {
  for (const bool neg_first : {false, true}) {
    std::vector<double> keys(8, 1.0);
    keys[3] = neg_first ? -0.0 : 0.0;
    keys[5] = neg_first ? 0.0 : -0.0;
    EXPECT_EQ(Built(keys).t.Top(), 3) << neg_first;
    keys[0] = neg_first ? 0.0 : -0.0;
    EXPECT_EQ(Built(keys).t.Top(), 0) << neg_first;
  }
}

TEST(DiscardTournamentTest, EqualKeysAcrossSubtreesGoToTheSmallerSlot) {
  // Slot 6 sits under slot 3 and slot 4 under slot 2: the merge at slot 1
  // compares two aggregates with equal keys.
  std::vector<double> keys(8, 5.0);
  keys[0] = kInf;
  keys[6] = 2.0;
  keys[4] = 2.0;
  EXPECT_EQ(Built(keys).t.Top(), 4);
  keys[4] = 2.5;
  EXPECT_EQ(Built(keys).t.Top(), 6);
}

TEST(DiscardTournamentTest, SlotZeroWinsATieWithSlotOnesAggregate) {
  std::vector<double> keys(4, 3.0);
  keys[0] = 1.0;
  keys[2] = 1.0;
  Built b(keys);
  EXPECT_EQ(b.t.Top(), 0);
  b.t.Discard(0);
  EXPECT_EQ(b.t.Top(), 2);
}

TEST(DiscardTournamentTest, NegativeKeysOrderBelowZero) {
  std::vector<double> keys(8, 0.0);
  keys[6] = -7.2759576141834259e-12;
  keys[7] = -1.0;
  EXPECT_EQ(Built(keys).t.Top(), 7);
  keys[7] = std::numeric_limits<double>::max();
  EXPECT_EQ(Built(keys).t.Top(), 6);
}

// Random key sets drawn from few values (many ties, both zeros, negatives
// and subnormals), under interleaved re-keys, repairs and discards in the
// ways the greedy trees use them: Top() must always equal the double-
// compare reference.
TEST(DiscardTournamentTest, TopMatchesDoubleCompareReference) {
  const std::vector<double> pool = {
      -0.0, 0.0, 1.0, 2.5, 2.5, -1.0, -7.2759576141834259e-12,
      std::numeric_limits<double>::denorm_min(), 1e300};
  std::mt19937_64 rng(25);
  for (const int64_t n : {2, 4, 8, 32, 128}) {
    for (int round = 0; round < 40; ++round) {
      const auto draw = [&] { return pool[rng() % pool.size()]; };
      std::vector<double> keys(static_cast<size_t>(n));
      for (double& k : keys) k = (rng() % 5 == 0) ? kInf : draw();
      Built b(keys);
      DiscardTournament<Record>& t = b.t;
      while (ReferenceTop(keys) >= 0) {
        ASSERT_EQ(t.Top(), ReferenceTop(keys)) << n << " " << round;
        const int64_t s =
            static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
        const double key = draw();
        switch (rng() % 4) {
          case 0:  // re-key one slot, then its ancestors' aggregates
            if (keys[static_cast<size_t>(s)] != kInf) {
              keys[static_cast<size_t>(s)] = key;
            }
            t.Rekey(s, key, s >= 1 && 2 * s < n);
            if (s >= 2) t.RepairPath(s / 2);
            break;
          case 1:  // set a live key and repair from the slot up
            if (!t.alive(s)) break;
            keys[static_cast<size_t>(s)] = key;
            t.SetKey(s, key);
            if (s >= 1) t.RepairPath(s);
            break;
          case 2:  // discard an arbitrary live slot
            if (!t.alive(s)) break;
            keys[static_cast<size_t>(s)] = kInf;
            t.Discard(s);
            if (s >= 1) t.RepairPath(s);
            break;
          default: {  // discard the top, as the greedy loops do
            const int64_t top = t.Top();
            keys[static_cast<size_t>(top)] = kInf;
            t.Discard(top);
            if (top >= 1) t.RepairPath(top);
          }
        }
        EXPECT_EQ(t.alive(s), keys[static_cast<size_t>(s)] != kInf);
      }
    }
  }
}

}  // namespace
}  // namespace dwm
