// Property tests for the trapezoidal decomposition (space cuts, hyperspace
// cuts with dependency levels, time cuts, seam cuts) — §3 and Lemma 1.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "geometry/cuts.hpp"
#include "geometry/zoid.hpp"
#include "support/rng.hpp"

namespace pochoir {
namespace {

using Point1 = std::pair<std::int64_t, std::int64_t>;

/// Replaces dimension `dim` of `z` with one piece of a DimCut.
template <int D>
Zoid<D> with_piece(const Zoid<D>& z, int dim, const Interval& v) {
  Zoid<D> sub = z;
  sub.x0[dim] = v.x0;
  sub.x1[dim] = v.x1;
  sub.dx0[dim] = v.dx0;
  sub.dx1[dim] = v.dx1;
  return sub;
}

/// All points of a 1D zoid as (t, x) pairs.
std::set<Point1> points_of(const Zoid<1>& z) {
  std::set<Point1> pts;
  for_each_point(z, [&](std::int64_t t, const std::array<std::int64_t, 1>& i) {
    pts.insert({t, i[0]});
  });
  return pts;
}

/// Random well-defined 1D zoid with slopes in {-s..s}.
Zoid<1> random_zoid(Rng& rng, std::int64_t sigma) {
  while (true) {
    Zoid<1> z;
    z.t0 = rng.next_below(4);
    z.t1 = z.t0 + 1 + rng.next_below(8);
    z.x0 = {rng.next_below(40)};
    z.x1 = {z.x0[0] + rng.next_below(60)};
    z.dx0 = {rng.next_below(2 * sigma + 1) - sigma};
    z.dx1 = {rng.next_below(2 * sigma + 1) - sigma};
    if (z.well_defined()) return z;
  }
}

TEST(SpaceCut, PiecesPartitionParent) {
  Rng rng(1234);
  int cuts_seen = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::int64_t sigma = 1 + rng.next_below(2);
    const Zoid<1> z = random_zoid(rng, sigma);
    // period larger than any coordinate → never a seam cut here
    const auto cut = try_space_cut(z, 0, sigma, 1 << 20);
    if (!cut.has_value()) continue;
    ++cuts_seen;
    ASSERT_EQ(cut->count, 3);
    std::set<Point1> combined;
    std::int64_t total = 0;
    for (int j = 0; j < 3; ++j) {
      const Zoid<1> sub = with_piece(z, 0, cut->piece[j]);
      for (const auto& p : points_of(sub)) {
        auto [it, fresh] = combined.insert(p);
        ASSERT_TRUE(fresh) << "pieces overlap at t=" << p.first
                           << " x=" << p.second;
      }
      total += sub.volume();
    }
    ASSERT_EQ(combined, points_of(z)) << "pieces do not cover the parent";
    ASSERT_EQ(total, z.volume());
  }
  EXPECT_GT(cuts_seen, 50);  // the generator must actually exercise cuts
}

TEST(SpaceCut, RespectsWidthCondition) {
  // A zoid narrower than 2*sigma*h must not be cut.
  Zoid<1> z = Zoid<1>::box(0, 8, {15});
  z.x0 = {100};          // not at the origin: no seam cut either
  z.x1 = {115};
  EXPECT_FALSE(try_space_cut(z, 0, 1, 1 << 20).has_value());
  z.x1 = {116};  // width 16 == 2*1*8
  EXPECT_TRUE(try_space_cut(z, 0, 1, 1 << 20).has_value());
}

TEST(SpaceCut, MinimalGrayTriangleIsNotCut) {
  // The gray triangle of a previous cut: bottom 2*sigma*h wide, converging
  // at the maximum rate.  The paper's literal width condition would admit
  // it, but the pieces would be ill-defined; the validity check refuses.
  Zoid<1> z;
  z.t0 = 0;
  z.t1 = 4;
  z.x0 = {50};
  z.x1 = {58};  // width 8 = 2*1*4
  z.dx0 = {1};
  z.dx1 = {-1};
  EXPECT_TRUE(z.well_defined());
  EXPECT_FALSE(try_space_cut(z, 0, 1, 1 << 20).has_value());
}

TEST(SpaceCut, ZeroSlopeBisects) {
  Zoid<1> z = Zoid<1>::box(0, 4, {10});
  const auto cut = try_space_cut(z, 0, 0, 10);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->count, 2);
  EXPECT_EQ(cut->level_bit[0], 0);
  EXPECT_EQ(cut->level_bit[1], 0);  // independent halves, same level
  EXPECT_EQ(cut->piece[0].x1, cut->piece[1].x0);
}

TEST(SeamCut, FullCircumferenceGetsSeamCut) {
  const Zoid<1> z = Zoid<1>::box(0, 4, {32});
  const auto cut = try_space_cut(z, 0, 1, 32);
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(cut->seam);
  EXPECT_EQ(cut->count, 2);
  // Black ring first (level 0), seam triangle second (level 1).
  EXPECT_EQ(cut->level_bit[0], 0);
  EXPECT_EQ(cut->level_bit[1], 1);
  // The seam piece lives in virtual coordinates around x = period.
  const Zoid<1> seam = with_piece(z, 0, cut->piece[1]);
  EXPECT_EQ(seam.x0[0], 32);
  EXPECT_EQ(seam.x1[0], 32);
  EXPECT_EQ(seam.max_hi(0), 32 + 3);
  // Together they tile the torus: every (t, x mod 32) exactly once.
  std::map<Point1, int> cover;
  for (int j = 0; j < 2; ++j) {
    const Zoid<1> sub = with_piece(z, 0, cut->piece[j]);
    for_each_point(sub,
                   [&](std::int64_t t, const std::array<std::int64_t, 1>& i) {
                     ++cover[{t, ((i[0] % 32) + 32) % 32}];
                   });
  }
  EXPECT_EQ(cover.size(), 4u * 32u);
  for (const auto& [p, n] : cover) {
    ASSERT_EQ(n, 1) << "torus point covered " << n << " times";
  }
}

TEST(SeamCut, TooShortCircumferenceFallsToTimeCut) {
  const Zoid<1> z = Zoid<1>::box(0, 8, {8});  // 8 < 2*1*8
  EXPECT_FALSE(try_space_cut(z, 0, 1, 8).has_value());
}

TEST(TimeCut, HalvesPartitionAndChain) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    Zoid<1> z = random_zoid(rng, 1);
    if (z.height() < 2) continue;
    const auto [lower, upper] = time_cut(z);
    EXPECT_EQ(lower.t1, upper.t0);
    EXPECT_EQ(lower.t0, z.t0);
    EXPECT_EQ(upper.t1, z.t1);
    EXPECT_EQ(lower.volume() + upper.volume(), z.volume());
    // The upper base continues exactly where the lower sides end.
    const std::int64_t half = lower.height();
    EXPECT_EQ(upper.x0[0], z.x0[0] + z.dx0[0] * half);
    EXPECT_EQ(upper.x1[0], z.x1[0] + z.dx1[0] * half);
  }
}

TEST(HyperCut, SubzoidCountAndLevels2D) {
  // Wide box away from the seam: both dims trisect → 9 subzoids, 3 levels.
  Zoid<2> z = Zoid<2>::box(0, 4, {64, 64});
  z.x0 = {1, 1};  // knock out the seam-cut detection
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> thresh = {1, 1};
  const std::array<std::int64_t, 2> grid = {256, 256};
  const auto plan = plan_hyperspace_cut(z, sigma, thresh, grid);
  EXPECT_EQ(plan.k, 2);
  EXPECT_EQ(plan.subzoid_count(), 9);
  EXPECT_EQ(plan.level_count(), 3);
  std::map<int, int> per_level;
  std::int64_t total_volume = 0;
  for_each_subzoid(z, plan, [&](const Zoid<2>& sub, int level) {
    ++per_level[level];
    total_volume += sub.volume();
  });
  // Lemma 1 with k=2 upright dims: 4 blacks at level 0, 4 mixed at level 1,
  // 1 gray-gray at level 2.
  EXPECT_EQ(per_level[0], 4);
  EXPECT_EQ(per_level[1], 4);
  EXPECT_EQ(per_level[2], 1);
  EXPECT_EQ(total_volume, z.volume());
}

TEST(HyperCut, DependencyLevelFormulaMatchesLemma1) {
  // For every pair of subzoids where one's points feed the other at the
  // next time step, the consumer's level must not precede the producer's.
  Zoid<2> z = Zoid<2>::box(0, 3, {32, 32});
  z.x0 = {1, 1};
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> thresh = {1, 1};
  const std::array<std::int64_t, 2> grid = {1 << 20, 1 << 20};
  const auto plan = plan_hyperspace_cut(z, sigma, thresh, grid);
  ASSERT_EQ(plan.k, 2);

  struct Sub {
    Zoid<2> z;
    int level;
  };
  std::vector<Sub> subs;
  for_each_subzoid(z, plan,
                   [&](const Zoid<2>& sub, int level) { subs.push_back({sub, level}); });

  // Map every point to its subzoid's level.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, int> level_of;
  for (const auto& sub : subs) {
    for_each_point(sub.z,
                   [&](std::int64_t t, const std::array<std::int64_t, 2>& i) {
                     level_of[{t, i[0], i[1]}] = sub.level;
                   });
  }
  // Every point's dependencies at t-1 (within the parent zoid) must have a
  // level <= the point's level.
  for (const auto& [point, level] : level_of) {
    const auto [t, x, y] = point;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto dep = level_of.find({t - 1, x + dx, y + dy});
        if (dep == level_of.end()) continue;  // outside the parent: done earlier
        ASSERT_LE(dep->second, level)
            << "point (" << t << "," << x << "," << y << ") at level " << level
            << " depends on later level " << dep->second;
      }
    }
  }
}

TEST(HyperCut, ThresholdSuppressesCutting) {
  Zoid<2> z = Zoid<2>::box(0, 2, {64, 64});
  z.x0 = {1, 1};
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> grid = {1 << 20, 1 << 20};
  const std::array<std::int64_t, 2> coarse = {100, 100};
  EXPECT_TRUE(plan_hyperspace_cut(z, sigma, coarse, grid).empty());
  const std::array<std::int64_t, 2> mixed = {100, 1};
  const auto plan = plan_hyperspace_cut(z, sigma, mixed, grid);
  EXPECT_EQ(plan.k, 1);
  EXPECT_FALSE(plan.dims[0].has_value());
  EXPECT_TRUE(plan.dims[1].has_value());
}

TEST(FirstCut, PicksLowestCuttableDim) {
  Zoid<2> z = Zoid<2>::box(0, 2, {8, 64});
  z.x0 = {1, 1};  // dim 0 too narrow to cut at threshold 8
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> thresh = {8, 1};
  const std::array<std::int64_t, 2> grid = {1 << 20, 1 << 20};
  const auto plan = plan_hyperspace_cut(z, sigma, thresh, grid, 1);
  ASSERT_EQ(plan.k, 1);
  EXPECT_FALSE(plan.dims[0].has_value());
  EXPECT_TRUE(plan.dims[1].has_value());
}

TEST(HyperCut, InvertedTrapezoidGrayGoesFirst) {
  Zoid<1> z;
  z.t0 = 0;
  z.t1 = 4;
  z.x0 = {40};
  z.x1 = {72};
  z.dx0 = {-1};
  z.dx1 = {1};  // inverted: widening
  const auto cut = try_space_cut(z, 0, 1, 1 << 20);
  ASSERT_TRUE(cut.has_value());
  EXPECT_FALSE(cut->upright);
  // Labels 1,2,3 with I=0: gray (label 2) has bit 0 → processed first.
  EXPECT_EQ(cut->level_bit[0], 1);
  EXPECT_EQ(cut->level_bit[1], 0);
  EXPECT_EQ(cut->level_bit[2], 1);
}

}  // namespace
}  // namespace pochoir
