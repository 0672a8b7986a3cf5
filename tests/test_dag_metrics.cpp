// Tests for the work/span analyzer (the Cilkview substrate of Figure 9).
#include <gtest/gtest.h>

#include "analysis/dag_metrics.hpp"
#include "core/options.hpp"
#include "core/walk_context.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"

namespace pochoir {
namespace {

WalkContext<2> context2d(std::int64_t n, std::int64_t dt, std::int64_t dx) {
  Options<2> opts;
  opts.dt_threshold = dt;
  opts.dx_threshold = {dx, dx};
  return WalkContext<2>::make(stencils::heat_shape<2>(), {n, n}, opts);
}

TEST(DagMetrics, WorkEqualsVolumePlusOverhead) {
  const auto ctx = context2d(64, 2, 4);
  DagCosts costs;
  costs.node = 0;
  costs.spawn = 0;
  const DagMetrics m = analyze_trap(ctx, 0, 32, costs);
  EXPECT_DOUBLE_EQ(m.work, 64.0 * 64.0 * 32.0);
  EXPECT_GT(m.span, 0.0);
  EXPECT_LE(m.span, m.work);
}

TEST(DagMetrics, StrapSameWorkMoreSpan) {
  const auto ctx = context2d(128, 1, 2);
  DagCosts costs;
  costs.node = 0;
  costs.spawn = 0;
  const DagMetrics trap = analyze_trap(ctx, 0, 64, costs);
  const DagMetrics strap = analyze_strap(ctx, 0, 64, costs);
  EXPECT_DOUBLE_EQ(trap.work, strap.work);
  // TRAP's hyperspace cuts must not have a longer critical path.
  EXPECT_LE(trap.span, strap.span * 1.0000001);
}

TEST(DagMetrics, TrapBeatsStrapParallelismIn2D) {
  // The headline of §3: for d >= 2 hyperspace cuts give asymptotically more
  // parallelism.  At N=512 the ratio should already be comfortably > 1.5.
  const auto ctx = context2d(512, 1, 2);
  const DagMetrics trap = analyze_trap(ctx, 0, 128);
  const DagMetrics strap = analyze_strap(ctx, 0, 128);
  EXPECT_GT(trap.parallelism(), 1.5 * strap.parallelism());
}

TEST(DagMetrics, ParallelismGrowsWithGridSize) {
  double prev = 0;
  for (std::int64_t n : {64, 128, 256, 512}) {
    const auto ctx = context2d(n, 1, 2);
    const double p = analyze_trap(ctx, 0, n / 2).parallelism();
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(DagMetrics, SerialBaseCaseHasUnitParallelism) {
  // Coarsening thresholds so large nothing is ever cut: one base case.
  Options<2> opts;
  opts.dt_threshold = 1000;
  opts.dx_threshold = {100000, 100000};
  const auto ctx = WalkContext<2>::make(stencils::heat_shape<2>(), {32, 32}, opts);
  const DagMetrics m = analyze_trap(ctx, 0, 16);
  EXPECT_DOUBLE_EQ(m.parallelism(), 1.0);
}

TEST(DagMetrics, CoarseningReducesOverheadWork) {
  // With per-node costs, an uncoarsened recursion does strictly more
  // overhead work than a coarsened one (the 36x effect of §4 in miniature).
  const auto fine = context2d(128, 1, 1);
  const auto coarse = context2d(128, 5, 16);
  DagCosts costs;
  costs.node = 10;
  costs.spawn = 10;
  const double fine_work = analyze_trap(fine, 0, 64, costs).work;
  const double coarse_work = analyze_trap(coarse, 0, 64, costs).work;
  EXPECT_GT(fine_work, 2 * coarse_work);
}

TEST(DagMetrics, DeterministicAcrossCalls) {
  const auto ctx = context2d(128, 2, 4);
  const DagMetrics a = analyze_trap(ctx, 0, 32);
  const DagMetrics b = analyze_trap(ctx, 0, 32);
  EXPECT_DOUBLE_EQ(a.work, b.work);
  EXPECT_DOUBLE_EQ(a.span, b.span);
}

// Exact work and span of Figure 9's smallest cases (uncoarsened, default
// costs): 2D heat at N = 100 over 256 steps, 3D wave at N = 100 over 64.
WalkContext<2> fig9_heat() {
  return WalkContext<2>::make(stencils::heat_shape<2>(), {100, 100},
                              Options<2>::uncoarsened());
}

WalkContext<3> fig9_wave() {
  return WalkContext<3>::make(stencils::wave_shape(), {100, 100, 100},
                              Options<3>::uncoarsened());
}

TEST(DagMetrics, Fig9StrapAndTrapSpanExact) {
  const DagMetrics heat = analyze_strap(fig9_heat(), 0, 256);
  EXPECT_EQ(heat.work, 8231567.0);
  EXPECT_EQ(heat.span, 383319.0);
  EXPECT_EQ(analyze_trap(fig9_heat(), 0, 256).span, 147914.78222090469);

  const DagMetrics wave = analyze_strap(fig9_wave(), 0, 64);
  EXPECT_EQ(wave.work, 201778135.0);
  EXPECT_EQ(wave.span, 2189779.0);
  EXPECT_EQ(analyze_trap(fig9_wave(), 0, 64).span, 209962.53719365498);
}

// A dependency level holding one subzoid runs inline and is charged no
// spawn, as in the walker.
TEST(DagMetrics, Fig9TrapWorkExact) {
  EXPECT_EQ(analyze_trap(fig9_heat(), 0, 256).work, 7725367.0);
  EXPECT_EQ(analyze_trap(fig9_wave(), 0, 64).work, 182140381.0);
}

TEST(DagMetrics, OneDimensionalTrapStrapParity) {
  // For d = 1 the paper proves both algorithms have the same asymptotic
  // parallelism; the measured ratio should be close to 1.
  Options<1> opts;
  opts.dt_threshold = 1;
  opts.dx_threshold = {2};
  const auto ctx =
      WalkContext<1>::make(stencils::heat_shape<1>(), {4096}, opts);
  const double pt = analyze_trap(ctx, 0, 1024).parallelism();
  const double ps = analyze_strap(ctx, 0, 1024).parallelism();
  EXPECT_GT(pt / ps, 0.8);
  EXPECT_LT(pt / ps, 2.0);
}

}  // namespace
}  // namespace pochoir
