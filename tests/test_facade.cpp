// Tests for the Stencil facade: registration, resumable Run (§2), result
// indexing, the Phase-1 shape checker, and traced execution.
#include <gtest/gtest.h>

#include "analysis/cache_sim.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/heat.hpp"

namespace pochoir {
namespace {

Array<double, 2> make_grid(std::int64_t n) {
  Array<double, 2> u({n, n}, 1);
  u.register_boundary(periodic_boundary<double, 2>());
  u.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return 0.01 * static_cast<double>((i[0] * 13 + i[1] * 7) % 31);
  });
  return u;
}

TEST(Facade, ResultTimeMatchesPaperFormula) {
  // After Run(T) the results live at time T + k - 1 (§2); k = 1 for heat.
  auto u = make_grid(16);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  EXPECT_EQ(st.steps_done(), 0);
  st.run(10, stencils::heat_kernel_2d({0.1, 0.1}));
  EXPECT_EQ(st.steps_done(), 10);
  EXPECT_EQ(st.result_time(), 10);
}

TEST(Facade, ResumedRunEqualsSingleRun) {
  // §2: "The programmer may resume the running of the stencil ...
  //  The result ... is then in ... time T + T' + k - 1."
  auto u1 = make_grid(32);
  auto u2 = make_grid(32);
  const auto kern = stencils::heat_kernel_2d({0.1, 0.12});
  Stencil<2, double> s1(stencils::heat_shape<2>());
  s1.register_arrays(u1);
  s1.run(7, kern);
  s1.run(8, kern);
  EXPECT_EQ(s1.result_time(), 15);
  Stencil<2, double> s2(stencils::heat_shape<2>());
  s2.register_arrays(u2);
  s2.run(15, kern);
  for (std::int64_t x = 0; x < 32; ++x) {
    for (std::int64_t y = 0; y < 32; ++y) {
      ASSERT_EQ(u1.interior(15, x, y), u2.interior(15, x, y));
    }
  }
}

TEST(Facade, TimeRangeForDepthTwo) {
  Shape<1> wave_like = {{1, 0}, {0, 0}, {0, 1}, {0, -1}, {-1, 0}};
  Array<double, 1> u({16}, wave_like.depth());
  u.register_boundary(periodic_boundary<double, 1>());
  Stencil<1, double> st(wave_like);
  st.register_arrays(u);
  // depth 2, home_dt 1: first invocation at t = 1 (writes time 2, reads 1, 0).
  const auto [t0, t1] = st.time_range(5);
  EXPECT_EQ(t0, 1);
  EXPECT_EQ(t1, 6);
  EXPECT_EQ(st.result_time() + 5 + 1, t1 + 1);
}

TEST(Facade, HomeDtZeroConvention) {
  // a(t, i) = f(a(t-1, ...)) convention: home_dt = 0, depth 1, so the first
  // invocation is at t = 1.
  Shape<1> s = {{0, 0}, {-1, -1}, {-1, 0}, {-1, 1}};
  Array<double, 1> u({16}, s.depth());
  u.register_boundary(periodic_boundary<double, 1>());
  Stencil<1, double> st(s);
  st.register_arrays(u);
  const auto [t0, t1] = st.time_range(4);
  EXPECT_EQ(t0, 1);
  EXPECT_EQ(t1, 5);
  u.fill_time(0, [](const auto&) { return 1.0; });
  st.run(4, [](std::int64_t t, std::int64_t x, auto uu) {
    uu(t, x) = uu(t - 1, x - 1) + uu(t - 1, x) + uu(t - 1, x + 1);
  });
  EXPECT_EQ(st.result_time(), 4);
  EXPECT_EQ(u.interior(4, 8), 81.0);  // 3^4
}

TEST(Facade, RunDebugAcceptsCompliantKernel) {
  auto u = make_grid(12);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  st.run_debug(3, stencils::heat_kernel_2d({0.1, 0.1}));
  EXPECT_EQ(st.steps_done(), 3);
}

TEST(FacadeDeath, RunDebugCatchesShapeViolation) {
  // Kernel reads u(t, x+2, y), which the 5-point shape does not declare:
  // Phase 1 must complain (the Pochoir Guarantee's enforcement side).
  auto u = make_grid(12);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  auto bad = [](std::int64_t t, std::int64_t x, std::int64_t y, auto uu) {
    uu(t + 1, x, y) = uu(t, x + 2, y);
  };
  EXPECT_DEATH(st.run_debug(1, bad), "outside the declared Pochoir shape");
}

TEST(FacadeDeath, RunDebugCatchesOffHomeWrite) {
  auto u = make_grid(12);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  auto bad = [](std::int64_t t, std::int64_t x, std::int64_t y, auto uu) {
    uu(t + 1, x + 1, y) = uu(t, x, y);
  };
  EXPECT_DEATH(st.run_debug(1, bad), "off-home");
}

TEST(FacadeDeath, RunDebugCatchesWriteAtWrongTime) {
  // The heat shape's home cell is at t + 1; writing u(t, x, y) overwrites
  // a cell that other points still read.
  auto u = make_grid(12);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  auto bad = [](std::int64_t t, std::int64_t x, std::int64_t y, auto uu) {
    uu(t, x, y) = uu(t, x - 1, y);
  };
  EXPECT_DEATH(st.run_debug(1, bad),
               "kernel write does not target the home cell's time");
}

TEST(Facade, RunBeforeRegisterThrows) {
  // Misuse of the public API is recoverable: pochoir::Error, not abort.
  Stencil<2, double> st(stencils::heat_shape<2>());
  EXPECT_THROW(st.run(1, stencils::heat_kernel_2d({0.1, 0.1})), Error);
}

TEST(Facade, NonPositiveStepCountThrows) {
  auto u = make_grid(8);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  EXPECT_THROW(st.run(0, stencils::heat_kernel_2d({0.1, 0.1})), Error);
  EXPECT_THROW(st.run(-3, stencils::heat_kernel_2d({0.1, 0.1})), Error);
  EXPECT_EQ(st.steps_done(), 0);
}

TEST(Facade, TracedRunCountsReferencesAndMatchesUntraced) {
  auto u1 = make_grid(24);
  auto u2 = make_grid(24);
  const auto kern = stencils::heat_kernel_2d({0.1, 0.1});
  Stencil<2, double> s1(stencils::heat_shape<2>());
  s1.register_arrays(u1);
  CacheSim sim(32 * 1024);
  s1.run_traced(Algorithm::kTrap, 6, kern, sim);
  // The kernel as written performs 7 reads (u(t,x,y) appears three times)
  // plus 1 write per point.  Off-domain reads are served by the boundary
  // function and are not traced: 2*24 edge points per axis read off-grid
  // once each, so 96 reads per step bypass the sink.
  EXPECT_EQ(sim.references(), 24u * 24u * 6u * 8u - 6u * 96u);
  EXPECT_GT(sim.misses(), 0u);
  Stencil<2, double> s2(stencils::heat_shape<2>());
  s2.register_arrays(u2);
  s2.run(6, kern);
  for (std::int64_t x = 0; x < 24; ++x) {
    for (std::int64_t y = 0; y < 24; ++y) {
      ASSERT_EQ(u1.interior(6, x, y), u2.interior(6, x, y));
    }
  }
}

TEST(Facade, PaperStyleAliases) {
  auto u = make_grid(8);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.Register_Array(u);
  st.Run(2, stencils::heat_kernel_2d({0.1, 0.1}));
  EXPECT_EQ(st.steps_done(), 2);
}

TEST(Facade, MultipleArraysReceiveViewsInOrder) {
  // Two-array stencil: b(t+1) = a(t); a(t+1) = b(t) + 1 — swap with bias.
  Shape<1> s = {{1, 0}, {0, 0}};
  Array<double, 1> a({8}, 1);
  Array<double, 1> b({8}, 1);
  a.register_boundary(zero_boundary<double, 1>());
  b.register_boundary(zero_boundary<double, 1>());
  a.fill_time(0, [](const auto&) { return 1.0; });
  b.fill_time(0, [](const auto&) { return 10.0; });
  Stencil<1, double, double> st(s);
  st.register_arrays(a, b);
  st.run(2, [](std::int64_t t, std::int64_t x, auto va, auto vb) {
    va(t + 1, x) = vb(t, x) + 1;
    vb(t + 1, x) = va(t, x);
  });
  // After 2 steps: a = a0 + 1 = 2? Trace: step1: a1 = b0+1 = 11, b1 = a0 = 1.
  // step2: a2 = b1+1 = 2, b2 = a1 = 11.
  EXPECT_EQ(a.interior(2, 3), 2.0);
  EXPECT_EQ(b.interior(2, 3), 11.0);
}

TEST(Facade, MismatchedExtentsRejected) {
  Shape<1> s = {{1, 0}, {0, 0}};
  Array<double, 1> a({8});
  Array<double, 1> b({9});
  Stencil<1, double, double> st(s);
  EXPECT_THROW(st.register_arrays(a, b), Error);
  // A failed registration leaves the stencil unregistered, not half-bound.
  EXPECT_THROW(st.run(1, [](std::int64_t, std::int64_t, auto, auto) {}),
               Error);
}

TEST(Facade, TooFewTimeLevelsRejected) {
  Shape<1> s = {{1, 0}, {0, 0}, {-1, 0}};  // depth 2
  Array<double, 1> a({8}, /*depth=*/1);    // only 2 levels
  Stencil<1, double> st(s);
  EXPECT_THROW(st.register_arrays(a), Error);
}

TEST(Facade, BadArrayConstructionThrows) {
  EXPECT_THROW((Array<double, 1>({0})), Error);
  EXPECT_THROW((Array<double, 2>({4, -1})), Error);
  EXPECT_THROW((Array<double, 2>({4, 4}, /*depth=*/0)), Error);
  EXPECT_THROW((Array<double, 2>({4})), Error);  // extent count != D
}

}  // namespace
}  // namespace pochoir
