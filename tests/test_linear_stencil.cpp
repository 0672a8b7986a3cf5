// Tests for the split-pointer path (LinearStencil, Figure 12(c)): the
// pointer-walking base case must agree bitwise with the generic kernel.
#include <gtest/gtest.h>

#include "core/boundary.hpp"
#include "core/linear_stencil.hpp"
#include "core/stencil.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"

namespace pochoir {
namespace {

TEST(LinearStencil, ShapeDerivation) {
  const auto lin = stencils::heat_linear<2>({0.1, 0.2});
  const Shape<2> s = lin.shape();
  EXPECT_EQ(s.home_dt(), 1);
  EXPECT_EQ(s.depth(), 1);
  EXPECT_EQ(s.sigma(0), 1);
  EXPECT_EQ(s.sigma(1), 1);
  EXPECT_EQ(s.cells().size(), 6u);
}

TEST(LinearStencil, MatchesGenericKernel2D) {
  const std::int64_t n = 64, steps = 33;
  const stencils::HeatCoeffs<2> c = {0.11, 0.13};
  auto init = [](const std::array<std::int64_t, 2>& i) {
    return 0.01 * static_cast<double>((i[0] * 7 + i[1] * 3) % 41);
  };
  Array<double, 2> u1({n, n}, 1);
  Array<double, 2> u2({n, n}, 1);
  for (auto* u : {&u1, &u2}) {
    u->register_boundary(periodic_boundary<double, 2>());
    u->fill_time(0, init);
  }
  Options<2> opts;
  opts.dt_threshold = 4;
  opts.dx_threshold = {12, 12};
  Stencil<2, double> s1(stencils::heat_shape<2>(), opts);
  s1.register_arrays(u1);
  s1.run_linear(steps, stencils::heat_linear<2>(c));
  Stencil<2, double> s2(stencils::heat_shape<2>(), opts);
  s2.register_arrays(u2);
  s2.run(steps, stencils::heat_kernel_2d(c));
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t y = 0; y < n; ++y) {
      // The tap form folds the center coefficient, so floating-point
      // association differs from the generic kernel: compare to 1e-12.
      ASSERT_NEAR(u1.interior(s1.result_time(), x, y),
                  u2.interior(s2.result_time(), x, y), 1e-12)
          << x << "," << y;
    }
  }
}

TEST(LinearStencil, MatchesGenericKernel1D) {
  const std::int64_t n = 200, steps = 50;
  Array<double, 1> u1({n}, 1);
  Array<double, 1> u2({n}, 1);
  for (auto* u : {&u1, &u2}) {
    u->register_boundary(dirichlet_boundary<double, 1>(0.25));
    u->fill_time(0, [](const std::array<std::int64_t, 1>& i) {
      return 0.005 * static_cast<double>(i[0] % 37);
    });
  }
  Options<1> opts;
  opts.dt_threshold = 8;
  opts.dx_threshold = {32};
  Stencil<1, double> s1(stencils::heat_shape<1>(), opts);
  s1.register_arrays(u1);
  s1.run_linear(steps, stencils::heat_linear<1>({0.23}));
  Stencil<1, double> s2(stencils::heat_shape<1>(), opts);
  s2.register_arrays(u2);
  s2.run(steps, stencils::heat_kernel_1d({0.23}));
  for (std::int64_t x = 0; x < n; ++x) {
    ASSERT_NEAR(u1.interior(s1.result_time(), x),
                u2.interior(s2.result_time(), x), 1e-12);
  }
}

TEST(LinearStencil, DepthTwoWave3D) {
  const std::array<std::int64_t, 3> ext = {14, 12, 16};
  auto init = [](const std::array<std::int64_t, 3>& i) {
    return 0.02 * static_cast<double>((i[0] + 2 * i[1] + 3 * i[2]) % 19);
  };
  Array<double, 3> u1(ext, 2);
  Array<double, 3> u2(ext, 2);
  for (auto* u : {&u1, &u2}) {
    u->register_boundary(periodic_boundary<double, 3>());
    u->fill_time(0, init);
    u->fill_time(1, init);
  }
  Options<3> opts;
  opts.dt_threshold = 2;
  opts.dx_threshold = {3, 3, 4};
  const double c2 = 0.07;
  Stencil<3, double> s1(stencils::wave_shape(), opts);
  s1.register_arrays(u1);
  s1.run_linear(9, stencils::wave_linear(c2));
  Stencil<3, double> s2(stencils::wave_shape(), opts);
  s2.register_arrays(u2);
  s2.run(9, stencils::wave_kernel(c2));
  for (std::int64_t x = 0; x < ext[0]; ++x) {
    for (std::int64_t y = 0; y < ext[1]; ++y) {
      for (std::int64_t z = 0; z < ext[2]; ++z) {
        ASSERT_NEAR(u1.interior(s1.result_time(), x, y, z),
                    u2.interior(s2.result_time(), x, y, z), 1e-12);
      }
    }
  }
}

TEST(LinearStencil, SerialAndParallelAgree) {
  const std::int64_t n = 96, steps = 20;
  Array<double, 2> u1({n, n}, 1);
  Array<double, 2> u2({n, n}, 1);
  for (auto* u : {&u1, &u2}) {
    u->register_boundary(neumann_boundary<double, 2>());
    u->fill_time(0, [](const std::array<std::int64_t, 2>& i) {
      return static_cast<double>((i[0] ^ i[1]) % 13);
    });
  }
  const auto lin = stencils::heat_linear<2>({0.2, 0.15});
  Stencil<2, double> s1(stencils::heat_shape<2>());
  s1.register_arrays(u1);
  s1.run_linear(steps, lin, /*parallel=*/true);
  Stencil<2, double> s2(stencils::heat_shape<2>());
  s2.register_arrays(u2);
  s2.run_linear(steps, lin, /*parallel=*/false);
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t y = 0; y < n; ++y) {
      ASSERT_EQ(u1.interior(s1.result_time(), x, y),
                u2.interior(s2.result_time(), x, y));
    }
  }
}

TEST(LinearStencil, MisuseThrows) {
  Array<double, 1> u({16}, 1);
  u.register_boundary(zero_boundary<double, 1>());
  const auto heat = stencils::heat_linear<1>({0.2});

  Stencil<1, double> unregistered(stencils::heat_shape<1>());
  EXPECT_THROW(unregistered.run_linear(1, heat), Error);

  Stencil<1, double> st(stencils::heat_shape<1>());
  st.register_arrays(u);
  // A different home_dt.
  const LinearStencil<double, 1> later(2, {{0, {0}, 1.0}});
  EXPECT_THROW(st.run_linear(1, later), Error);
  // Deeper than the shape: also reads t-1 (depth 2 > 1).
  const LinearStencil<double, 1> deeper(1, {{0, {0}, 0.5}, {-1, {0}, 0.5}});
  EXPECT_THROW(st.run_linear(1, deeper), Error);
  // Wider than the shape: reach 2 > 1.
  const LinearStencil<double, 1> wider(1, {{0, {-2}, 0.5}, {0, {2}, 0.5}});
  EXPECT_THROW(st.run_linear(1, wider), Error);
  EXPECT_EQ(st.steps_done(), 0);

  // Constructor misuse: more taps than the row clone holds (on a grid with
  // interior zoids, so a run would reach the row clone), no taps, and a tap
  // that reads the written time level.
  const std::vector<LinearStencil<double, 1>::Tap> taps33(
      33, LinearStencil<double, 1>::Tap{0, {0}, 1.0 / 33});
  Array<double, 1> big({4096}, 1);
  big.register_boundary(zero_boundary<double, 1>());
  big.fill_time(0, [](const std::array<std::int64_t, 1>&) { return 1.0; });
  Stencil<1, double> wide(stencils::heat_shape<1>());
  wide.register_arrays(big);
  EXPECT_THROW(wide.run_linear(64, LinearStencil<double, 1>(1, taps33), false),
               Error);
  EXPECT_THROW((LinearStencil<double, 1>(1, {})), Error);
  EXPECT_THROW((LinearStencil<double, 1>(1, {{1, {0}, 1.0}})), Error);

  // A contained shape runs.
  EXPECT_NO_THROW(st.run_linear(1, heat));
  EXPECT_EQ(st.steps_done(), 1);
}

}  // namespace
}  // namespace pochoir
