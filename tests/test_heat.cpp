// Physics sanity tests for the heat kernels (beyond the bitwise algorithm
// equivalence already covered in test_trap_correctness).
#include <gtest/gtest.h>

#include <cmath>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"

namespace pochoir {
namespace {

TEST(Heat, ConservationOnTorus) {
  // The periodic heat update is conservative: the grid sum is invariant.
  const std::int64_t n = 64;
  Array<double, 2> u({n, n}, 1);
  u.register_boundary(periodic_boundary<double, 2>());
  stencils::fill_random(u, 0, 0.0, 1.0, 7);
  const double before = stencils::checksum(u, 0);
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  st.run(40, stencils::heat_kernel_2d({0.2, 0.2}));
  const double after = stencils::checksum(u, st.result_time());
  EXPECT_NEAR(after, before, 1e-7 * std::abs(before));
}

TEST(Heat, DiffusionSmoothsPeaks) {
  const std::int64_t n = 65;
  Array<double, 2> u({n, n}, 1);
  u.register_boundary(periodic_boundary<double, 2>());
  u.fill_time(0, [n](const std::array<std::int64_t, 2>& i) {
    return (i[0] == n / 2 && i[1] == n / 2) ? 1.0 : 0.0;
  });
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  st.run(30, stencils::heat_kernel_2d({0.2, 0.2}));
  const std::int64_t rt = st.result_time();
  double max_val = 0;
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t y = 0; y < n; ++y) {
      max_val = std::max(max_val, u.interior(rt, x, y));
      EXPECT_GE(u.interior(rt, x, y), 0.0);  // maximum principle
    }
  }
  EXPECT_LT(max_val, 0.1);
  EXPECT_GT(u.interior(rt, n / 2, n / 2), u.interior(rt, 0, 0));
}

TEST(Heat, ConvergesToDirichletEdgeValue) {
  const std::int64_t n = 17;
  Array<double, 1> u({n}, 1);
  u.register_boundary(dirichlet_boundary<double, 1>(1.0));
  u.fill_time(0, [](const std::array<std::int64_t, 1>&) { return 0.0; });
  Stencil<1, double> st(stencils::heat_shape<1>());
  st.register_arrays(u);
  st.run(2000, stencils::heat_kernel_1d({0.4}));
  for (std::int64_t x = 0; x < n; ++x) {
    EXPECT_NEAR(u.interior(st.result_time(), x), 1.0, 1e-6);
  }
}

TEST(Heat, NeumannPreservesUniformField) {
  const std::int64_t n = 24;
  Array<double, 2> u({n, n}, 1);
  u.register_boundary(neumann_boundary<double, 2>());
  u.fill_time(0, [](const std::array<std::int64_t, 2>&) { return 3.25; });
  Stencil<2, double> st(stencils::heat_shape<2>());
  st.register_arrays(u);
  st.run(25, stencils::heat_kernel_2d({0.2, 0.2}));
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t y = 0; y < n; ++y) {
      EXPECT_DOUBLE_EQ(u.interior(st.result_time(), x, y), 3.25);
    }
  }
}

TEST(Heat, FourDStencilRuns) {
  Array<double, 4> u({8, 8, 8, 8}, 1);
  u.register_boundary(periodic_boundary<double, 4>());
  stencils::fill_random(u, 0, 0.0, 1.0, 3);
  const double before = stencils::checksum(u, 0);
  Stencil<4, double> st(stencils::heat_shape<4>());
  st.register_arrays(u);
  st.run(6, stencils::heat_kernel_4d({0.1, 0.1, 0.1, 0.1}));
  EXPECT_NEAR(stencils::checksum(u, st.result_time()), before, 1e-8 * before);
}

}  // namespace
}  // namespace pochoir
