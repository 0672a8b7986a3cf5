// Seam-row differential test.  TRAP treats every dimension as a torus, so
// the pieces it cuts across the periodic seam carry virtual coordinates at
// or beyond the grid edge, and the boundary clone maps each of their rows
// to true coordinates (Stencil::make_boundary_base).  The grids here have
// odd and prime extents, some narrower than 2*sigma*h, and the coarsening
// thresholds (dt 1-8, dx 2-5) let seam triangles reach the base case
// uncut, so rows cross the seam at odd offsets and outer coordinates lie
// past the edge.  Every engine (TRAP, STRAP, loops; serial and parallel)
// and the Phase-1 clones of run_cloned and run_split (a row clone, as
// pochoirc's -split-pointer output is) must be bit-identical to the loops
// with every point checked, where no row splitter runs; the Phase-1
// boundary clone must never see a coordinate outside the grid, and
// run_split must hand it exactly the points that run_cloned does; and the
// split-pointer path (run_linear) must agree with itself serial vs
// parallel and with the generic kernel to 1e-12.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/boundary.hpp"
#include "core/linear_stencil.hpp"
#include "core/stencil.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"
#include "support/math_util.hpp"

namespace pochoir {
namespace {

template <int D>
struct SeamCase {
  std::array<std::int64_t, D> grid;
  const char* boundary_name;
  BoundaryFn<double, D> boundary;
  std::int64_t dt;  // dt threshold
  std::int64_t dx;  // dx threshold in every dimension
  std::int64_t steps;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "grid";
    for (std::int64_t n : grid) os << " " << n;
    os << ", " << boundary_name << ", dt " << dt << ", dx " << dx << ", "
       << steps << " steps";
    return os.str();
  }
};

/// Every grid with every boundary, each pair under two (dt, dx) threshold
/// pairs taken in turn from a fixed list.
template <int D>
std::vector<SeamCase<D>> seam_cases(
    const std::vector<std::array<std::int64_t, D>>& grids,
    const std::vector<std::pair<const char*, BoundaryFn<double, D>>>& bcs,
    std::int64_t steps) {
  static constexpr std::int64_t kThresholds[6][2] = {
      {1, 2}, {8, 5}, {3, 3}, {6, 2}, {2, 4}, {8, 3}};
  std::vector<SeamCase<D>> out;
  std::size_t k = 0;
  for (const auto& grid : grids) {
    for (const auto& [name, fn] : bcs) {
      for (int rep = 0; rep < 2; ++rep, ++k) {
        const auto& th = kThresholds[k % 6];
        out.push_back({grid, name, fn, th[0], th[1], steps});
      }
    }
  }
  return out;
}

/// A fresh array holding the same pseudo-random initial levels 0..depth-1.
template <int D>
std::unique_ptr<Array<double, D>> make_array(const SeamCase<D>& c,
                                             std::int64_t depth) {
  auto a = std::make_unique<Array<double, D>>(c.grid, depth);
  a->register_boundary(c.boundary);
  for (std::int64_t t = 0; t < depth; ++t) {
    a->fill_time(t, [t](const std::array<std::int64_t, D>& i) {
      std::int64_t h = 7 * t + 3;
      for (int k = 0; k < D; ++k) h = h * 131 + i[static_cast<std::size_t>(k)];
      return 0.001 * static_cast<double>(mod_floor(h * 40503, 997));
    });
  }
  return a;
}

template <int D>
bool same_bits(const Array<double, D>& a, const Array<double, D>& b) {
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.total_size()) *
                         sizeof(double)) == 0;
}

template <int D>
double max_abs_diff(const Array<double, D>& a, const Array<double, D>& b) {
  double m = 0;
  for (std::int64_t k = 0; k < a.total_size(); ++k) {
    m = std::max(m, std::abs(a.data()[k] - b.data()[k]));
  }
  return m;
}

/// The Phase-1 view: the kernel reads and writes through the array's own
/// checked proxy, whose writes abort off the grid.
template <int D>
struct Phase1View {
  Array<double, D>* a;
  template <typename... Idx>
  auto operator()(std::int64_t t, Idx... i) const {
    return (*a)(t, i...);
  }
};

/// Runs `steps` of the case on a fresh array through `body(stencil, array)`.
template <int D, typename Body>
std::unique_ptr<Array<double, D>> run_case(const SeamCase<D>& c,
                                           const Shape<D>& shape, Body body) {
  Options<D> opts;
  opts.dt_threshold = c.dt;
  opts.dx_threshold.fill(c.dx);
  auto a = make_array<D>(c, shape.depth());
  Stencil<D, double> st(shape, opts);
  st.register_arrays(*a);
  body(st, *a);
  return a;
}

template <int D, typename Kern>
std::unique_ptr<Array<double, D>> checked_reference(const SeamCase<D>& c,
                                                    const Shape<D>& shape,
                                                    const Kern& kern) {
  return run_case(c, shape, [&](auto& st, auto&) {
    st.run_loops_checked_everywhere(c.steps, kern, /*parallel=*/false);
  });
}

/// Runs the case through Phase-1 clones, which close over the array as
/// pochoirc's output does: `entry(stencil, phase1, boundary)` picks the
/// run entry.  The boundary clone counts its calls and every coordinate
/// off the grid that it sees.
template <int D, typename Kern, typename Entry>
std::unique_ptr<Array<double, D>> run_phase1(
    const SeamCase<D>& c, const Shape<D>& shape, const Kern& kern,
    std::atomic<std::int64_t>& off_grid,
    std::atomic<std::int64_t>& boundary_calls, Entry entry) {
  return run_case(c, shape, [&](auto& st, auto& a) {
    auto phase1 = [&a, &kern](std::int64_t t, auto... x) {
      kern(t, x..., Phase1View<D>{&a});
    };
    auto boundary = [&](std::int64_t t, auto... x) {
      boundary_calls.fetch_add(1, std::memory_order_relaxed);
      if (!a.in_domain({x...})) {
        off_grid.fetch_add(1, std::memory_order_relaxed);
      }
      phase1(t, x...);
    };
    entry(st, phase1, boundary);
  });
}

template <int D, typename Kern>
void check_engines(const SeamCase<D>& c, const Shape<D>& shape,
                   const Kern& kern) {
  const auto ref = checked_reference(c, shape, kern);
  for (Algorithm alg :
       {Algorithm::kTrap, Algorithm::kStrap, Algorithm::kLoopsParallel}) {
    for (bool parallel : {false, true}) {
      const auto got = run_case(c, shape, [&](auto& st, auto&) {
        if (parallel) {
          st.run(alg, c.steps, kern);
        } else {
          st.run_serial(alg, c.steps, kern);
        }
      });
      EXPECT_TRUE(same_bits(*ref, *got))
          << c.describe() << ", algorithm " << static_cast<int>(alg)
          << (parallel ? ", parallel" : ", serial");
    }
  }
  for (bool parallel : {false, true}) {
    std::atomic<std::int64_t> off_grid{0};
    std::atomic<std::int64_t> cloned_calls{0};
    const auto got = run_phase1(
        c, shape, kern, off_grid, cloned_calls,
        [&](auto& st, auto& phase1, auto& boundary) {
          st.run_cloned(c.steps, phase1, boundary, parallel);
        });
    EXPECT_EQ(off_grid.load(), 0) << c.describe();
    EXPECT_TRUE(same_bits(*ref, *got))
        << c.describe() << ", run_cloned" << (parallel ? ", parallel" : "");

    // run_split with a row clone, as pochoirc's -split-pointer mode emits
    // it: the same leaf as run_cloned, so the same checked points.
    std::atomic<std::int64_t> split_off_grid{0};
    std::atomic<std::int64_t> split_calls{0};
    const auto split = run_phase1(
        c, shape, kern, split_off_grid, split_calls,
        [&](auto& st, auto& phase1, auto& boundary) {
          auto row = [&phase1](std::int64_t t,
                               const std::array<std::int64_t, D>& idx,
                               std::int64_t row_end) {
            for (auto i = idx; i[D - 1] < row_end; ++i[D - 1]) {
              std::apply([&](auto... x) { phase1(t, x...); }, i);
            }
          };
          st.run_split(c.steps, row, boundary, parallel);
        });
    const std::string what = c.describe() + ", run_split" +
                             (parallel ? ", parallel" : "");
    EXPECT_EQ(split_off_grid.load(), 0) << what;
    EXPECT_TRUE(same_bits(*ref, *split)) << what;
    EXPECT_EQ(split_calls.load(), cloned_calls.load()) << what;
  }
}

template <int D, typename Kern, typename Lin>
void check_linear(const SeamCase<D>& c, const Shape<D>& shape,
                  const Kern& kern, const Lin& lin) {
  const auto ref = checked_reference(c, shape, kern);
  const auto serial = run_case(c, shape, [&](auto& st, auto&) {
    st.run_linear(c.steps, lin, /*parallel=*/false);
  });
  const auto parallel = run_case(c, shape, [&](auto& st, auto&) {
    st.run_linear(c.steps, lin, /*parallel=*/true);
  });
  EXPECT_TRUE(same_bits(*serial, *parallel)) << c.describe();
  // The tap form folds the center coefficient, so floating-point
  // association differs from the generic kernel.
  EXPECT_LE(max_abs_diff(*ref, *serial), 1e-12) << c.describe();
}

std::vector<SeamCase<1>> cases_1d() {
  return seam_cases<1>(
      {{1}, {3}, {5}, {13}, {17}, {29}, {31}, {131}},
      {{"periodic", periodic_boundary<double, 1>()},
       {"dirichlet", dirichlet_boundary<double, 1>(0.5)},
       {"neumann", neumann_boundary<double, 1>()}},
      17);
}

std::vector<SeamCase<2>> cases_2d() {
  return seam_cases<2>(
      {{1, 13}, {3, 5}, {5, 31}, {13, 17}, {29, 3}, {31, 1}, {17, 131}},
      {{"periodic", periodic_boundary<double, 2>()},
       {"dirichlet", dirichlet_boundary<double, 2>(0.25)},
       {"neumann", neumann_boundary<double, 2>()},
       {"periodic x dirichlet",
        mixed_boundary<double, 2>(
            {BoundaryKind::kPeriodic, BoundaryKind::kDirichlet}, 0.75)}},
      13);
}

std::vector<SeamCase<3>> cases_3d() {
  return seam_cases<3>(
      {{3, 5, 13}, {5, 13, 3}, {1, 5, 29}, {13, 17, 5}, {17, 13, 31}},
      {{"periodic", periodic_boundary<double, 3>()},
       {"dirichlet", dirichlet_boundary<double, 3>(0.25)},
       {"neumann", neumann_boundary<double, 3>()},
       {"periodic x neumann x periodic",
        mixed_boundary<double, 3>({BoundaryKind::kPeriodic,
                                   BoundaryKind::kNeumann,
                                   BoundaryKind::kPeriodic})}},
      9);
}

TEST(SeamRows, Heat1D) {
  const auto kern = stencils::heat_kernel_1d({0.21});
  for (const auto& c : cases_1d()) {
    check_engines(c, stencils::heat_shape<1>(), kern);
  }
}

TEST(SeamRows, ReachTwo1D) {
  const Shape<1> shape = {{1, 0}, {0, -2}, {0, -1}, {0, 0}, {0, 1}, {0, 2}};
  ASSERT_EQ(shape.reach(0), 2);
  const auto kern = [](std::int64_t t, std::int64_t x, auto u) {
    u(t + 1, x) = 0.4 * u(t, x) + 0.2 * (u(t, x - 1) + u(t, x + 1)) +
                  0.1 * (u(t, x - 2) + u(t, x + 2));
  };
  for (const auto& c : cases_1d()) check_engines(c, shape, kern);
}

TEST(SeamRows, Heat2D) {
  const auto kern = stencils::heat_kernel_2d({0.11, 0.13});
  for (const auto& c : cases_2d()) {
    check_engines(c, stencils::heat_shape<2>(), kern);
  }
}

TEST(SeamRows, Wave3D) {
  const auto kern = stencils::wave_kernel(0.07);
  for (const auto& c : cases_3d()) {
    check_engines(c, stencils::wave_shape(), kern);
  }
}

TEST(SeamRows, LinearHeat2D) {
  const stencils::HeatCoeffs<2> coeffs = {0.11, 0.13};
  const auto kern = stencils::heat_kernel_2d(coeffs);
  const auto lin = stencils::heat_linear<2>(coeffs);
  for (const auto& c : cases_2d()) {
    check_linear(c, stencils::heat_shape<2>(), kern, lin);
  }
}

TEST(SeamRows, LinearWave3D) {
  const auto kern = stencils::wave_kernel(0.07);
  const auto lin = stencils::wave_linear(0.07);
  for (const auto& c : cases_3d()) {
    check_linear(c, stencils::wave_shape(), kern, lin);
  }
}

}  // namespace
}  // namespace pochoir
