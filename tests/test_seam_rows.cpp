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
// run_split must hand it exactly the points that run_cloned does.
//
// The engines run both checked row clones: each built-in condition (a
// BoundaryRule, inlined by the rule clone) also runs as its callable twin,
// an independent lambda of the same condition, which the callable clone
// calls.  A two-array stencil runs the rule clone (both arrays hold
// rules) and the callable clone (one holds a rule, the other a lambda).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"
#include "support/math_util.hpp"

namespace pochoir {
namespace {

/// Callable twins of the built-in conditions: independent lambdas of the
/// same maps, written out per condition.  A twin is not a rule, so a run
/// on it takes the callable clone.
template <int D>
BoundaryFn<double, D> periodic_twin() {
  return [](const Array<double, D>& a, std::int64_t t,
            const std::array<std::int64_t, D>& idx) -> double {
    std::array<std::int64_t, D> wrapped;
    for (int i = 0; i < D; ++i) wrapped[i] = mod_floor(idx[i], a.extent(i));
    return a.at(t, wrapped);
  };
}

template <int D>
BoundaryFn<double, D> dirichlet_twin(double value) {
  return [value](const Array<double, D>&, std::int64_t,
                 const std::array<std::int64_t, D>&) -> double {
    return value;
  };
}

template <int D>
BoundaryFn<double, D> neumann_twin() {
  return [](const Array<double, D>& a, std::int64_t t,
            const std::array<std::int64_t, D>& idx) -> double {
    std::array<std::int64_t, D> clamped;
    for (int i = 0; i < D; ++i) {
      std::int64_t v = idx[i];
      if (v < 0) v = 0;
      if (v >= a.extent(i)) v = a.extent(i) - 1;
      clamped[i] = v;
    }
    return a.at(t, clamped);
  };
}

template <int D>
BoundaryFn<double, D> mixed_twin(std::array<BoundaryKind, D> kinds,
                                 double dirichlet_value = 0.0) {
  return [kinds, dirichlet_value](const Array<double, D>& a, std::int64_t t,
                                  const std::array<std::int64_t, D>& idx)
             -> double {
    std::array<std::int64_t, D> mapped;
    for (int i = 0; i < D; ++i) {
      std::int64_t v = idx[i];
      const std::int64_t n = a.extent(i);
      if (v >= 0 && v < n) {
        mapped[i] = v;
        continue;
      }
      switch (kinds[static_cast<std::size_t>(i)]) {
        case BoundaryKind::kPeriodic:
          mapped[i] = mod_floor(v, n);
          break;
        case BoundaryKind::kNeumann:
          mapped[i] = v < 0 ? 0 : n - 1;
          break;
        case BoundaryKind::kDirichlet:
          return dirichlet_value;
      }
    }
    return a.at(t, mapped);
  };
}

/// A built-in condition and its callable twin.
template <int D>
struct NamedBoundary {
  const char* name;
  BoundaryFn<double, D> rule;
  BoundaryFn<double, D> twin;
};

template <int D>
struct SeamCase {
  std::array<std::int64_t, D> grid;
  const char* boundary_name;
  BoundaryFn<double, D> boundary;  // a BoundaryRule
  BoundaryFn<double, D> twin;      // its callable twin
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
    const std::vector<NamedBoundary<D>>& bcs, std::int64_t steps) {
  static constexpr std::int64_t kThresholds[6][2] = {
      {1, 2}, {8, 5}, {3, 3}, {6, 2}, {2, 4}, {8, 3}};
  std::vector<SeamCase<D>> out;
  std::size_t k = 0;
  for (const auto& grid : grids) {
    for (const auto& bc : bcs) {
      for (int rep = 0; rep < 2; ++rep, ++k) {
        const auto& th = kThresholds[k % 6];
        out.push_back({grid, bc.name, bc.rule, bc.twin, th[0], th[1], steps});
      }
    }
  }
  return out;
}

/// A fresh array holding the same pseudo-random initial levels 0..depth-1
/// (other ones for another `salt`).
template <int D>
std::unique_ptr<Array<double, D>> make_array(const SeamCase<D>& c,
                                             std::int64_t depth,
                                             std::int64_t salt = 0) {
  auto a = std::make_unique<Array<double, D>>(c.grid, depth);
  a->register_boundary(c.boundary);
  for (std::int64_t t = 0; t < depth; ++t) {
    a->fill_time(t, [t, salt](const std::array<std::int64_t, D>& i) {
      std::int64_t h = 7 * t + 3 + salt;
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
  for (bool callable : {false, true}) {
    SeamCase<D> clone_case = c;
    if (callable) clone_case.boundary = c.twin;
    for (Algorithm alg :
         {Algorithm::kTrap, Algorithm::kStrap, Algorithm::kLoopsParallel}) {
      for (bool parallel : {false, true}) {
        const auto got = run_case(clone_case, shape, [&](auto& st, auto& a) {
          ASSERT_EQ(boundary_rule(a) == nullptr, callable) << c.describe();
          if (parallel) {
            st.run(alg, c.steps, kern);
          } else {
            st.run_serial(alg, c.steps, kern);
          }
        });
        EXPECT_TRUE(same_bits(*ref, *got))
            << c.describe() << (callable ? ", callable" : ", rule")
            << " clone, algorithm " << static_cast<int>(alg)
            << (parallel ? ", parallel" : ", serial");
      }
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

std::vector<SeamCase<1>> cases_1d() {
  return seam_cases<1>(
      {{1}, {3}, {5}, {13}, {17}, {29}, {31}, {131}},
      {{"periodic", periodic_boundary<double, 1>(), periodic_twin<1>()},
       {"dirichlet", dirichlet_boundary<double, 1>(0.5),
        dirichlet_twin<1>(0.5)},
       {"neumann", neumann_boundary<double, 1>(), neumann_twin<1>()}},
      17);
}

std::vector<SeamCase<2>> cases_2d() {
  return seam_cases<2>(
      {{1, 13}, {3, 5}, {5, 31}, {13, 17}, {29, 3}, {31, 1}, {17, 131}},
      {{"periodic", periodic_boundary<double, 2>(), periodic_twin<2>()},
       {"dirichlet", dirichlet_boundary<double, 2>(0.25),
        dirichlet_twin<2>(0.25)},
       {"neumann", neumann_boundary<double, 2>(), neumann_twin<2>()},
       {"periodic x dirichlet",
        mixed_boundary<double, 2>(
            {BoundaryKind::kPeriodic, BoundaryKind::kDirichlet}, 0.75),
        mixed_twin<2>({BoundaryKind::kPeriodic, BoundaryKind::kDirichlet},
                      0.75)}},
      13);
}

std::vector<SeamCase<3>> cases_3d() {
  return seam_cases<3>(
      {{3, 5, 13}, {5, 13, 3}, {1, 5, 29}, {13, 17, 5}, {17, 13, 31}},
      {{"periodic", periodic_boundary<double, 3>(), periodic_twin<3>()},
       {"dirichlet", dirichlet_boundary<double, 3>(0.25),
        dirichlet_twin<3>(0.25)},
       {"neumann", neumann_boundary<double, 3>(), neumann_twin<3>()},
       {"periodic x neumann x periodic",
        mixed_boundary<double, 3>({BoundaryKind::kPeriodic,
                                   BoundaryKind::kNeumann,
                                   BoundaryKind::kPeriodic}),
        mixed_twin<3>({BoundaryKind::kPeriodic, BoundaryKind::kNeumann,
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

// Two arrays, each read at the other's stencil points; v keeps one time
// level more than the shape needs.  With a rule on both the leaf runs the
// rule clone; with a rule on u and a lambda on v it runs the callable
// clone for both (u's rule is then called).
TEST(SeamRows, TwoArraysRuleAndCallable) {
  const auto kern = [](std::int64_t t, std::int64_t x, std::int64_t y,
                       auto u, auto v) {
    u(t + 1, x, y) = 0.5 * u(t, x, y) +
                     0.1 * (v(t, x - 1, y) + v(t, x + 1, y)) +
                     0.15 * (u(t, x, y - 1) + u(t, x, y + 1));
    v(t + 1, x, y) = 0.6 * v(t, x, y) +
                     0.1 * (u(t, x, y - 1) + u(t, x, y + 1)) +
                     0.1 * (v(t, x - 1, y) + v(t, x + 1, y));
  };
  const Shape<2> shape = stencils::heat_shape<2>();
  const BoundaryFn<double, 2> u_rule = mixed_boundary<double, 2>(
      {BoundaryKind::kPeriodic, BoundaryKind::kDirichlet}, 0.5);
  const std::vector<std::pair<const char*, BoundaryFn<double, 2>>> v_bcs = {
      {"neumann rule", neumann_boundary<double, 2>()},
      {"neumann lambda", neumann_twin<2>()}};
  for (const std::array<std::int64_t, 2> grid :
       {std::array<std::int64_t, 2>{13, 17}, {5, 31}, {29, 3}}) {
    for (const auto& [v_name, v_bc] : v_bcs) {
      const SeamCase<2> u_case{grid, "mixed rule", u_rule, u_rule, 3, 3, 11};
      const SeamCase<2> v_case{grid, v_name, v_bc, v_bc, 3, 3, 11};
      auto run_pair = [&](auto run) {
        Options<2> opts;
        opts.dt_threshold = u_case.dt;
        opts.dx_threshold.fill(u_case.dx);
        auto u = make_array<2>(u_case, shape.depth());
        auto v = make_array<2>(v_case, shape.depth() + 1, /*salt=*/5);
        Stencil<2, double, double> st(shape, opts);
        st.register_arrays(*u, *v);
        run(st);
        return std::pair(std::move(u), std::move(v));
      };
      const auto ref = run_pair([&](auto& st) {
        st.run_loops_checked_everywhere(u_case.steps, kern, false);
      });
      for (Algorithm alg :
           {Algorithm::kTrap, Algorithm::kStrap, Algorithm::kLoopsParallel}) {
        for (bool parallel : {false, true}) {
          const auto got = run_pair([&](auto& st) {
            if (parallel) {
              st.run(alg, u_case.steps, kern);
            } else {
              st.run_serial(alg, u_case.steps, kern);
            }
          });
          const std::string what = u_case.describe() + ", v " + v_name +
                                   ", algorithm " +
                                   std::to_string(static_cast<int>(alg)) +
                                   (parallel ? ", parallel" : ", serial");
          EXPECT_TRUE(same_bits(*ref.first, *got.first)) << what;
          EXPECT_TRUE(same_bits(*ref.second, *got.second)) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pochoir
