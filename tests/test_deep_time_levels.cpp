// Deep time windows: a 2D stencil that also reads t-16 (depth 17, 18
// circular time levels) must give bit-identical results on every engine
// (TRAP, STRAP, both loop baselines), serial and parallel, on Dirichlet and
// periodic grids, compared with a plain nested loop over the full history.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "support/math_util.hpp"
#include "support/rng.hpp"

namespace pochoir {
namespace {

constexpr std::int64_t kLag = 16;
constexpr std::int64_t kX = 23;
constexpr std::int64_t kY = 19;
constexpr std::int64_t kSteps = 40;
constexpr double kDirichlet = 0.25;

constexpr double kA = 0.5;
constexpr double kB = 0.1;
constexpr double kC = 0.1;

Shape<2> lagged_shape() {
  return {{1, 0, 0},  {0, 0, 0},  {0, 1, 0},       {0, -1, 0},
          {0, 0, 1},  {0, 0, -1}, {-kLag, 0, 0}};
}

/// Heat-like update plus a term from kLag steps back.
auto lagged_kernel() {
  return [](std::int64_t t, std::int64_t x, std::int64_t y, auto u) {
    u(t + 1, x, y) = kA * u(t, x, y) +
                     kB * (u(t, x - 1, y) + u(t, x + 1, y) + u(t, x, y - 1) +
                           u(t, x, y + 1)) +
                     kC * u(t - kLag, x, y);
  };
}

double initial_value(std::int64_t t, std::int64_t x, std::int64_t y) {
  Rng rng(static_cast<std::uint64_t>((t * kX + x) * kY + y) + 1);
  return rng.uniform(0.0, 1.0);
}

/// Plain nested loops over every time level, same expression order as
/// lagged_kernel; returns the final level.
std::vector<double> reference(bool periodic) {
  const std::int64_t depth = lagged_shape().depth();
  std::vector<std::vector<double>> u(
      static_cast<std::size_t>(depth + kSteps),
      std::vector<double>(static_cast<std::size_t>(kX * kY)));
  for (std::int64_t t = 0; t < depth; ++t) {
    for (std::int64_t x = 0; x < kX; ++x) {
      for (std::int64_t y = 0; y < kY; ++y) {
        u[static_cast<std::size_t>(t)][static_cast<std::size_t>(x * kY + y)] =
            initial_value(t, x, y);
      }
    }
  }
  auto at = [&](std::int64_t t, std::int64_t x, std::int64_t y) {
    if (periodic) {
      x = mod_floor(x, kX);
      y = mod_floor(y, kY);
    } else if (x < 0 || x >= kX || y < 0 || y >= kY) {
      return kDirichlet;
    }
    return u[static_cast<std::size_t>(t)][static_cast<std::size_t>(x * kY + y)];
  };
  for (std::int64_t t = depth - 1; t < depth - 1 + kSteps; ++t) {
    for (std::int64_t x = 0; x < kX; ++x) {
      for (std::int64_t y = 0; y < kY; ++y) {
        u[static_cast<std::size_t>(t + 1)][static_cast<std::size_t>(x * kY + y)] =
            kA * at(t, x, y) +
            kB * (at(t, x - 1, y) + at(t, x + 1, y) + at(t, x, y - 1) +
                  at(t, x, y + 1)) +
            kC * at(t - kLag, x, y);
      }
    }
  }
  return u.back();
}

void check_engine(Algorithm alg, bool parallel, bool periodic,
                  const std::vector<double>& expected) {
  const Shape<2> shape = lagged_shape();
  ASSERT_GE(shape.depth(), 16);
  Array<double, 2> a({kX, kY}, shape.depth());
  if (periodic) {
    a.register_boundary(periodic_boundary<double, 2>());
  } else {
    a.register_boundary(dirichlet_boundary<double, 2>(kDirichlet));
  }
  for (std::int64_t t = 0; t < shape.depth(); ++t) {
    a.fill_time(t, [t](const std::array<std::int64_t, 2>& i) {
      return initial_value(t, i[0], i[1]);
    });
  }
  Stencil<2, double> st(shape);
  st.register_arrays(a);
  auto kern = lagged_kernel();
  // Two calls, so the second resumes mid-window.
  for (std::int64_t part : {kSteps / 2, kSteps - kSteps / 2}) {
    if (parallel) {
      st.run(alg, part, kern);
    } else {
      st.run_serial(alg, part, kern);
    }
  }
  std::int64_t mismatches = 0;
  for (std::int64_t x = 0; x < kX; ++x) {
    for (std::int64_t y = 0; y < kY; ++y) {
      if (a.interior(st.result_time(), x, y) !=
          expected[static_cast<std::size_t>(x * kY + y)]) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "algorithm " << static_cast<int>(alg)
                           << (parallel ? " parallel" : " serial")
                           << (periodic ? " periodic" : " dirichlet");
}

TEST(DeepTimeLevels, EveryEngineMatchesNestedLoops) {
  for (bool periodic : {false, true}) {
    const std::vector<double> expected = reference(periodic);
    for (Algorithm alg : {Algorithm::kTrap, Algorithm::kStrap,
                          Algorithm::kLoopsParallel, Algorithm::kLoopsSerial}) {
      for (bool parallel : {false, true}) {
        check_engine(alg, parallel, periodic, expected);
      }
    }
  }
}

}  // namespace
}  // namespace pochoir
