// Every operation a kernel can call on a view (=, +=, -=, *=, value(),
// read(), write()) through every run entry: the two clones of run(), STRAP
// and the loops under run_serial, the checked-everywhere loops, the traced
// and the shape-checked runs, and Array::operator() under run_cloned.
// Each result must be bit-identical to a plain nested-loop reference, on a
// periodic and on a Dirichlet grid.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"

namespace pochoir {
namespace {

// Odd extents, so seam rows, flanks and unchecked middles all occur.
constexpr std::int64_t kX = 23;
constexpr std::int64_t kY = 17;
constexpr std::int64_t kSteps = 9;
constexpr double kWall = 0.375;  // the Dirichlet boundary value

/// value() where the access returns the checked proxy; the interior clone
/// returns a plain reference, which is its own value.
template <typename R>
double value_of(const R& r) {
  if constexpr (requires { r.value(); }) {
    return r.value();
  } else {
    return r;
  }
}

/// Uses every view operation.  Reads stay inside the 5-point heat shape,
/// and the only write target is the home cell, so run_debug accepts it.
const auto kOpsKernel = [](std::int64_t t, std::int64_t x, std::int64_t y,
                           auto u) {
  u(t + 1, x, y) = u(t, x, y);
  u(t + 1, x, y) += 0.25 * value_of(u(t, x - 1, y));
  u(t + 1, x, y) -= 0.125 * u.read(t, x + 1, y);
  u(t + 1, x, y) *= 0.75;
  u.write(t + 1, x, y,
          u.read(t + 1, x, y) + 0.0625 * (u(t, x, y - 1) - u(t, x, y + 1)));
};

/// The same kernel in Phase-1 form: it closes over the array and reaches
/// every cell through Array::operator().
struct Phase1Access {
  Array<double, 2>* a;

  auto operator()(std::int64_t t, std::int64_t x, std::int64_t y) const {
    return (*a)(t, x, y);
  }
  double read(std::int64_t t, std::int64_t x, std::int64_t y) const {
    return (*a)(t, x, y).value();
  }
  void write(std::int64_t t, std::int64_t x, std::int64_t y, double v) const {
    (*a)(t, x, y) = v;
  }
};

/// Access sink for run_traced that only counts touches.
struct TouchCounter {
  std::int64_t touches = 0;
  void touch(const void*, std::size_t) { ++touches; }
};

Array<double, 2> make_grid(bool periodic) {
  Array<double, 2> u({kX, kY}, 1);
  if (periodic) {
    u.register_boundary(periodic_boundary<double, 2>());
  } else {
    u.register_boundary(dirichlet_boundary<double, 2>(kWall));
  }
  stencils::fill_random(u, 0, -1.0, 1.0);
  return u;
}

/// Plain nested loops over two time levels, with the kernel's arithmetic
/// written out in the order the proxy performs it.
std::vector<double> reference(bool periodic) {
  const Array<double, 2> init = make_grid(periodic);
  std::vector<double> cur(kX * kY), next(kX * kY);
  for (std::int64_t x = 0; x < kX; ++x) {
    for (std::int64_t y = 0; y < kY; ++y) {
      cur[static_cast<std::size_t>(x * kY + y)] = init.interior(0, x, y);
    }
  }
  auto at = [&](std::int64_t x, std::int64_t y) {
    if (x >= 0 && x < kX && y >= 0 && y < kY) {
      return cur[static_cast<std::size_t>(x * kY + y)];
    }
    if (!periodic) return kWall;
    return cur[static_cast<std::size_t>(mod_floor(x, kX) * kY +
                                        mod_floor(y, kY))];
  };
  for (std::int64_t t = 0; t < kSteps; ++t) {
    for (std::int64_t x = 0; x < kX; ++x) {
      for (std::int64_t y = 0; y < kY; ++y) {
        double h = at(x, y);
        h = h + 0.25 * at(x - 1, y);
        h = h - 0.125 * at(x + 1, y);
        h = h * 0.75;
        h = h + 0.0625 * (at(x, y - 1) - at(x, y + 1));
        next[static_cast<std::size_t>(x * kY + y)] = h;
      }
    }
    std::swap(cur, next);
  }
  return cur;
}

using Entry =
    std::pair<std::string,
              std::function<void(Stencil<2, double>&, Array<double, 2>&)>>;

std::vector<Entry> entries() {
  return {
      {"run", [](auto& st, auto&) { st.run(kSteps, kOpsKernel); }},
      {"run_serial(STRAP)",
       [](auto& st, auto&) {
         st.run_serial(Algorithm::kStrap, kSteps, kOpsKernel);
       }},
      {"run_serial(loops)",
       [](auto& st, auto&) {
         st.run_serial(Algorithm::kLoopsSerial, kSteps, kOpsKernel);
       }},
      {"run_loops_checked_everywhere",
       [](auto& st, auto&) {
         st.run_loops_checked_everywhere(kSteps, kOpsKernel);
       }},
      {"run_traced",
       [](auto& st, auto&) {
         TouchCounter sink;
         st.run_traced(Algorithm::kTrap, kSteps, kOpsKernel, sink);
         EXPECT_GT(sink.touches, 0);
       }},
      {"run_debug", [](auto& st, auto&) { st.run_debug(kSteps, kOpsKernel); }},
      {"run_cloned",
       [](auto& st, auto& u) {
         auto phase1 = [&u](std::int64_t t, std::int64_t x, std::int64_t y) {
           kOpsKernel(t, x, y, Phase1Access{&u});
         };
         st.run_cloned(kSteps, phase1, phase1);
       }},
  };
}

void check_every_entry(bool periodic) {
  const std::vector<double> want = reference(periodic);
  for (const auto& [name, run] : entries()) {
    auto u = make_grid(periodic);
    Stencil<2, double> st(stencils::heat_shape<2>());
    st.register_arrays(u);
    run(st, u);
    ASSERT_EQ(st.steps_done(), kSteps) << name;
    const std::int64_t t = st.result_time();
    for (std::int64_t x = 0; x < kX; ++x) {
      for (std::int64_t y = 0; y < kY; ++y) {
        ASSERT_EQ(u.interior(t, x, y),
                  want[static_cast<std::size_t>(x * kY + y)])
            << name << " at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(CheckedAccess, EveryOperationOnEveryEntryPeriodic) {
  check_every_entry(/*periodic=*/true);
}

TEST(CheckedAccess, EveryOperationOnEveryEntryDirichlet) {
  check_every_entry(/*periodic=*/false);
}

}  // namespace
}  // namespace pochoir
