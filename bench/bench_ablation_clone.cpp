// §4 ablation — handling boundary conditions by code cloning.
//
// "We coded the 2D heat equation on a periodic torus using Pochoir, and we
//  compared it to a comparable code that simply employs a modulo operation
//  on every array index ... the runtime of the modular-indexing
//  implementation degraded by a factor of 2.3."
//
// Here: TRAP with interior/boundary clones (checks only on the reach-wide
// flanks of boundary-zoid rows) versus TRAP with the checked clone
// everywhere (run_cloned with a BoundaryView kernel for both clones).  The
// checked variant tests every access against the grid and sends off-grid
// reads through the periodic boundary function's modulo.  In both variants
// the home coordinate costs no modulo per point: the boundary clone maps
// each seam row to true coordinates once.
//
// The checked variant builds its own per-point BoundaryView inside the
// kernel, so each of its reads goes through Array::get (a modulo of t,
// and the std::function off the grid) whatever the library's checked row
// clone costs.  Its ratio follows Array::get, not the boundary clone, and
// cannot fall to the paper's 2.3x through the library.  The boundary
// clone's own cost is measured as ns per checked point instead: a Wave 3
// grid of 120 x 2 x 120 puts every row within reach of the edge, so every
// point runs through the checked row clone.
//
// Only the run is timed, by measure_reps as in fig3: each rep builds,
// fills and registers a fresh grid outside the timer, one rep warms up,
// and the table reports the median of kReps timed reps with their spread
// (interquartile range over the median) and the ratio of the two medians.
#include <array>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "core/views.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;
  using namespace pochoir::stencils;

  print_header("Ablation: boundary handling by code cloning vs modulo "
               "on every access",
               "Tang et al., SPAA'11, Section 4 (factor 2.3 there)");

  const std::int64_t n = scaled(1024, 1.0 / 3);
  const std::int64_t t = scaled(128, 1.0 / 3);
  std::printf("2D periodic heat, %lld^2 x %lld\n\n", static_cast<long long>(n),
              static_cast<long long>(t));

  // The median and spread of kReps timed runs of run(stencil, u), each on
  // a freshly built grid, after one warm-up.
  auto measure = [&](const char* label, auto run) {
    return measure_reps(label, [&] {
      auto u = std::make_shared<Array<double, 2>>(
          std::array<std::int64_t, 2>{n, n}, 1);
      u->register_boundary(periodic_boundary<double, 2>());
      fill_random(*u, 0, 0.0, 1.0);
      auto s = std::make_shared<Stencil<2, double>>(heat_shape<2>());
      s->register_arrays(*u);
      return [u, s, run] { run(*s, *u); };
    }).timing;
  };

  // Cloned: the library default (fast interior clone + checked boundary).
  const Timing cloned =
      measure("ablation/cloned", [&](Stencil<2, double>& s, Array<double, 2>&) {
        s.run(t, heat_kernel_2d({0.125, 0.125}));
      });

  // Modulo everywhere: both clones use checked (wrapping) accesses.
  const Timing modulo = measure("ablation/modulo", [&](Stencil<2, double>& s,
                                                       Array<double, 2>& a) {
    auto checked_kernel = [&a](std::int64_t tt, std::int64_t x,
                               std::int64_t y) {
      BoundaryView<double, 2> u(a);
      u(tt + 1, x, y) =
          u(tt, x, y) +
          0.125 * (u(tt, x + 1, y) - 2 * u(tt, x, y) + u(tt, x - 1, y)) +
          0.125 * (u(tt, x, y + 1) - 2 * u(tt, x, y) + u(tt, x, y - 1));
    };
    s.run_cloned(t, checked_kernel, checked_kernel);
  });

  auto cell = [](const Timing& tm) {
    return strf("%.3fs (%.0f%%)", tm.median, 100 * tm.spread);
  };
  Table table({"variant", "time (spread)", "slowdown"});
  table.add_row({"interior/boundary clones (Pochoir)", cell(cloned), "1.00x"});
  table.add_row({"checked/modulo on every access", cell(modulo),
                 strf("%.2fx", modulo.median / cloned.median)});
  table.print();
  std::printf("\ntimes are medians of %d reps; spread is their interquartile "
              "range / median; slowdown is the ratio of the medians.\n",
              kReps);
  std::printf("\npaper: 2.3x degradation at 5000^2 x 5000.\n");
  return 0;
}
