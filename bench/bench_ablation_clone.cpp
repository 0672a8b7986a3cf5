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
#include <cstdio>

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

  auto make = [&] {
    Array<double, 2> u({n, n}, 1);
    u.register_boundary(periodic_boundary<double, 2>());
    fill_random(u, 0, 0.0, 1.0);
    return u;
  };

  // Cloned: the library default (fast interior clone + checked boundary).
  auto u1 = make();
  Stencil<2, double> s1(heat_shape<2>());
  s1.register_arrays(u1);
  const double cloned =
      timed([&] { s1.run(t, heat_kernel_2d({0.125, 0.125})); });

  // Modulo everywhere: both clones use checked (wrapping) accesses.
  auto u2 = make();
  Stencil<2, double> s2(heat_shape<2>());
  s2.register_arrays(u2);
  auto checked_kernel = [&u2](std::int64_t tt, std::int64_t x, std::int64_t y) {
    BoundaryView<double, 2> u(u2);
    u(tt + 1, x, y) = u(tt, x, y) +
                      0.125 * (u(tt, x + 1, y) - 2 * u(tt, x, y) + u(tt, x - 1, y)) +
                      0.125 * (u(tt, x, y + 1) - 2 * u(tt, x, y) + u(tt, x, y - 1));
  };
  const double modulo =
      timed([&] { s2.run_cloned(t, checked_kernel, checked_kernel); });

  Table table({"variant", "time", "slowdown"});
  table.add_row({"interior/boundary clones (Pochoir)", strf("%.2fs", cloned),
                 "1.00x"});
  table.add_row({"checked/modulo on every access", strf("%.2fs", modulo),
                 strf("%.2fx", modulo / cloned)});
  table.print();
  std::printf("\npaper: 2.3x degradation at 5000^2 x 5000.\n");
  return 0;
}
