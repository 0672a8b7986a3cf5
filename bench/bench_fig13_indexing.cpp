// Figure 13 — throughput of the two loop-indexing optimizations on the 2D
// periodic heat equation (grid points per second vs N):
//   -split-pointer      -> LinearStencil's pointer-walking row clone
//   -split-macro-shadow -> generic kernel through unchecked interior views
//                          (address computed per access, no bounds checks)
// Both run through the same leaf: interior zoids call the row clone on
// every row, boundary zoids on the unchecked middle of each row, with the
// checked clone on the reach-wide flanks.  The columns therefore differ
// only in the row code, as the two postsources of Figure 12 do.
#include <cstdio>

#include "bench_common.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;
  using namespace pochoir::stencils;

  print_header("Figure 13: -split-pointer vs -split-macro-shadow",
               "Tang et al., SPAA'11, Figure 13 (2D heat on a torus)");

  Table table({"N", "steps", "macro-shadow pts/s", "split-pointer pts/s",
               "split/macro"});
  const double budget = 1.0e8 * scale();  // space-time points per data point
  for (std::int64_t n : {128, 256, 512, 1024, 2048}) {
    std::int64_t t = static_cast<std::int64_t>(budget / (static_cast<double>(n) * n));
    if (t < 8) t = 8;
    const double points = static_cast<double>(n) * n * t;

    auto make = [&] {
      Array<double, 2> u({n, n}, 1);
      u.register_boundary(periodic_boundary<double, 2>());
      fill_random(u, 0, 0.0, 1.0);
      return u;
    };

    // macro-shadow analog: per-point kernel, unchecked views, full index
    // arithmetic per access.
    auto u1 = make();
    Stencil<2, double> s1(heat_shape<2>());
    s1.register_arrays(u1);
    const double macro_secs =
        timed([&] { s1.run(t, heat_kernel_2d({0.125, 0.125})); });

    // split-pointer: tap list + pointer-walking base case (Figure 12(c)).
    auto u2 = make();
    Stencil<2, double> s2(heat_shape<2>());
    s2.register_arrays(u2);
    const double split_secs =
        timed([&] { s2.run_linear(t, heat_linear<2>({0.125, 0.125})); });

    table.add_row({std::to_string(n), std::to_string(t),
                   strf("%.3g", points / macro_secs),
                   strf("%.3g", points / split_secs),
                   strf("%.2f", macro_secs / split_secs)});
  }
  table.print();
  std::printf("\npaper shape: split-pointer above macro-shadow across the "
              "whole sweep (1.2e8..5.3e9 pts/s on 12 cores there).\n");
  return 0;
}
