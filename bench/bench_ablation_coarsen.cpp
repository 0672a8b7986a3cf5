// §4 ablation — coarsening of base cases.
//
// "proper coarsening of the base case of the 2D heat-equation stencil ...
//  improves the performance by a factor of 36 over running the recursion
//  down to a single grid point."
//
// Sweeps (time, space) thresholds from fully uncoarsened to the paper's
// heuristic and beyond, and reports the slowdown of each relative to the
// best.  Also exercises the ISAT-style autotuner on the same sweep.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/autotune.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;
  using namespace pochoir::stencils;

  print_header("Ablation: base-case coarsening",
               "Tang et al., SPAA'11, Section 4 (36x there, 5000^2 x 5000)");

  const std::int64_t n = scaled(768, 1.0 / 3);
  const std::int64_t t = scaled(96, 1.0 / 3);
  std::printf("2D periodic heat, %lld^2 x %lld\n\n", static_cast<long long>(n),
              static_cast<long long>(t));

  auto trial = [&](const Options<2>& opts) {
    Array<double, 2> u({n, n}, 1);
    u.register_boundary(periodic_boundary<double, 2>());
    fill_random(u, 0, 0.0, 1.0);
    Stencil<2, double> st(heat_shape<2>(), opts);
    st.register_arrays(u);
    return timed([&] { st.run(t, heat_kernel_2d({0.125, 0.125})); });
  };

  struct Sample {
    std::int64_t dt, dx;
    double secs;
  };
  std::vector<Sample> samples;
  for (const auto& [dt, dx] :
       {std::pair<std::int64_t, std::int64_t>{1, 1}, {1, 8}, {2, 16},
        {5, 100}, {8, 256}, {16, 1024}}) {
    Options<2> opts;
    opts.dt_threshold = dt;
    opts.dx_threshold = {dx, dx};
    samples.push_back({dt, dx, trial(opts)});
  }

  double best = samples.front().secs;
  for (const auto& s : samples) best = std::min(best, s.secs);

  Table table({"dt_threshold", "dx_threshold", "time", "slowdown vs best"});
  for (const auto& s : samples) {
    table.add_row({std::to_string(s.dt), std::to_string(s.dx),
                   strf("%.2fs", s.secs), strf("%.1fx", s.secs / best)});
  }
  table.print();

  std::printf("\nISAT-style autotuner over the same grid:\n");
  const auto tuned = autotune_coarsening<2>(
      trial, {2, 5, 8}, {64, 100, 256}, /*protect_unit_stride=*/false);
  std::printf("  best: dt=%lld dx=%lld (%.2fs across %zu candidates)\n",
              static_cast<long long>(tuned.best.dt_threshold),
              static_cast<long long>(tuned.best.dx_threshold[0]),
              tuned.best_seconds, tuned.samples.size());
  std::printf("\npaper: the uncoarsened recursion is 36x slower at full "
              "scale; the paper's 2D heuristic is dt=5, dx=100.\n");
  return 0;
}
