// Figure 9 — Cilkview parallelism of TRAP (hyperspace cuts) vs STRAP
// (serial space cuts), uncoarsened base cases:
//   (a) 2D heat, space-time 1000*N^2, N = 100..6400
//   (b) 3D wave, space-time 1000*N^3, N = 100..800
//
// Measured here with the work/span analyzer, which replays the real
// decomposition (see src/analysis/dag_metrics.hpp).  The reproduction
// targets: TRAP's parallelism grows strictly faster with N than STRAP's
// for d >= 2 (Theorems 3 vs 5), with the gap widening in 3D.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dag_metrics.hpp"
#include "bench_common.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"
#include "telemetry/export.hpp"

namespace pochoir::bench {
namespace {

/// Least-squares slope of log(parallelism) vs log(N): the growth exponent.
double fit_exponent(const std::vector<double>& n, const std::vector<double>& p) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]);
    const double y = std::log(p[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (m * sxy - sx * sy) / (m * sxx - sx * sx);
}

}  // namespace
}  // namespace pochoir::bench

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;

  print_header("Figure 9: parallelism, hyperspace cut (TRAP) vs space cut (STRAP)",
               "Tang et al., SPAA'11, Figure 9 (Cilkview; uncoarsened)");

  // (a) 2D nonperiodic heat; the paper's time extent is 1000 at all N, which
  // only shifts work: parallelism is set by the spatial decomposition.
  {
    std::printf("\n(a) 2D heat equation, T = 256\n");
    Table table({"N", "TRAP work", "TRAP span", "TRAP par",
                 "STRAP par", "TRAP/STRAP"});
    std::vector<double> ns, pt, ps;
    for (std::int64_t n : {100, 200, 400, 800, 1600, 3200, 6400}) {
      Options<2> opts = Options<2>::uncoarsened();
      const auto ctx =
          WalkContext<2>::make(stencils::heat_shape<2>(), {n, n}, opts);
      const DagMetrics trap = analyze_trap(ctx, 0, 256);
      const DagMetrics strap = analyze_strap(ctx, 0, 256);
      ns.push_back(static_cast<double>(n));
      pt.push_back(trap.parallelism());
      ps.push_back(strap.parallelism());
      table.add_row({std::to_string(n), strf("%.3g", trap.work),
                     strf("%.3g", trap.span), strf("%.1f", trap.parallelism()),
                     strf("%.1f", strap.parallelism()),
                     strf("%.2f", trap.parallelism() / strap.parallelism())});
    }
    table.print();
    std::printf("fitted growth exponents: TRAP N^%.2f, STRAP N^%.2f "
                "(theory: N^1 vs N^%.2f for d=2)\n",
                fit_exponent(ns, pt), fit_exponent(ns, ps),
                3 - std::log2(5.0));
  }

  // (b) 3D nonperiodic wave.
  {
    std::printf("\n(b) 3D wave equation, T = 64\n");
    Table table({"N", "TRAP par", "STRAP par", "TRAP/STRAP"});
    std::vector<double> ns, pt, ps;
    for (std::int64_t n : {100, 200, 400, 800}) {
      Options<3> opts = Options<3>::uncoarsened();
      const auto ctx =
          WalkContext<3>::make(stencils::wave_shape(), {n, n, n}, opts);
      const DagMetrics trap = analyze_trap(ctx, 0, 64);
      const DagMetrics strap = analyze_strap(ctx, 0, 64);
      ns.push_back(static_cast<double>(n));
      pt.push_back(trap.parallelism());
      ps.push_back(strap.parallelism());
      table.add_row({std::to_string(n), strf("%.1f", trap.parallelism()),
                     strf("%.1f", strap.parallelism()),
                     strf("%.2f", trap.parallelism() / strap.parallelism())});
    }
    table.print();
    std::printf("fitted growth exponents: TRAP N^%.2f, STRAP N^%.2f "
                "(theory: d=3 gap is lg(2d+1)-lg(d+2) = %.2f)\n",
                fit_exponent(ns, pt), fit_exponent(ns, ps),
                std::log2(7.0) - std::log2(5.0));
  }

  std::printf("\npaper (measured, Cilkview): 2D heat N=6400: TRAP 1887 vs "
              "STRAP ~115; 3D wave N=800: TRAP 337 vs STRAP ~23.\n");

  // (c) A *measured* multi-threaded datapoint at whatever core count this
  // host offers: 2D periodic heat in the four Figure-3 configurations,
  // timed as fig3 times them (measure_reps: grids built outside the timer,
  // one warm-up, the median of kReps reps), with telemetry attached (steal
  // ratio, spawns, points/s) so the parallel scaling claim is backed by
  // observed scheduler activity, not only the analytic work/span model
  // above.  The warm-up is printed as the cold rep: a run that finds the
  // workers parked after an idle pause stalls there, not in the median.
  {
    const int threads = rt::Scheduler::instance().num_threads();
    const std::int64_t n = scaled(1200, 1.0 / 3), t = scaled(96, 1.0 / 3);
    std::printf("\n(c) measured: 2D periodic heat %lldx%lld, T=%lld, "
                "%d thread(s)\n",
                static_cast<long long>(n), static_cast<long long>(n),
                static_cast<long long>(t), threads);

    struct Cfg {
      const char* name;
      Algorithm alg;
      bool parallel;
    };
    const Cfg cfgs[4] = {{"trap_1core", Algorithm::kTrap, false},
                         {"trap_pcore", Algorithm::kTrap, true},
                         {"loops_serial", Algorithm::kLoopsSerial, false},
                         {"loops_parallel", Algorithm::kLoopsParallel, true}};

    JsonReport report("fig9_parallelism");
    Table table({"config", "cold rep", "median (spread)", "Mpts/s",
                 "speedup vs 1core", "spawns", "steal ratio"});
    const double mpts =
        static_cast<double>(n) * static_cast<double>(n) *
        static_cast<double>(t) / 1e6;
    double base_seconds = 0.0;
    for (const Cfg& cfg : cfgs) {
      auto fresh = [&] {
        const auto shape = stencils::heat_shape<2>();
        auto a = std::make_shared<Array<double, 2>>(
            std::array<std::int64_t, 2>{n, n}, shape.depth());
        a->register_boundary(periodic_boundary<double, 2>());
        stencils::fill_random(*a, 0, 0.0, 1.0);
        auto heat = std::make_shared<Stencil<2, double>>(shape);
        heat->register_arrays(*a);
        return [a, heat, cfg, t] {
          auto kern = stencils::heat_kernel_2d({0.125, 0.125});
          if (cfg.parallel) {
            heat->run(cfg.alg, t, kern);
          } else {
            heat->run_serial(cfg.alg, t, kern);
          }
        };
      };
      // force_telemetry: this bench exists to produce a measured telemetry
      // datapoint, so counters are on for the first timed rep regardless
      // of POCHOIR_TELEMETRY.
      const Reps r = measure_reps(std::string("fig9/") + cfg.name, fresh,
                                  /*force_telemetry=*/true);
      const double seconds = r.timing.median;
      if (base_seconds == 0.0) base_seconds = seconds;
      table.add_row({cfg.name, strf("%.3fs", r.cold),
                     strf("%.3fs (%.0f%%)", seconds, 100 * r.timing.spread),
                     strf("%.1f", mpts / seconds),
                     strf("%.2f", base_seconds / seconds),
                     std::to_string(r.tel.sched.spawns),
                     strf("%.3f", r.tel.sched.steal_ratio())});
      report.add("Heat 2p", std::to_string(n) + "^2", t, cfg.name, seconds,
                 mpts / seconds, &r.tel, r.timing.spread);
    }
    table.print();
    std::printf("note: times are medians of %d reps (spread: interquartile "
                "range / median) after one warm-up, the cold rep; speedup "
                "is of the medians, vs trap_1core on this host (%d "
                "thread(s)); the paper's Figure 9 is the analytic sections "
                "above.\n",
                kReps, threads);
  }
  return 0;
}
