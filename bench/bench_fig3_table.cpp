// Figure 3 — the paper's main table: ten stencil benchmarks, each run as
//   Pochoir on 1 core, Pochoir on all cores, serial loops, parallel loops,
// reporting times, Pochoir self-speedup, and the loops/Pochoir ratios.
//
// Only the run is timed.  Each configuration builds its grid (allocation,
// fill, registration) outside the timer, runs once untimed to warm up, and
// then runs kReps timed reps, each on a freshly built and filled grid.
// The table and every JSON row report the median of the reps and their
// spread, the distance between the quartiles over the median.
//
// Grids are scaled from the paper's 12-core sizes (e.g. Heat 2 was
// 16,000^2 x 500 there); the *ratios* are the reproduction target.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "stencils/apop.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"
#include "stencils/lbm.hpp"
#include "stencils/lcs.hpp"
#include "stencils/life.hpp"
#include "stencils/psa.hpp"
#include "stencils/rna.hpp"
#include "stencils/wave.hpp"

namespace pochoir::bench {
namespace {

struct Row {
  std::string name;
  std::string dims;
  std::string grid;
  std::int64_t steps;
  std::int64_t space_points;  // spatial grid points per time step
  // trap_1core, trap_pcore, loops_serial, loops_parallel
  std::array<Timing, 4> time{};
  std::string paper_note;  // the paper's reported speedup / ratios
  // Per-config telemetry of the first timed rep, populated only when
  // POCHOIR_TELEMETRY (or POCHOIR_TRACE) is set — the default timed path
  // stays untouched.
  std::array<telemetry::RunTelemetry, 4> tel{};
};

/// Runs one benchmark in all four configurations.  The first timed rep of
/// each config runs inside a trace::Session, which is a pair of counter
/// snapshots when telemetry is off and additionally feeds the
/// trace/registry exports when it is on.
template <typename Setup>
Row run_benchmark(const std::string& name, const std::string& dims,
                  const std::string& grid, std::int64_t steps,
                  std::int64_t space_points, Setup&& setup,
                  const std::string& paper_note) {
  Row row{name, dims, grid, steps, space_points, {}, paper_note, {}};
  auto timed_cfg = [&](const char* cfg, Algorithm alg, bool parallel,
                       telemetry::RunTelemetry* out) {
    setup()(alg, parallel);  // warm-up, untimed
    std::vector<double> secs;
    for (int rep = 0; rep < kReps; ++rep) {
      auto runner = setup();  // a fresh grid, built outside the timer
      if (rep == 0) {
        trace::Session session(name + " " + dims + "/" + cfg);
        secs.push_back(timed([&] { runner(alg, parallel); }));
        *out = session.finish();
      } else {
        secs.push_back(timed([&] { runner(alg, parallel); }));
      }
    }
    return summarize(std::move(secs));
  };
  row.time[0] = timed_cfg("trap_1core", Algorithm::kTrap,
                          /*parallel=*/false, &row.tel[0]);
  row.time[1] = timed_cfg("trap_pcore", Algorithm::kTrap,
                          /*parallel=*/true, &row.tel[1]);
  row.time[2] = timed_cfg("loops_serial", Algorithm::kLoopsSerial,
                          /*parallel=*/false, &row.tel[2]);
  row.time[3] = timed_cfg("loops_parallel", Algorithm::kLoopsParallel,
                          /*parallel=*/true, &row.tel[3]);
  std::fprintf(stderr, "  done %-8s (%.2fs/%.2fs/%.2fs/%.2fs)\n", name.c_str(),
               row.time[0].median, row.time[1].median, row.time[2].median,
               row.time[3].median);
  return row;
}

/// A runner closure: invokes the stencil with the requested algorithm.
template <int D, typename CellT, typename KernFactory, typename Init>
auto make_runner(Shape<D> shape, std::array<std::int64_t, D> extents,
                 BoundaryFn<CellT, D> boundary, std::int64_t steps,
                 KernFactory kern_factory, Init init) {
  return [=]() {
    auto arr = std::make_shared<Array<CellT, D>>(extents, shape.depth());
    arr->register_boundary(boundary);
    init(*arr);
    auto stencil = std::make_shared<Stencil<D, CellT>>(shape);
    stencil->register_arrays(*arr);
    // `arr` must be named in the capture list: the stencil only holds a raw
    // pointer to it, and [=] would not capture an unreferenced variable.
    return [stencil, arr, steps, kern_factory](Algorithm alg, bool parallel) {
      auto kern = kern_factory();
      if (parallel) {
        stencil->run(alg, steps, kern);
      } else {
        stencil->run_serial(alg, steps, kern);
      }
    };
  };
}

}  // namespace
}  // namespace pochoir::bench

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;
  using namespace pochoir::stencils;

  print_header("Figure 3: benchmark table",
               "Tang et al., SPAA'11, Figure 3 (scaled grids)");

  std::vector<Row> rows;
  const double s13 = 1.0 / 3.0;  // 2D space + time scaling exponents
  (void)s13;

  // ---- Heat 2 (nonperiodic) -------------------------------------------
  {
    const std::int64_t n = scaled(1200, 1.0 / 3), t = scaled(96, 1.0 / 3);
    rows.push_back(run_benchmark(
        "Heat", "2", std::to_string(n) + "^2", t, n * n,
        make_runner<2, double>(
            heat_shape<2>(), {n, n}, dirichlet_boundary<double, 2>(0.0), t,
            [] { return heat_kernel_2d({0.125, 0.125}); },
            [](Array<double, 2>& a) { fill_random(a, 0, 0.0, 1.0); }),
        "paper: speedup 11.5, serial 25.5x, 12-core loops 6.2x"));
  }
  // ---- Heat 2p (periodic torus) ----------------------------------------
  {
    const std::int64_t n = scaled(1200, 1.0 / 3), t = scaled(96, 1.0 / 3);
    rows.push_back(run_benchmark(
        "Heat", "2p", std::to_string(n) + "^2", t, n * n,
        make_runner<2, double>(
            heat_shape<2>(), {n, n}, periodic_boundary<double, 2>(), t,
            [] { return heat_kernel_2d({0.125, 0.125}); },
            [](Array<double, 2>& a) { fill_random(a, 0, 0.0, 1.0); }),
        "paper: speedup 11.7, serial 68.6x, 12-core loops 10.3x"));
  }
  // ---- Heat 4 ------------------------------------------------------------
  {
    const std::int64_t n = scaled(36, 1.0 / 5), t = scaled(24, 1.0 / 5);
    rows.push_back(run_benchmark(
        "Heat", "4", std::to_string(n) + "^4", t, n * n * n * n,
        make_runner<4, double>(
            heat_shape<4>(), {n, n, n, n},
            dirichlet_boundary<double, 4>(0.0), t,
            [] { return heat_kernel_4d({0.06, 0.06, 0.06, 0.06}); },
            [](Array<double, 4>& a) { fill_random(a, 0, 0.0, 1.0); }),
        "paper: speedup 2.9, serial 8.0x, 12-core loops 1.9x"));
  }
  // ---- Life 2p ------------------------------------------------------------
  {
    const std::int64_t n = scaled(800, 1.0 / 3), t = scaled(96, 1.0 / 3);
    rows.push_back(run_benchmark(
        "Life", "2p", std::to_string(n) + "^2", t, n * n,
        make_runner<2, LifeCell>(
            life_shape(), {n, n}, periodic_boundary<LifeCell, 2>(), t,
            [] { return life_kernel(); },
            [](Array<LifeCell, 2>& a) {
              Rng rng(3);
              a.fill_time(0, [&](const auto&) -> LifeCell {
                return rng.next_below(3) == 0 ? 1 : 0;
              });
            }),
        "paper: speedup 12.3, serial 86.4x, 12-core loops 11.9x"));
  }
  // ---- Wave 3 -------------------------------------------------------------
  {
    const std::int64_t n = scaled(120, 1.0 / 4), t = scaled(40, 1.0 / 4);
    rows.push_back(run_benchmark(
        "Wave", "3", std::to_string(n) + "^3", t, n * n * n,
        make_runner<3, double>(
            wave_shape(), {n, n, n}, dirichlet_boundary<double, 3>(0.0), t,
            [] { return wave_kernel(0.1); },
            [](Array<double, 3>& a) {
              fill_random(a, 0, -0.1, 0.1);
              a.fill_time(1, [&](const std::array<std::int64_t, 3>& i) {
                return a.at(0, i);
              });
            }),
        "paper: speedup 6.9, serial 7.1x, 12-core loops 2.4x"));
  }
  // ---- LBM 3 ---------------------------------------------------------------
  {
    const std::int64_t n = scaled(48, 1.0 / 4), nz = scaled(64, 1.0 / 4);
    const std::int64_t t = scaled(40, 1.0 / 4);
    rows.push_back(run_benchmark(
        "LBM", "3", std::to_string(n) + "^2x" + std::to_string(nz), t, n * n * nz,
        make_runner<3, LbmCell>(
            lbm_shape(), {n, n, nz}, periodic_boundary<LbmCell, 3>(), t,
            [] { return lbm_kernel(0.7); },
            [](Array<LbmCell, 3>& a) { lbm_init(a, 0); }),
        "paper: speedup 5.1, serial 4.5x, 12-core loops 3.2x"));
  }
  // ---- RNA 2 ---------------------------------------------------------------
  {
    const std::int64_t n = 300;
    const std::int64_t t = scaled(300, 1.0);
    const auto seq = random_sequence(n, 4, 17);
    rows.push_back(run_benchmark(
        "RNA", "2", std::to_string(n) + "^2", t, n * n,
        make_runner<2, RnaCell>(
            rna_shape(), {n, n}, zero_boundary<RnaCell, 2>(), t,
            [seq] { return rna_kernel(seq); },
            [](Array<RnaCell, 2>& a) {
              a.fill_time(0, [](const auto&) { return 0; });
            }),
        "paper: speedup 4.5, serial 6.1x, 12-core loops 1.3x"));
  }
  // ---- PSA 1 ----------------------------------------------------------------
  {
    const std::int64_t n = scaled(8000, 1.0 / 2);
    const std::int64_t t = 2 * n - 1;
    const auto a_seq = random_sequence(n, 4, 21);
    const auto b_seq = random_sequence(n, 4, 22);
    const PsaCell border{psa_neg_inf, psa_neg_inf, psa_neg_inf};
    rows.push_back(run_benchmark(
        "PSA", "1", std::to_string(n), t, n + 1,
        make_runner<1, PsaCell>(
            psa_shape(), {n + 1}, dirichlet_boundary<PsaCell, 1>(border), t,
            [a_seq, b_seq] { return psa_kernel(a_seq, b_seq); },
            [border](Array<PsaCell, 1>& g) {
              g.fill_time(0, [&](const std::array<std::int64_t, 1>& i) {
                return i[0] == 0 ? PsaCell{0, psa_neg_inf, psa_neg_inf}
                                 : border;
              });
              g.fill_time(1, [&](const std::array<std::int64_t, 1>& i) {
                if (i[0] == 0) return PsaCell{psa_neg_inf, psa_neg_inf, -3};
                if (i[0] == 1) return PsaCell{psa_neg_inf, -3, psa_neg_inf};
                return border;
              });
            }),
        "paper: speedup 5.8, serial 24.0x, 12-core loops 4.3x"));
  }
  // ---- LCS 1 ----------------------------------------------------------------
  {
    const std::int64_t n = scaled(12000, 1.0 / 2);
    const std::int64_t t = 2 * n - 1;
    const auto a_seq = random_sequence(n, 4, 31);
    const auto b_seq = random_sequence(n, 4, 32);
    rows.push_back(run_benchmark(
        "LCS", "1", std::to_string(n), t, n + 1,
        make_runner<1, LcsCell>(
            lcs_shape(), {n + 1}, zero_boundary<LcsCell, 1>(), t,
            [a_seq, b_seq] { return lcs_kernel(a_seq, b_seq); },
            [](Array<LcsCell, 1>& g) {
              g.fill_time(0, [](const auto&) { return 0; });
              g.fill_time(1, [](const auto&) { return 0; });
            }),
        "paper: speedup 6.3, serial 11.7x, 12-core loops 3.0x"));
  }
  // ---- APOP 1 ----------------------------------------------------------------
  {
    ApopParams p;
    p.grid = scaled(65536, 1.0 / 2);
    p.steps = scaled(2048, 1.0 / 2);
    p.log_halfwidth = 4.0;
    // Keep the explicit scheme CFL-stable at this resolution.
    p.maturity = 0.9 / (p.dxi() > 0 ? (p.sigma * p.sigma / (p.dxi() * p.dxi()) + p.rate)
                                    : 1.0) * static_cast<double>(p.steps);
    rows.push_back(run_benchmark(
        "APOP", "1", std::to_string(p.grid), p.steps, p.grid,
        make_runner<1, double>(
            apop_shape(), {p.grid},
            BoundaryFn<double, 1>(
                [p](const Array<double, 1>&, std::int64_t,
                    const std::array<std::int64_t, 1>& idx) -> double {
                  return idx[0] < 0 ? p.payoff(idx[0]) : 0.0;
                }),
            p.steps, [p] { return apop_kernel(p); },
            [p](Array<double, 1>& v) {
              v.fill_time(0, [&](const std::array<std::int64_t, 1>& i) {
                return p.payoff(i[0]);
              });
            }),
        "paper: speedup 10.7, serial 128.8x, 12-core loops 12.0x"));
  }

  // ---- render the table -----------------------------------------------------
  Table table({"Benchmark", "Dims", "Grid", "Steps", "Pochoir 1c", "Pochoir Pc",
               "self-speedup", "serial loops", "ratio", "par loops", "ratio"});
  auto cell = [](const Timing& tm) {
    return strf("%.3fs (%.0f%%)", tm.median, 100 * tm.spread);
  };
  for (const Row& r : rows) {
    const double pcore = r.time[1].median;
    table.add_row({r.name, r.dims, r.grid, std::to_string(r.steps),
                   cell(r.time[0]), cell(r.time[1]),
                   strf("%.2f", r.time[0].median / pcore), cell(r.time[2]),
                   strf("%.1f", r.time[2].median / pcore), cell(r.time[3]),
                   strf("%.1f", r.time[3].median / pcore)});
  }
  table.print();
  std::printf("\npaper reference (12-core Nehalem):\n");
  for (const Row& r : rows) {
    std::printf("  %-5s %-3s %s\n", r.name.c_str(), r.dims.c_str(),
                r.paper_note.c_str());
  }
  std::printf("\nNote: times are medians of %d reps (their spread: "
              "interquartile range / median); 'ratio' columns are "
              "loops-time / Pochoir-all-cores time, the paper's 'ratio' "
              "definition.\n",
              kReps);

  JsonReport report("fig3_table");
  for (const Row& r : rows) {
    const double mpts = static_cast<double>(r.space_points) *
                        static_cast<double>(r.steps) / 1e6;
    const std::string kernel = r.name + " " + r.dims;
    const char* configs[4] = {"trap_1core", "trap_pcore", "loops_serial",
                              "loops_parallel"};
    for (std::size_t c = 0; c < 4; ++c) {
      // Counter deltas are all zero when telemetry was off; only attach
      // the block when it carries real data.
      const telemetry::RunTelemetry* tel =
          r.tel[c].points() > 0 ? &r.tel[c] : nullptr;
      report.add(kernel, r.grid, r.steps, configs[c], r.time[c].median,
                 mpts / r.time[c].median, tel, r.time[c].spread);
    }
  }
  return 0;
}
