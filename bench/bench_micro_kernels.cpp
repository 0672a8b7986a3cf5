// Micro-benchmarks (google-benchmark): per-access costs of the kernel
// access paths (the interior clone's row view; the boundary clone's
// checked row view, inlining a BoundaryRule or calling a BoundaryFn; the
// per-point BoundaryView of the checked-everywhere reference; the Phase-1
// proxy), the work-stealing deque, and the cache simulator.  These
// quantify the constant factors behind the paper's §4 optimizations.
#include <benchmark/benchmark.h>

#include <type_traits>
#include <utility>

#include "analysis/cache_sim.hpp"
#include "core/array.hpp"
#include "core/boundary.hpp"
#include "core/shape.hpp"
#include "core/trap.hpp"
#include "core/views.hpp"
#include "core/walk_context.hpp"
#include "geometry/cuts.hpp"
#include "runtime/parallel.hpp"
#include "runtime/task_deque.hpp"

namespace {

using pochoir::Array;
using pochoir::BoundaryView;
using pochoir::InteriorRowView;
using pochoir::RowView;

Array<double, 2> make_grid(pochoir::BoundaryFn<double, 2> boundary) {
  Array<double, 2> a({256, 256}, 1);
  a.register_boundary(std::move(boundary));
  a.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return 0.001 * static_cast<double>(i[0] + i[1]);
  });
  return a;
}

/// Periodic grid whose boundary is a BoundaryRule (periodic_boundary).
Array<double, 2>& grid() {
  static Array<double, 2> u =
      make_grid(pochoir::periodic_boundary<double, 2>());
  return u;
}

/// The same grid with the same wrap as a plain lambda, which the checked
/// row view calls.
Array<double, 2>& callable_grid() {
  static Array<double, 2> u = make_grid(
      [](const Array<double, 2>& a, std::int64_t t,
         const std::array<std::int64_t, 2>& idx) {
        return a.at(t, {pochoir::mod_floor(idx[0], a.extent(0)),
                        pochoir::mod_floor(idx[1], a.extent(1))});
      });
  return u;
}

void BM_InteriorRowViewAccess(benchmark::State& state) {
  auto& u = grid();
  // Row view for kernel time 0 of a home_dt = 1 stencil: reads of t = 0.
  InteriorRowView<double, 2> v(u, 0, 1);
  std::int64_t x = 1;
  double acc = 0;
  for (auto _ : state) {
    acc += v(0, x, x + 1);
    x = (x + 7) % 250 + 1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_InteriorRowViewAccess);

// The boundary clone's checked row view (kernel time 0, home_dt = 1): an
// in-domain read is D unsigned compares and a load; an off-grid read maps
// through the rule inlined (Check = InlineRule) or calls the array's
// BoundaryFn through Array::get (Check = CallBoundary).
template <typename Check, bool kOffGrid>
void checked_row_view_access(benchmark::State& state) {
  auto& u = std::is_same_v<Check, pochoir::InlineRule> ? grid()
                                                        : callable_grid();
  const RowView<double, 2, Check> v(u, 0, 1, pochoir::boundary_rule(u));
  std::int64_t x = 1;
  double acc = 0;
  for (auto _ : state) {
    if constexpr (kOffGrid) {
      acc += v(0, -x, x);  // always off-domain
      x = x % 250 + 1;
    } else {
      acc += v(0, x, x + 1);
      x = (x + 7) % 250 + 1;
    }
  }
  benchmark::DoNotOptimize(acc);
}

void BM_CheckedRowViewRuleInterior(benchmark::State& state) {
  checked_row_view_access<pochoir::InlineRule, false>(state);
}
BENCHMARK(BM_CheckedRowViewRuleInterior);

void BM_CheckedRowViewRuleOffGrid(benchmark::State& state) {
  checked_row_view_access<pochoir::InlineRule, true>(state);
}
BENCHMARK(BM_CheckedRowViewRuleOffGrid);

void BM_CheckedRowViewCallableInterior(benchmark::State& state) {
  checked_row_view_access<pochoir::CallBoundary, false>(state);
}
BENCHMARK(BM_CheckedRowViewCallableInterior);

void BM_CheckedRowViewCallableOffGrid(benchmark::State& state) {
  checked_row_view_access<pochoir::CallBoundary, true>(state);
}
BENCHMARK(BM_CheckedRowViewCallableOffGrid);

void BM_BoundaryViewAccessInterior(benchmark::State& state) {
  auto& u = grid();
  BoundaryView<double, 2> v(u);
  std::int64_t x = 1;
  double acc = 0;
  for (auto _ : state) {
    acc += v(0, x, x + 1);
    x = (x + 7) % 250 + 1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BoundaryViewAccessInterior);

void BM_BoundaryViewAccessOffGrid(benchmark::State& state) {
  auto& u = grid();
  BoundaryView<double, 2> v(u);
  std::int64_t x = 1;
  double acc = 0;
  for (auto _ : state) {
    acc += v(0, -x, x);  // always off-domain: boundary function invoked
    x = x % 250 + 1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BoundaryViewAccessOffGrid);

void BM_Phase1ProxyAccess(benchmark::State& state) {
  auto& u = grid();
  std::int64_t x = 1;
  double acc = 0;
  for (auto _ : state) {
    acc += u(0, x, x + 1);
    x = (x + 7) % 250 + 1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Phase1ProxyAccess);

void BM_TaskDequePushPop(benchmark::State& state) {
  pochoir::rt::TaskDeque dq;
  auto* token = reinterpret_cast<pochoir::rt::Task*>(std::uintptr_t{0x10});
  for (auto _ : state) {
    dq.push(token);
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_TaskDequePushPop);

void BM_CacheSimTouch(benchmark::State& state) {
  pochoir::CacheSim sim(256 * 1024);
  const auto& u = grid();
  const double* base = u.data();
  std::size_t i = 0;
  for (auto _ : state) {
    sim.touch(base + i, sizeof(double));
    i = (i + 17) % 65536;
  }
  benchmark::DoNotOptimize(sim.misses());
}
BENCHMARK(BM_CacheSimTouch);

void BM_PlanHyperspaceCut2D(benchmark::State& state) {
  const auto z = pochoir::Zoid<2>::box(0, 8, {512, 512});
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> thresh = {1, 1};
  const std::array<std::int64_t, 2> grid_ext = {1024, 1024};
  for (auto _ : state) {
    auto plan = pochoir::plan_hyperspace_cut(z, sigma, thresh, grid_ext);
    benchmark::DoNotOptimize(plan.k);
  }
}
BENCHMARK(BM_PlanHyperspaceCut2D);

// Cost of bucketing one hyperspace cut's 9 subzoids by dependency level —
// the per-recursion-node overhead of the TRAP walker.
void BM_CollectSubzoidsByLevel2D(benchmark::State& state) {
  auto z = pochoir::Zoid<2>::box(0, 8, {512, 512});
  z.x0 = {1, 1};  // off-origin: plain trisection, not a seam cut
  const std::array<std::int64_t, 2> sigma = {1, 1};
  const std::array<std::int64_t, 2> thresh = {1, 1};
  const std::array<std::int64_t, 2> grid_ext = {1 << 20, 1 << 20};
  const auto plan = pochoir::plan_hyperspace_cut(z, sigma, thresh, grid_ext);
  pochoir::SubzoidLevels<2> levels;
  for (auto _ : state) {
    pochoir::collect_subzoids_by_level(z, plan, levels);
    benchmark::DoNotOptimize(levels.total());
  }
}
BENCHMARK(BM_CollectSubzoidsByLevel2D);

// Pure decomposition overhead of a full TRAP walk: no-op base cases, so
// everything measured is cuts, bucketing, and recursion bookkeeping.
// Reported per base-case zoid reached.
void BM_TrapWalkOverhead2D(benchmark::State& state) {
  using namespace pochoir;
  const Shape<2> shape = {{1, 0, 0}, {0, 0, 0}, {0, 1, 0},
                          {0, -1, 0}, {0, 0, -1}, {0, 0, 1}};
  const std::array<std::int64_t, 2> extents = {512, 512};
  const WalkContext<2> ctx =
      WalkContext<2>::make(shape, extents, Options<2>::heuristic());
  std::int64_t zoids = 0;
  for (auto _ : state) {
    auto base = [&](const Zoid<2>&) { ++zoids; };
    run_trap(ctx, rt::SerialPolicy{}, 0, 64, base, base);
    benchmark::DoNotOptimize(zoids);
  }
  state.SetItemsProcessed(zoids);
}
BENCHMARK(BM_TrapWalkOverhead2D);

}  // namespace

BENCHMARK_MAIN();
