// Walk-equivalence and allocation-freedom tests for the trapezoidal
// walkers.  (1) Fuzz: over random shapes, grids and coarsening thresholds,
// the TRAP and STRAP walkers must visit exactly the same (t, idx) multiset
// as the plain loop nest — every space-time point once.  (2) The
// stack-resident SubzoidLevels buckets must agree with the reference
// enumeration.  (3) The serial walk performs zero heap allocations,
// verified with a counting operator new hook — the whole decomposition
// (planning, bucketing, recursion) lives on the stack.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <tuple>
#include <vector>

#include "core/trap.hpp"
#include "core/walk_context.hpp"
#include "geometry/cuts.hpp"
#include "geometry/zoid.hpp"
#include "runtime/parallel.hpp"
#include "support/math_util.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};

}  // namespace

// Counting global allocator hooks: active only while g_counting is set, so
// gtest/harness allocations outside the measured region are ignored.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

// Out of line, like the operator news above: when either side is inlined,
// gcc 12 sees the malloc / free pair and reports it as a mismatched
// new/delete (-Wmismatched-new-delete), the deletes at -O3 and the news
// under the TSan recipe (-O2 -fsanitize=thread).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pochoir {
namespace {

template <int D>
using PointKey = std::pair<std::int64_t, std::array<std::int64_t, D>>;

/// Records every point a walker base case touches, normalized into true
/// (mod-grid) coordinates exactly as the stencil's boundary clone does.
template <int D>
struct PointRecorder {
  const WalkContext<D>* ctx;
  std::map<PointKey<D>, int>* counts;

  void operator()(const Zoid<D>& z) const {
    for_each_point(z, [&](std::int64_t t,
                          const std::array<std::int64_t, D>& idx) {
      std::array<std::int64_t, D> true_idx;
      for (int i = 0; i < D; ++i) {
        true_idx[static_cast<std::size_t>(i)] = mod_floor(
            idx[static_cast<std::size_t>(i)],
            ctx->grid[static_cast<std::size_t>(i)]);
      }
      ++(*counts)[{t, true_idx}];
    });
  }
};

/// Every (t, x) of [0, T) x grid must be visited exactly once.
template <int D>
void expect_exact_cover(const WalkContext<D>& ctx, std::int64_t T,
                        const std::map<PointKey<D>, int>& counts) {
  std::int64_t cells = 1;
  for (int i = 0; i < D; ++i) cells *= ctx.grid[static_cast<std::size_t>(i)];
  ASSERT_EQ(static_cast<std::int64_t>(counts.size()), T * cells);
  for (const auto& [key, n] : counts) {
    ASSERT_EQ(n, 1) << "point t=" << key.first << " visited " << n << " times";
    EXPECT_GE(key.first, 0);
    EXPECT_LT(key.first, T);
    for (int i = 0; i < D; ++i) {
      EXPECT_GE(key.second[static_cast<std::size_t>(i)], 0);
      EXPECT_LT(key.second[static_cast<std::size_t>(i)],
                ctx.grid[static_cast<std::size_t>(i)]);
    }
  }
}

template <int D>
WalkContext<D> random_context(Rng& rng) {
  WalkContext<D> ctx;
  for (int i = 0; i < D; ++i) {
    const auto s = static_cast<std::size_t>(i);
    ctx.sigma[s] = rng.next_below(3);  // 0 (no dependency), 1, or 2
    ctx.reach[s] = ctx.sigma[s];
    ctx.grid[s] = 4 + rng.next_below(D == 1 ? 40 : 14);
    ctx.dx_threshold[s] = 1 + rng.next_below(8);
  }
  ctx.dt_threshold = 1 + rng.next_below(6);
  return ctx;
}

TEST(WalkEquivalence, TrapFuzz1D) {
  Rng rng(42);
  for (int trial = 0; trial < 120; ++trial) {
    const WalkContext<1> ctx = random_context<1>(rng);
    const std::int64_t T = 1 + rng.next_below(12);
    std::map<PointKey<1>, int> counts;
    PointRecorder<1> rec{&ctx, &counts};
    run_trap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<1>(ctx, T, counts);
  }
}

TEST(WalkEquivalence, StrapFuzz1D) {
  Rng rng(43);
  for (int trial = 0; trial < 120; ++trial) {
    const WalkContext<1> ctx = random_context<1>(rng);
    const std::int64_t T = 1 + rng.next_below(12);
    std::map<PointKey<1>, int> counts;
    PointRecorder<1> rec{&ctx, &counts};
    run_strap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<1>(ctx, T, counts);
  }
}

TEST(WalkEquivalence, TrapFuzz2D) {
  Rng rng(44);
  for (int trial = 0; trial < 60; ++trial) {
    const WalkContext<2> ctx = random_context<2>(rng);
    const std::int64_t T = 1 + rng.next_below(9);
    std::map<PointKey<2>, int> counts;
    PointRecorder<2> rec{&ctx, &counts};
    run_trap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<2>(ctx, T, counts);
  }
}

TEST(WalkEquivalence, StrapFuzz2D) {
  Rng rng(45);
  for (int trial = 0; trial < 60; ++trial) {
    const WalkContext<2> ctx = random_context<2>(rng);
    const std::int64_t T = 1 + rng.next_below(9);
    std::map<PointKey<2>, int> counts;
    PointRecorder<2> rec{&ctx, &counts};
    run_strap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<2>(ctx, T, counts);
  }
}

TEST(WalkEquivalence, TrapFuzz3D) {
  Rng rng(46);
  for (int trial = 0; trial < 20; ++trial) {
    WalkContext<3> ctx = random_context<3>(rng);
    for (auto& g : ctx.grid) g = 3 + (g % 6);  // keep volume testable
    const std::int64_t T = 1 + rng.next_below(6);
    std::map<PointKey<3>, int> counts;
    PointRecorder<3> rec{&ctx, &counts};
    run_trap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<3>(ctx, T, counts);
  }
}

TEST(WalkEquivalence, StrapFuzz3D) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    WalkContext<3> ctx = random_context<3>(rng);
    for (auto& g : ctx.grid) g = 3 + (g % 6);  // keep volume testable
    const std::int64_t T = 1 + rng.next_below(6);
    std::map<PointKey<3>, int> counts;
    PointRecorder<3> rec{&ctx, &counts};
    run_strap(ctx, rt::SerialPolicy{}, 0, T, rec, rec);
    expect_exact_cover<3>(ctx, T, counts);
  }
}

/// The stack-resident buckets must hold exactly the zoids the reference
/// enumeration produces, level by level.
TEST(SubzoidLevels, MatchesReferenceEnumeration) {
  Rng rng(77);
  int nonempty_plans = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Zoid<2> z;
    z.t0 = 0;
    z.t1 = 1 + rng.next_below(6);
    for (int i = 0; i < 2; ++i) {
      z.x0[i] = rng.next_below(10);
      z.x1[i] = z.x0[i] + rng.next_below(40);
      z.dx0[i] = rng.next_below(3) - 1;
      z.dx1[i] = rng.next_below(3) - 1;
    }
    if (!z.well_defined()) continue;
    const std::array<std::int64_t, 2> sigma = {1, 1};
    const std::array<std::int64_t, 2> thresh = {1, 1};
    const std::array<std::int64_t, 2> grid = {1 << 20, 1 << 20};
    const HyperCut<2> plan = plan_hyperspace_cut(z, sigma, thresh, grid);
    if (plan.empty()) continue;
    ++nonempty_plans;

    std::map<int, std::vector<Zoid<2>>> reference;
    for_each_subzoid(z, plan, [&](const Zoid<2>& sub, int level) {
      reference[level].push_back(sub);
    });

    SubzoidLevels<2> levels;
    collect_subzoids_by_level(z, plan, levels);
    ASSERT_EQ(levels.level_count, plan.level_count());
    for (int l = 0; l < levels.level_count; ++l) {
      const auto it = reference.find(l);
      const std::size_t want = it == reference.end() ? 0 : it->second.size();
      ASSERT_EQ(static_cast<std::size_t>(levels.size(l)), want);
      for (int i = 0; i < levels.size(l); ++i) {
        // Bucket fill preserves enumeration order within a level.
        EXPECT_EQ(levels.at(l, i), it->second[static_cast<std::size_t>(i)]);
      }
    }
  }
  EXPECT_GT(nonempty_plans, 50);
}

/// The tentpole guarantee: a serial TRAP/STRAP walk — planning, bucketing,
/// recursion, base-case dispatch — performs zero heap allocations.
TEST(WalkAllocation, SerialTrapWalkIsAllocationFree) {
  WalkContext<2> ctx;
  ctx.sigma = {1, 1};
  ctx.reach = {1, 1};
  ctx.grid = {64, 64};
  ctx.dt_threshold = 3;
  ctx.dx_threshold = {4, 4};
  std::int64_t visited = 0;
  auto base = [&](const Zoid<2>& z) { visited += z.volume(); };

  g_allocs.store(0);
  g_counting.store(true);
  run_trap(ctx, rt::SerialPolicy{}, 0, 32, base, base);
  g_counting.store(false);

  EXPECT_EQ(visited, 64 * 64 * 32);
  EXPECT_EQ(g_allocs.load(), 0)
      << "the serial TRAP walk must not touch the heap";
}

TEST(WalkAllocation, SerialStrapWalkIsAllocationFree) {
  WalkContext<2> ctx;
  ctx.sigma = {1, 1};
  ctx.reach = {1, 1};
  ctx.grid = {48, 48};
  ctx.dt_threshold = 2;
  ctx.dx_threshold = {3, 3};
  std::int64_t visited = 0;
  auto base = [&](const Zoid<2>& z) { visited += z.volume(); };

  g_allocs.store(0);
  g_counting.store(true);
  run_strap(ctx, rt::SerialPolicy{}, 0, 16, base, base);
  g_counting.store(false);

  EXPECT_EQ(visited, 48 * 48 * 16);
  EXPECT_EQ(g_allocs.load(), 0)
      << "the serial STRAP walk must not touch the heap";
}

TEST(WalkAllocation, SerialTrapWalk4DIsAllocationFree) {
  WalkContext<4> ctx;
  ctx.sigma = {1, 1, 1, 1};
  ctx.reach = {1, 1, 1, 1};
  ctx.grid = {10, 10, 10, 10};
  ctx.dt_threshold = 2;
  ctx.dx_threshold = {2, 2, 2, Options<4>::kNeverCut};
  std::int64_t visited = 0;
  auto base = [&](const Zoid<4>& z) { visited += z.volume(); };

  g_allocs.store(0);
  g_counting.store(true);
  run_trap(ctx, rt::SerialPolicy{}, 0, 8, base, base);
  g_counting.store(false);

  EXPECT_EQ(visited, 10 * 10 * 10 * 10 * 8);
  EXPECT_EQ(g_allocs.load(), 0)
      << "the serial 4D TRAP walk must not touch the heap";
}

}  // namespace
}  // namespace pochoir
