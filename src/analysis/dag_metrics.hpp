// Work/span analysis — the Cilkview substrate for Figure 9.
//
// The paper measures parallelism (work T1 divided by span T_inf) with the
// Cilkview scalability analyzer.  Here we compute both quantities exactly
// by replaying the *same* decomposition decisions the real walker makes
// (TrapWalker in core/trap.hpp, through the shared planning code in
// geometry/cuts.hpp; STRAP is the same walk cutting one dimension at a
// time) and composing costs over the spawn tree:
//
//   serial composition:    work adds, span adds
//   parallel composition:  work adds, span takes the max plus a
//                          Theta(lg r) spawning term for a parallel loop
//                          of r iterations (as in the proof of Lemma 2)
//
// A dependency level holding a single subzoid is a serial composition: the
// walker's parallel loop over it is one chunk, and a one-chunk loop runs
// inline, so it is charged no spawn.
//
// Base-case zoids contribute volume() * cost.point without visiting points,
// so the analysis runs in time proportional to the recursion tree, not the
// space-time volume; identical-shaped zoids are memoized (decomposition
// decisions are translation-invariant except for full-circumference seam
// detection, which the memo key captures).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <unordered_map>

#include "core/walk_context.hpp"
#include "geometry/cuts.hpp"
#include "geometry/zoid.hpp"

namespace pochoir {

/// Work and span of a computation, in abstract cost units.
struct DagMetrics {
  double work = 0;
  double span = 0;

  [[nodiscard]] double parallelism() const {
    return span > 0 ? work / span : 0;
  }

  DagMetrics& operator+=(const DagMetrics& o) {
    work += o.work;
    span += o.span;
    return *this;
  }
};

/// Cost model: all units are "kernel applications".
struct DagCosts {
  double point = 1.0;  ///< one kernel invocation
  double node = 1.0;   ///< fixed overhead per recursion node
  double spawn = 1.0;  ///< per-task spawn overhead in a parallel step
};

namespace detail {

template <int D>
struct ZoidShapeKey {
  std::int64_t h;
  std::array<std::int64_t, 3 * D> dims;  // width, dx0, dx1 per dim
  std::array<bool, D> full;              // full-circumference flag per dim

  bool operator==(const ZoidShapeKey&) const = default;
};

template <int D>
struct ZoidShapeKeyHash {
  std::size_t operator()(const ZoidShapeKey<D>& k) const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.h));
    for (auto v : k.dims) mix(static_cast<std::uint64_t>(v));
    for (bool b : k.full) mix(b ? 1 : 2);
    return static_cast<std::size_t>(h);
  }
};

template <int D>
ZoidShapeKey<D> shape_key(
    const Zoid<D>& z,
    const std::type_identity_t<std::array<std::int64_t, D>>& grid) {
  ZoidShapeKey<D> k;
  k.h = z.height();
  for (int i = 0; i < D; ++i) {
    k.dims[static_cast<std::size_t>(3 * i)] = z.bottom_width(i);
    k.dims[static_cast<std::size_t>(3 * i + 1)] = z.dx0[i];
    k.dims[static_cast<std::size_t>(3 * i + 2)] = z.dx1[i];
    k.full[static_cast<std::size_t>(i)] =
        z.x0[i] == 0 && z.x1[i] == grid[static_cast<std::size_t>(i)] &&
        z.dx0[i] == 0 && z.dx1[i] == 0;
  }
  return k;
}

inline double lg2(double x) { return x > 1 ? std::log2(x) : 0.0; }

template <int D>
class MetricsWalker {
 public:
  /// `max_dims` is TrapWalker's: D for TRAP, 1 for STRAP.
  MetricsWalker(const WalkContext<D>& ctx, const DagCosts& costs,
                int max_dims)
      : ctx_(ctx), costs_(costs), max_dims_(max_dims) {}

  DagMetrics walk(const Zoid<D>& virtual_z) {
    const Zoid<D> z = ctx_.normalize(virtual_z);
    const auto key = shape_key(z, ctx_.grid);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    DagMetrics m = compute(z);
    m.work += costs_.node;
    m.span += costs_.node;
    memo_.emplace(key, m);
    return m;
  }

 private:
  DagMetrics compute(const Zoid<D>& z) {
    const HyperCut<D> plan = plan_hyperspace_cut(
        z, ctx_.sigma, ctx_.dx_threshold, ctx_.grid, max_dims_);
    if (!plan.empty()) return space_cut(z, plan);
    if (z.height() > ctx_.dt_threshold) {
      const auto halves = time_cut(z);
      DagMetrics m = walk(halves.first);
      m += walk(halves.second);
      return m;
    }
    const double units = static_cast<double>(z.volume()) * costs_.point;
    return {units, units};
  }

  /// Levels run serially; zoids within a level in parallel, except that a
  /// level of one zoid runs inline.
  DagMetrics space_cut(const Zoid<D>& z, const HyperCut<D>& plan) {
    SubzoidLevels<D> levels;
    collect_subzoids_by_level(z, plan, levels);
    DagMetrics total;
    for (int l = 0; l < levels.level_count; ++l) {
      const int n = levels.size(l);
      if (n == 0) continue;
      if (n == 1) {
        total += walk(levels.at(l, 0));
        continue;
      }
      const double r = static_cast<double>(n);
      DagMetrics level{costs_.spawn * r, costs_.spawn * lg2(r)};
      double max_span = 0;
      for (int i = 0; i < n; ++i) {
        const DagMetrics m = walk(levels.at(l, i));
        level.work += m.work;
        max_span = std::max(max_span, m.span);
      }
      level.span += max_span;
      total += level;
    }
    return total;
  }

  const WalkContext<D>& ctx_;
  const DagCosts& costs_;
  int max_dims_;
  std::unordered_map<ZoidShapeKey<D>, DagMetrics, ZoidShapeKeyHash<D>> memo_;
};

}  // namespace detail

/// Work/span of TRAP over [t0, t1) x grid.
template <int D>
DagMetrics analyze_trap(const WalkContext<D>& ctx, std::int64_t t0,
                        std::int64_t t1, const DagCosts& costs = {}) {
  return detail::MetricsWalker<D>(ctx, costs, D)
      .walk(Zoid<D>::box(t0, t1, ctx.grid));
}

/// Work/span of STRAP over [t0, t1) x grid.
template <int D>
DagMetrics analyze_strap(const WalkContext<D>& ctx, std::int64_t t0,
                         std::int64_t t1, const DagCosts& costs = {}) {
  return detail::MetricsWalker<D>(ctx, costs, 1)
      .walk(Zoid<D>::box(t0, t1, ctx.grid));
}

}  // namespace pochoir
