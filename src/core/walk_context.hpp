// Shared walk parameters for TRAP/STRAP: the shape's reach (the cut slope
// and the interior test's halo, one value for both), grid extents (for the
// interior/boundary zoid test), coarsening thresholds, and the cooperative
// cancellation token polled at zoid granularity.
#pragma once

#include <array>
#include <cstdint>

#include "core/options.hpp"
#include "core/shape.hpp"
#include "geometry/zoid.hpp"
#include "support/cancellation.hpp"
#include "telemetry/stats.hpp"

namespace pochoir {

template <int D>
struct WalkContext {
  /// The cut slope and the halo of the interior test.  The walking slope
  /// must respect anti-dependencies as well as data dependencies: with
  /// depth k >= 2, the write at invocation t reuses the circular time level
  /// holding grid time t-k, which readers at invocation t-1 may still need
  /// at spatial distance up to reach_i (the shape's sigma_i only bounds
  /// offset/span).  Using reach_i as the cut slope is safe for both
  /// directions; for depth-1 stencils (every benchmark in the paper)
  /// reach_i == sigma_i.
  std::array<std::int64_t, D> reach{};
  std::array<std::int64_t, D> grid{};
  std::int64_t dt_threshold = 1;
  std::array<std::int64_t, D> dx_threshold{};
  /// Optional cancellation token; walkers decline further work once it
  /// fires and unwind without touching more grid points.
  const CancelToken* cancel = nullptr;
  /// Optional walk-counter sink (telemetry).  Null = counting off; walkers
  /// increment at zoid/time-step granularity only, never in inner loops.
  telemetry::WalkStats* stats = nullptr;
  /// Zoid recursion levels at or above this depth emit trace spans
  /// (-1 = tracing off for this walk).
  int trace_depth = -1;

  /// Hot-path poll for the walkers and the loops engine.
  [[nodiscard]] bool should_stop() const {
    return cancel != nullptr && cancel->cancelled();
  }

  static WalkContext make(const Shape<D>& shape,
                          const std::array<std::int64_t, D>& grid,
                          const Options<D>& opts) {
    WalkContext ctx;
    ctx.reach = shape.reaches();
    ctx.grid = grid;
    ctx.dt_threshold = opts.dt_threshold < 1 ? 1 : opts.dt_threshold;
    ctx.dx_threshold = opts.dx_threshold;
    for (auto& th : ctx.dx_threshold) {
      if (th < 1) th = 1;
    }
    return ctx;
  }

  /// Shifts any dimension whose entire span lies at or beyond the seam back
  /// by the period (virtual -> true coordinates, §4).  Subzoids of a seam
  /// triangle stop crossing the seam after further cuts; normalizing them
  /// re-engages the interior fast path.
  [[nodiscard]] Zoid<D> normalize(Zoid<D> z) const {
    for (int i = 0; i < D; ++i) {
      const std::int64_t n = grid[static_cast<std::size_t>(i)];
      while (z.min_lo(i) >= n) {
        z.x0[i] -= n;
        z.x1[i] -= n;
      }
    }
    return z;
  }

  /// A zoid is *interior* when every access made while processing it stays
  /// inside the grid; interior zoids run the fast unchecked clone, and all
  /// subzoids of an interior zoid remain interior (§4, code cloning).
  [[nodiscard]] bool is_interior(const Zoid<D>& z) const {
    for (int i = 0; i < D; ++i) {
      if (z.min_lo(i) - reach[static_cast<std::size_t>(i)] < 0) return false;
      if (z.max_hi(i) + reach[static_cast<std::size_t>(i)] >
          grid[static_cast<std::size_t>(i)]) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace pochoir
