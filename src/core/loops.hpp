// LOOPS — the straightforward loop-nest baseline (Figure 1).
//
// One serial loop over time; the outermost spatial dimension optionally
// parallelized (the paper's cilk_for baseline).  Each time step is cut into
// dim-0 chunks by the policy (one chunk when serial; in parallel, the
// contiguous chunks of rt::parallel_for_chunks), and every chunk runs as a
// height-1 zoid through the same two base cases TRAP and STRAP use.  A
// chunk that touches the grid edge goes to the boundary base, which splits
// each row into a checked prefix, an unchecked interior middle and a
// checked suffix (the ghost-cell trick the paper's baseline mirrors), so
// interior points pay no boundary test, and the prefix and suffix run the
// boundary clone's checked row view, made once per piece.  The loops'
// chunks lie inside the grid, so their rows need no coordinate wrap.
// Passing a checked base case for both clones gives the "check on every
// access" variant used for the §4 ablation (2.3x degradation on periodic
// heat) and as the differential tests' reference, where no row splitter
// runs.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/base_case.hpp"
#include "core/walk_context.hpp"
#include "geometry/zoid.hpp"
#include "runtime/parallel.hpp"
#include "telemetry/trace.hpp"

namespace pochoir {

/// Runs the loop-nest baseline over [t0, t1) x grid.
template <int D, typename Policy>
void run_loops(const WalkContext<D>& ctx, const Policy& policy,
               std::int64_t t0, std::int64_t t1,
               std::type_identity_t<BaseCase<D>> interior_base,
               std::type_identity_t<BaseCase<D>> boundary_base) {
  const auto& grid = ctx.grid;
  // Telemetry at time-step granularity: one spatial-volume increment per
  // completed step, nothing inside the chunks.
  std::uint64_t step_points = 1;
  for (int i = 0; i < D; ++i) {
    step_points *= static_cast<std::uint64_t>(grid[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t t = t0; t < t1; ++t) {
    // Cancellation unwinds between whole time steps; the loops engine has
    // no finer consistent boundary.
    if (ctx.should_stop()) return;
    trace::Span span(ctx.trace_depth >= 0 ? "loops_step" : nullptr, t);
    policy.for_chunks(grid[0], [&](std::int64_t lo, std::int64_t hi) {
      Zoid<D> z = Zoid<D>::box(t, t + 1, grid);
      z.x0[0] = lo;
      z.x1[0] = hi;
      if (ctx.is_interior(z)) {
        interior_base(z);
      } else {
        boundary_base(z);
      }
    });
    if (ctx.stats != nullptr) ctx.stats->on_loops_step(step_points);
  }
}

}  // namespace pochoir
