// TRAP — Pochoir's cache-oblivious parallel algorithm (Figure 2, §3) — and
// STRAP, Frigo & Strumpen's serial space cuts, as its one-dimension mode.
//
// The walker recursively decomposes a zoid:
//   1. Hyperspace cut: apply a parallel space cut to every dimension that
//      admits one, up to `max_dims` of them, lowest index first.  The 3^k
//      subzoids fall into k+1 dependency levels (Lemma 1); levels run in
//      order, and the zoids of a level are one parallel loop, the policy's
//      for_chunks: one task per zoid up to rt::kMaxChunks, so a level
//      holding one zoid runs inline.  TRAP cuts up to D dimensions at once.
//      STRAP cuts one, and with k = 1 the levels are exactly its order: the
//      two blacks in parallel before the gray when upright and after it
//      when inverted, the seam ring before the seam triangle.  A sequence
//      of k space cuts therefore costs STRAP 2k parallel steps versus
//      TRAP's k+1, which is the whole asymptotic difference analyzed in
//      Theorems 3 and 5.
//   2. Time cut: if no space cut applies and the height exceeds the
//      coarsening threshold, halve the time dimension; lower before upper.
//      Both algorithms perform identical time cuts, hence identical cache
//      behaviour.
//   3. Base case: hand the zoid to the interior or boundary base case (the
//      two kernel clones of §4).
//
// The walker is policy-parameterized (serial vs work-stealing parallel) and
// takes its base cases as type-erased BaseCase<D> references, so one
// compiled walker per (D, policy) serves TRAP and STRAP, real execution,
// pointer-optimized base cases, and traced simulation.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/base_case.hpp"
#include "core/walk_context.hpp"
#include "geometry/cuts.hpp"
#include "geometry/zoid.hpp"
#include "runtime/parallel.hpp"
#include "telemetry/trace.hpp"

namespace pochoir {

template <int D, typename Policy>
class TrapWalker {
 public:
  /// Cuts at most `max_dims` dimensions per space cut: D for TRAP, 1 for
  /// STRAP.
  TrapWalker(const WalkContext<D>& ctx, const Policy& policy,
             BaseCase<D> interior_base, BaseCase<D> boundary_base,
             int max_dims)
      : ctx_(ctx),
        policy_(policy),
        interior_base_(interior_base),
        boundary_base_(boundary_base),
        max_dims_(max_dims) {}

  /// Processes every grid point of `z` in dependency order.
  void walk(const Zoid<D>& z) {
    if (z.height() < 1) return;
    walk_impl(z, /*interior=*/false, /*depth=*/0);
  }

 private:
  void walk_impl(const Zoid<D>& virtual_z, bool interior, int depth) {
    // Cooperative cancellation at zoid granularity: a fired token makes the
    // whole recursion decline work and unwind; the supervised runner then
    // restores the last slab-boundary snapshot.
    if (ctx_.should_stop()) return;
    const Zoid<D> z = interior ? virtual_z : ctx_.normalize(virtual_z);
    if (!interior) interior = ctx_.is_interior(z);
    // Only the top few recursion levels are traced (ctx.trace_depth, -1 =
    // off); a nullptr name makes the span a no-op.
    trace::Span span(depth <= ctx_.trace_depth ? "zoid" : nullptr, depth);

    const HyperCut<D> plan = plan_hyperspace_cut(
        z, ctx_.sigma, ctx_.dx_threshold, ctx_.grid, max_dims_);
    if (!plan.empty()) {
      if (ctx_.stats != nullptr) ctx_.stats->on_space_cut();
      // Stack-resident buckets: the recursion node performs no heap
      // allocation (SubzoidLevels has compile-time capacity 3^D x (D+1)).
      SubzoidLevels<D> levels;
      collect_subzoids_by_level(z, plan, levels);
      for (int l = 0; l < levels.level_count; ++l) {
        policy_.for_chunks(levels.size(l), [&](std::int64_t lo,
                                               std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            walk_impl(levels.at(l, static_cast<int>(i)), interior, depth + 1);
          }
        });
      }
      return;
    }

    if (z.height() > ctx_.dt_threshold) {
      if (ctx_.stats != nullptr) ctx_.stats->on_time_cut();
      const auto halves = time_cut(z);
      walk_impl(halves.first, interior, depth + 1);
      walk_impl(halves.second, interior, depth + 1);
      return;
    }

    if (ctx_.stats != nullptr) {
      ctx_.stats->on_base(static_cast<std::uint64_t>(z.volume()), z.height(),
                          interior);
    }
    if (interior) {
      interior_base_(z);
    } else {
      boundary_base_(z);
    }
  }

  const WalkContext<D>& ctx_;
  const Policy& policy_;
  BaseCase<D> interior_base_;
  BaseCase<D> boundary_base_;
  int max_dims_;
};

/// Convenience runner: walks the full space-time box [t0, t1) x grid with
/// TRAP.  Any callable f(const Zoid<D>&) converts to the base-case
/// parameters.
template <int D, typename Policy>
void run_trap(const WalkContext<D>& ctx, const Policy& policy,
              std::int64_t t0, std::int64_t t1,
              std::type_identity_t<BaseCase<D>> interior_base,
              std::type_identity_t<BaseCase<D>> boundary_base) {
  TrapWalker<D, Policy>(ctx, policy, interior_base, boundary_base, D)
      .walk(Zoid<D>::box(t0, t1, ctx.grid));
}

/// As run_trap, but with STRAP: one dimension cut per space cut.
template <int D, typename Policy>
void run_strap(const WalkContext<D>& ctx, const Policy& policy,
               std::int64_t t0, std::int64_t t1,
               std::type_identity_t<BaseCase<D>> interior_base,
               std::type_identity_t<BaseCase<D>> boundary_base) {
  TrapWalker<D, Policy>(ctx, policy, interior_base, boundary_base, 1)
      .walk(Zoid<D>::box(t0, t1, ctx.grid));
}

}  // namespace pochoir
