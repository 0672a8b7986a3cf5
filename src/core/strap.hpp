// STRAP — Frigo & Strumpen's parallel trapezoidal decomposition with
// *serial* space cuts (§3).
//
// STRAP applies the same trisection as TRAP but to one dimension per
// recursion step: the two black subzoids run in parallel, with a full
// synchronization point before (inverted) or after (upright) the gray
// subzoid.  A sequence of k space cuts therefore costs 2k parallel steps
// versus TRAP's k+1, which is the whole asymptotic difference analyzed in
// Theorems 3 and 5.  Both algorithms perform identical time cuts, hence
// identical cache behaviour.
//
// Like TrapWalker, the recursion is allocation-free: the DimCut pieces live
// in the walker's frame and parallel forks use stack-resident tasks
// (rt::parallel_invoke), so no recursion node touches the heap.
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
class StrapWalker {
 public:
  StrapWalker(const WalkContext<D>& ctx, const Policy& policy,
              BaseCase<D> interior_base, BaseCase<D> boundary_base)
      : ctx_(ctx),
        policy_(policy),
        interior_base_(interior_base),
        boundary_base_(boundary_base) {}

  void walk(const Zoid<D>& z) {
    if (z.height() < 1) return;
    walk_impl(z, /*interior=*/false, /*depth=*/0);
  }

 private:
  void walk_impl(const Zoid<D>& virtual_z, bool interior, int depth) {
    // Same zoid-granularity cancellation poll as TrapWalker.
    if (ctx_.should_stop()) return;
    const Zoid<D> z = interior ? virtual_z : ctx_.normalize(virtual_z);
    if (!interior) interior = ctx_.is_interior(z);
    trace::Span span(depth <= ctx_.trace_depth ? "zoid" : nullptr, depth);

    if (auto cut = plan_first_cut(z, ctx_.sigma, ctx_.dx_threshold, ctx_.grid)) {
      if (ctx_.stats != nullptr) ctx_.stats->on_space_cut();
      const int dim = cut->first;
      const DimCut& c = cut->second;
      if (c.count == 2 && c.seam) {
        // Torus seam cut: the black ring strictly precedes the seam piece.
        walk_impl(with_piece(z, dim, c.piece[0]), interior, depth + 1);
        walk_impl(with_piece(z, dim, c.piece[1]), interior, depth + 1);
        return;
      }
      if (c.count == 2) {
        const Zoid<D> a = with_piece(z, dim, c.piece[0]);
        const Zoid<D> b = with_piece(z, dim, c.piece[1]);
        policy_.invoke2([&] { walk_impl(a, interior, depth + 1); },
                        [&] { walk_impl(b, interior, depth + 1); });
        return;
      }
      const Zoid<D> black1 = with_piece(z, dim, c.piece[0]);
      const Zoid<D> gray = with_piece(z, dim, c.piece[1]);
      const Zoid<D> black3 = with_piece(z, dim, c.piece[2]);
      if (c.upright) {
        policy_.invoke2([&] { walk_impl(black1, interior, depth + 1); },
                        [&] { walk_impl(black3, interior, depth + 1); });
        walk_impl(gray, interior, depth + 1);
      } else {
        walk_impl(gray, interior, depth + 1);
        policy_.invoke2([&] { walk_impl(black1, interior, depth + 1); },
                        [&] { walk_impl(black3, interior, depth + 1); });
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
};

/// Convenience runner: walks the full space-time box [t0, t1) x grid.
template <int D, typename Policy>
void run_strap(const WalkContext<D>& ctx, const Policy& policy,
               std::int64_t t0, std::int64_t t1,
               std::type_identity_t<BaseCase<D>> interior_base,
               std::type_identity_t<BaseCase<D>> boundary_base) {
  StrapWalker<D, Policy> walker(ctx, policy, interior_base, boundary_base);
  walker.walk(Zoid<D>::box(t0, t1, ctx.grid));
}

}  // namespace pochoir
