// Trapezoidal decomposition: parallel space cuts, hyperspace cuts with
// dependency levels (Lemma 1), and time cuts — §3 of the paper.
//
// A parallel space cut trisects the projection trapezoid along one
// dimension into two "black" pieces (labels 1 and 3) that are mutually
// independent and one minimal "gray" piece (label 2).  For an upright
// trapezoid the blacks are processed before the gray; for an inverted one
// the gray goes first.  A hyperspace cut applies space cuts to k dimensions
// simultaneously; the resulting 3^k subzoids are partitioned into k+1
// dependency levels by   dep(u) = sum_i (u_i + I_i) mod 2   where I_i = 1
// iff the projection along i is upright.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "geometry/zoid.hpp"
#include "support/assertion.hpp"
#include "support/math_util.hpp"

namespace pochoir {

/// The pieces a single dimension contributes to a hyperspace cut.
///
/// `count` is 3 for a genuine trisection, 2 for the seam cut of a
/// full-circumference dimension (black ring + seam triangle in virtual
/// coordinates) or the degenerate bisection of a zero-slope dimension.
/// `label[j]` is the Lemma-1 label (1/3 = black, 2 = gray); `level_bit[j]`
/// is that piece's contribution (u_j + I) mod 2 to the dependency level.
struct DimCut {
  int count = 0;
  bool upright = true;
  bool seam = false;  ///< true for the circular (torus) cut
  std::array<Interval, 3> piece{};
  std::array<int, 3> label{};
  std::array<int, 3> level_bit{};

  /// Extra dependency levels this cut introduces (1 if it has a gray piece).
  [[nodiscard]] int level_span() const {
    int span = 0;
    for (int j = 0; j < count; ++j) span = std::max(span, level_bit[j]);
    return span;
  }
};

namespace detail {

/// Well-definedness of a single projection trapezoid of height h.
inline bool projection_well_defined(const Interval& v, std::int64_t h) {
  const std::int64_t bottom = v.x1 - v.x0;
  const std::int64_t top = (v.x1 + v.dx1 * h) - (v.x0 + v.dx0 * h);
  return bottom >= 0 && top >= 0 && (bottom > 0 || top > 0);
}

}  // namespace detail

/// Attempts the paper's parallel space cut along dimension `dim` with
/// stencil slope `sigma`.  Returns nullopt when the cut is inapplicable
/// (width below 2*sigma*height, or a resulting piece would be ill-defined).
///
/// `period` is the grid extent along `dim`.  The walker treats the whole
/// computation as periodic in every dimension (§4): a zoid that covers the
/// entire circumference with vertical sides receives the *seam cut* —
/// a shrinking black trapezoid over the full ring followed by a gray
/// triangle that grows across the seam in virtual coordinates
/// [period - sigma*h, period + sigma*h).  Cutting such a zoid with a plain
/// trisection would let points left of the seam be computed before the
/// points beyond it that they (periodically) depend on.
template <int D>
std::optional<DimCut> try_space_cut(const Zoid<D>& z, int dim,
                                    std::int64_t sigma, std::int64_t period) {
  const std::int64_t h = z.height();
  const std::int64_t w = z.width(dim);
  DimCut cut;
  cut.upright = z.upright(dim);

  if (sigma == 0) {
    // Zero-slope dimension: no spatial dependencies, so both halves are
    // independent black pieces (even across the seam).
    if (w < 2) return std::nullopt;
    const std::int64_t m = z.x0[dim] + w / 2;
    cut.count = 2;
    cut.piece[0] = {z.x0[dim], m, 0, 0};
    cut.piece[1] = {m, z.x1[dim], 0, 0};
    cut.label = {1, 3, 0};
    cut.level_bit = {0, 0, 0};
    return cut;
  }

  const bool full_circumference = z.x0[dim] == 0 && z.x1[dim] == period &&
                                  z.dx0[dim] == 0 && z.dx1[dim] == 0;
  if (full_circumference) {
    if (period < 2 * sigma * h) return std::nullopt;  // too short: time cut
    cut.count = 2;
    cut.seam = true;
    cut.piece[0] = {0, period, sigma, -sigma};          // black ring
    cut.piece[1] = {period, period, -sigma, sigma};     // gray seam triangle
    cut.label = {1, 2, 0};
    cut.level_bit = {0, 1, 0};
    return cut;
  }

  if (w < 2 * sigma * h) return std::nullopt;

  cut.count = 3;
  if (cut.upright) {
    // Split the longer (bottom) base at m; the gray inverted triangle grows
    // upward from the split point (Figure 7(a)).
    const std::int64_t m = z.x0[dim] + z.bottom_width(dim) / 2;
    cut.piece[0] = {z.x0[dim], m, z.dx0[dim], -sigma};  // black, label 1
    cut.piece[1] = {m, m, -sigma, sigma};               // gray,  label 2
    cut.piece[2] = {m, z.x1[dim], sigma, z.dx1[dim]};   // black, label 3
  } else {
    // Split the longer (top) base at lm; the gray upright triangle shrinks
    // to a point at the split (Figure 7(b)).
    const std::int64_t la = z.x0[dim] + z.dx0[dim] * h;
    const std::int64_t lm = la + z.top_width(dim) / 2;
    cut.piece[0] = {z.x0[dim], lm - sigma * h, z.dx0[dim], sigma};  // black 1
    cut.piece[1] = {lm - sigma * h, lm + sigma * h, sigma, -sigma}; // gray 2
    cut.piece[2] = {lm + sigma * h, z.x1[dim], -sigma, z.dx1[dim]}; // black 3
  }
  for (int j = 0; j < 3; ++j) {
    if (!detail::projection_well_defined(cut.piece[j], h)) return std::nullopt;
  }
  cut.label = {1, 2, 3};
  const int upright_bit = cut.upright ? 1 : 0;
  for (int j = 0; j < 3; ++j) {
    cut.level_bit[j] = (cut.label[j] + upright_bit) % 2;
  }
  return cut;
}

/// A hyperspace cut: the set of per-dimension cuts applied simultaneously.
template <int D>
struct HyperCut {
  std::array<std::optional<DimCut>, D> dims{};
  int k = 0;  ///< number of dimensions cut

  [[nodiscard]] bool empty() const { return k == 0; }

  /// Total number of subzoids, prod over cut dims of piece count.
  [[nodiscard]] std::int64_t subzoid_count() const {
    std::int64_t n = 1;
    for (const auto& cut : dims) {
      if (cut.has_value()) n *= cut->count;
    }
    return n;
  }

  /// Number of dependency levels (k + 1 in Lemma 1; degenerate bisections
  /// contribute no extra level).
  [[nodiscard]] int level_count() const {
    int levels = 1;
    for (const auto& cut : dims) {
      if (cut.has_value()) levels += cut->level_span();
    }
    return levels;
  }
};

/// Plans a hyperspace cut: tries a parallel space cut on every dimension
/// whose width exceeds both the slope condition and the coarsening
/// threshold, lowest index first, and stops once `max_dims` dimensions are
/// cut.  max_dims = D is TRAP's hyperspace cut; max_dims = 1 is STRAP's
/// serial space cut (Frigo & Strumpen cut one dimension per recursion
/// step).  An empty plan (k == 0) means no space cut applies.
template <int D>
HyperCut<D> plan_hyperspace_cut(
    const Zoid<D>& z,
    const std::type_identity_t<std::array<std::int64_t, D>>& sigma,
    const std::type_identity_t<std::array<std::int64_t, D>>& dx_threshold,
    const std::type_identity_t<std::array<std::int64_t, D>>& grid,
    int max_dims = D) {
  HyperCut<D> plan;
  for (int i = 0; i < D && plan.k < max_dims; ++i) {
    if (z.width(i) <= dx_threshold[i]) continue;
    if (auto cut = try_space_cut(z, i, sigma[i], grid[i])) {
      plan.dims[i] = *cut;
      ++plan.k;
    }
  }
  return plan;
}

/// Enumerates every subzoid of the hyperspace cut, invoking
/// `f(subzoid, dependency_level)`.  Order within a level is unspecified;
/// Lemma 1 guarantees same-level subzoids are independent.
template <int D, typename F>
void for_each_subzoid(const Zoid<D>& z, const HyperCut<D>& plan, F&& f) {
  std::array<int, D> choice{};  // per-dim piece index (0 for uncut dims)
  auto piece_count = [&](int i) {
    return plan.dims[i].has_value() ? plan.dims[i]->count : 1;
  };
  while (true) {
    Zoid<D> sub = z;
    int level = 0;
    bool degenerate = false;
    for (int i = 0; i < D; ++i) {
      if (!plan.dims[i].has_value()) continue;
      const DimCut& cut = *plan.dims[i];
      const Interval& v = cut.piece[choice[i]];
      sub.x0[i] = v.x0;
      sub.x1[i] = v.x1;
      sub.dx0[i] = v.dx0;
      sub.dx1[i] = v.dx1;
      level += cut.level_bit[choice[i]];
      // Gray pieces can be empty boxes when a black absorbed everything;
      // they are still well-defined (one base of positive length) unless
      // both bases vanish, which projection_well_defined has excluded.
      if (sub.x1[i] < sub.x0[i]) degenerate = true;
    }
    if (!degenerate) f(sub, level);
    // Mixed-radix increment over the choice vector.
    int i = 0;
    for (; i < D; ++i) {
      if (++choice[i] < piece_count(i)) break;
      choice[i] = 0;
    }
    if (i == D) break;
  }
}

/// The subzoids of one hyperspace cut, grouped by dependency level, in a
/// fixed-capacity stack-resident structure: a hyperspace cut of a D-zoid
/// yields at most 3^D subzoids across at most D+1 levels (Lemma 1), both
/// compile-time constants, so the walker never touches the heap while
/// recursing.  Buckets must be processed in order; zoids within a bucket
/// are mutually independent.
template <int D>
struct SubzoidLevels {
  static constexpr int kMaxSubzoids = static_cast<int>(ipow(3, D));
  static constexpr int kMaxLevels = D + 1;

  std::array<Zoid<D>, kMaxSubzoids> zoids;      ///< grouped by level
  std::array<int, kMaxLevels + 1> offset{};     ///< bucket l = [offset[l], offset[l+1])
  int level_count = 0;

  [[nodiscard]] int size(int level) const {
    return offset[static_cast<std::size_t>(level + 1)] -
           offset[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const Zoid<D>& at(int level, int i) const {
    return zoids[static_cast<std::size_t>(
        offset[static_cast<std::size_t>(level)] + i)];
  }
  [[nodiscard]] int total() const {
    return offset[static_cast<std::size_t>(level_count)];
  }
};

/// Collects the subzoids of a hyperspace cut into `out`, bucketed by
/// dependency level, without allocating.  The per-level counts are the
/// convolution of the per-dimension histograms (each cut dimension
/// contributes its non-degenerate pieces at level bit 0 or 1; a subzoid is
/// degenerate iff any of its pieces is), so sizing the buckets costs
/// O(D^2) and the geometry is enumerated exactly once.
template <int D>
void collect_subzoids_by_level(const Zoid<D>& z, const HyperCut<D>& plan,
                               SubzoidLevels<D>& out) {
  std::array<int, SubzoidLevels<D>::kMaxLevels> counts{};
  counts[0] = 1;
  int span = 0;
  for (int i = 0; i < D; ++i) {
    if (!plan.dims[static_cast<std::size_t>(i)].has_value()) continue;
    const DimCut& cut = *plan.dims[static_cast<std::size_t>(i)];
    int valid[2] = {0, 0};
    for (int j = 0; j < cut.count; ++j) {
      if (cut.piece[static_cast<std::size_t>(j)].x1 <
          cut.piece[static_cast<std::size_t>(j)].x0) {
        continue;  // degenerate piece: every combination using it is skipped
      }
      ++valid[cut.level_bit[static_cast<std::size_t>(j)]];
    }
    for (int l = span + 1; l >= 0; --l) {
      counts[static_cast<std::size_t>(l)] =
          counts[static_cast<std::size_t>(l)] * valid[0] +
          (l > 0 ? counts[static_cast<std::size_t>(l - 1)] * valid[1] : 0);
    }
    span += cut.level_span();
  }

  out.level_count = plan.level_count();
  POCHOIR_ASSERT(out.level_count <= SubzoidLevels<D>::kMaxLevels);
  out.offset[0] = 0;
  for (int l = 0; l < out.level_count; ++l) {
    out.offset[static_cast<std::size_t>(l + 1)] =
        out.offset[static_cast<std::size_t>(l)] +
        counts[static_cast<std::size_t>(l)];
  }

  std::array<int, SubzoidLevels<D>::kMaxLevels> cursor{};
  for (int l = 0; l < out.level_count; ++l) {
    cursor[static_cast<std::size_t>(l)] = out.offset[static_cast<std::size_t>(l)];
  }
  for_each_subzoid(z, plan, [&](const Zoid<D>& sub, int level) {
    POCHOIR_ASSERT(level < out.level_count);
    out.zoids[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(level)]++)] = sub;
  });
  for (int l = 0; l < out.level_count; ++l) {
    POCHOIR_ASSERT(cursor[static_cast<std::size_t>(l)] ==
                   out.offset[static_cast<std::size_t>(l + 1)]);
  }
}

/// Splits `z` across the middle of its time dimension (Figure 7(c)); the
/// lower half must be processed before the upper half.
template <int D>
std::pair<Zoid<D>, Zoid<D>> time_cut(const Zoid<D>& z) {
  POCHOIR_ASSERT(z.height() > 1);
  const std::int64_t half = z.height() / 2;
  Zoid<D> lower = z;
  lower.t1 = z.t0 + half;
  Zoid<D> upper = z;
  upper.t0 = z.t0 + half;
  for (int i = 0; i < D; ++i) {
    upper.x0[i] = z.x0[i] + z.dx0[i] * half;
    upper.x1[i] = z.x1[i] + z.dx1[i] * half;
  }
  return {lower, upper};
}

}  // namespace pochoir
