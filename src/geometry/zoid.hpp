// Space-time hypertrapezoids ("zoids") — §3 of the paper.
//
// A (d+1)-zoid is the set of integer grid points  (t, x_0, ..., x_{d-1})
// with  t0 <= t < t1  and  x0_i + dx0_i (t - t0) <= x_i < x1_i + dx1_i (t - t0).
// x0/x1 give the base at time t0; dx0/dx1 are the (inverse) slopes of the
// sides, in grid points per time step.
//
// for_each_row is the one loop nest over a zoid's points, compiled output
// included: every base case walks unit-stride rows, pochoirc's
// -split-pointer clone is a row function it calls, and for_each_point is
// for_each_row over the row adapter point_fn_as_row.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "support/assertion.hpp"

namespace pochoir {

/// One spatial dimension of a zoid: the projection trapezoid's geometry.
struct Interval {
  std::int64_t x0 = 0;   ///< lower base coordinate at t0 (inclusive)
  std::int64_t x1 = 0;   ///< upper base coordinate at t0 (exclusive)
  std::int64_t dx0 = 0;  ///< slope of the lower side
  std::int64_t dx1 = 0;  ///< slope of the upper side
};

/// A (D+1)-dimensional space-time hypertrapezoid.
template <int D>
struct Zoid {
  static_assert(D >= 1, "zoids need at least one spatial dimension");

  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::array<std::int64_t, D> x0{};
  std::array<std::int64_t, D> x1{};
  std::array<std::int64_t, D> dx0{};
  std::array<std::int64_t, D> dx1{};

  /// Height Δt = t1 - t0.
  [[nodiscard]] std::int64_t height() const { return t1 - t0; }

  /// Length of the base at time t0 along dimension i.
  [[nodiscard]] std::int64_t bottom_width(int i) const { return x1[i] - x0[i]; }

  /// Length of the base at time t1 along dimension i.
  [[nodiscard]] std::int64_t top_width(int i) const {
    const std::int64_t h = height();
    return (x1[i] + dx1[i] * h) - (x0[i] + dx0[i] * h);
  }

  /// Width w_i = length of the longer base (the paper's definition; Frigo &
  /// Strumpen use the average).
  [[nodiscard]] std::int64_t width(int i) const {
    const std::int64_t b = bottom_width(i);
    const std::int64_t t = top_width(i);
    return b > t ? b : t;
  }

  /// The projection trapezoid along dimension i is upright if the longer
  /// base is at time t0.
  [[nodiscard]] bool upright(int i) const {
    return bottom_width(i) >= top_width(i);
  }

  /// Paper's well-definedness: positive height, positive widths, and
  /// nonnegative base lengths in every dimension.
  [[nodiscard]] bool well_defined() const {
    if (height() < 1) return false;
    for (int i = 0; i < D; ++i) {
      if (bottom_width(i) < 0 || top_width(i) < 0 || width(i) < 1) return false;
    }
    return true;
  }

  /// Smallest spatial coordinate touched over the zoid's lifetime
  /// (evaluated at t0 and t1-1; the bound is linear in t).
  [[nodiscard]] std::int64_t min_lo(int i) const {
    const std::int64_t h = height() - 1;
    const std::int64_t at_end = x0[i] + dx0[i] * h;
    return x0[i] < at_end ? x0[i] : at_end;
  }

  /// One past the largest spatial coordinate touched over the lifetime.
  [[nodiscard]] std::int64_t max_hi(int i) const {
    const std::int64_t h = height() - 1;
    const std::int64_t at_end = x1[i] + dx1[i] * h;
    return x1[i] > at_end ? x1[i] : at_end;
  }

  /// Number of grid points contained (exact; O(height * D)).
  [[nodiscard]] std::int64_t volume() const {
    std::int64_t total = 0;
    for (std::int64_t t = t0; t < t1; ++t) {
      std::int64_t slice = 1;
      for (int i = 0; i < D; ++i) {
        const std::int64_t w =
            (x1[i] + dx1[i] * (t - t0)) - (x0[i] + dx0[i] * (t - t0));
        if (w <= 0) {
          slice = 0;
          break;
        }
        slice *= w;
      }
      total += slice;
    }
    return total;
  }

  /// The full space-time box [tb, te) x [0, n_i) with vertical sides.
  static Zoid box(std::int64_t tb, std::int64_t te,
                  const std::array<std::int64_t, D>& extents) {
    Zoid z;
    z.t0 = tb;
    z.t1 = te;
    for (int i = 0; i < D; ++i) {
      z.x0[i] = 0;
      z.x1[i] = extents[i];
    }
    return z;
  }

  friend bool operator==(const Zoid&, const Zoid&) = default;
};

/// Visits every unit-stride row of `z` in time-major order:
/// f(t, idx, row_end) where idx[0..D-2] are the outer coordinates,
/// idx[D-1] is the row start, and the row covers [idx[D-1], row_end).
template <int D, typename F>
inline void for_each_row(const Zoid<D>& z, F&& f) {
  std::array<std::int64_t, D> lo = z.x0;
  std::array<std::int64_t, D> hi = z.x1;
  for (std::int64_t t = z.t0; t < z.t1; ++t) {
    if (hi[D - 1] > lo[D - 1]) {
      if constexpr (D == 1) {
        f(t, lo, hi[0]);
      } else {
        bool empty = false;
        for (int i = 0; i + 1 < D; ++i) empty = empty || lo[i] >= hi[i];
        if (!empty) {
          std::array<std::int64_t, D> idx = lo;
          while (true) {
            f(t, idx, hi[D - 1]);
            int i = D - 2;
            for (; i >= 0; --i) {
              if (++idx[i] < hi[i]) break;
              idx[i] = lo[i];
            }
            if (i < 0) break;
            idx[D - 1] = lo[D - 1];
          }
        }
      }
    }
    for (int i = 0; i < D; ++i) {
      lo[i] += z.dx0[i];
      hi[i] += z.dx1[i];
    }
  }
}

/// Adapts a per-point functor pf(t, idx) to the row signature
/// f(t, idx, row_end) of for_each_row: the one row adapter, for paths that
/// build their views per point (Phase-1 clones, traced and shape-checked
/// runs) and for for_each_point.
template <int D, typename PF>
auto point_fn_as_row(PF& pf) {
  return [&pf](std::int64_t t, std::array<std::int64_t, D> idx,
               std::int64_t row_end) {
    for (; idx[D - 1] < row_end; ++idx[D - 1]) pf(t, std::as_const(idx));
  };
}

/// Visits every grid point of `z` in time-major order, advancing the sloped
/// sides at each time step: f(t, idx) where idx is the spatial coordinate.
/// This is the base case loop nest of TRAP (lines 20-28 of Figure 2).
template <int D, typename F>
inline void for_each_point(const Zoid<D>& z, F&& f) {
  for_each_row<D>(z, point_fn_as_row<D>(f));
}

}  // namespace pochoir
