// Tap-based linear stencils with pointer-walking base cases — the library
// form of the compiler's -split-pointer optimization (§4, Figure 12(c)).
//
// A linear stencil computes  u(t+home, x) = sum_j coeff_j * u(t+dt_j, x+dx_j).
// It supplies the two clones of a row leaf and no walker of its own:
// row() is the interior clone, which materializes one C-style pointer per
// term and walks all of them down a unit-stride row, exactly like the
// postsource in Figure 12(c) (address arithmetic once per row, a pure
// load/store inner loop); point() is the checked clone.  Stencil::run_linear
// builds its leaf from them with row_leaf, like every other run entry, so
// boundary zoids also run row() on the unchecked middle of each row.  The
// generic per-point path (views + full index arithmetic per access) plays
// the role of -split-macro-shadow in the Figure 13 comparison.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/array.hpp"
#include "core/shape.hpp"
#include "support/error.hpp"
#include "support/math_util.hpp"

namespace pochoir {

template <typename T, int D>
class LinearStencil {
 public:
  /// One term of the update: value at offset (dt, dx) scaled by coeff.
  struct Tap {
    std::int64_t dt = 0;
    std::array<std::int64_t, D> dx{};
    T coeff{};
  };

  /// `home_dt` is the time offset of the written cell (1 for the
  /// u(t+1,...) = f(u(t,...)) convention).  Misuse (no taps, more than 32,
  /// or a tap not earlier than the written cell) throws pochoir::Error.
  LinearStencil(std::int64_t home_dt, std::vector<Tap> taps)
      : home_dt_(home_dt), taps_(std::move(taps)) {
    detail::check_usage(!taps_.empty(), "a linear stencil needs taps");
    detail::check_usage(taps_.size() <= kMaxTaps,
                        "a linear stencil has at most 32 taps");
    for (const Tap& tap : taps_) {
      detail::check_usage(tap.dt < home_dt_,
                          "taps must read strictly earlier time levels");
    }
  }

  [[nodiscard]] std::int64_t home_dt() const { return home_dt_; }
  [[nodiscard]] const std::vector<Tap>& taps() const { return taps_; }

  /// The equivalent Pochoir shape (home cell first).
  [[nodiscard]] Shape<D> shape() const {
    std::vector<ShapeCell<D>> cells;
    cells.reserve(taps_.size() + 1);
    cells.push_back({home_dt_, {}});
    for (const Tap& tap : taps_) cells.push_back({tap.dt, tap.dx});
    return Shape<D>(std::move(cells));
  }

  /// The interior clone, split-pointer style: one pointer per tap, walked
  /// down the unit-stride row [idx[D-1], row_end) at time t.  The row's
  /// time levels come from one mod_floor into the array's doubled
  /// level-offset table, as in InteriorRowView: entry k of `level` serves
  /// time t + home_dt + 1 - levels + k, so time t + dt sits at k0 + dt.
  void row(Array<T, D>& a, std::int64_t t,
           const std::array<std::int64_t, D>& idx, std::int64_t row_end) const {
    const std::int64_t levels = a.time_levels();
    const std::int64_t* const level =
        a.level_offsets() + mod_floor(t + home_dt_ + 1, levels);
    const std::int64_t k0 = levels - 1 - home_dt_;
    std::int64_t row_off = 0;
    for (int i = 0; i < D; ++i) row_off += idx[i] * a.stride(i);
    T* const base = a.data() + row_off;
    const std::size_t num_taps = taps_.size();
    std::array<const T*, kMaxTaps> p;
    std::array<T, kMaxTaps> coeff;
    for (std::size_t j = 0; j < num_taps; ++j) {
      std::int64_t off = level[k0 + taps_[j].dt];
      for (int i = 0; i < D; ++i) off += taps_[j].dx[i] * a.stride(i);
      p[j] = base + off;
      coeff[j] = taps_[j].coeff;
    }
    row_update(base + level[k0 + home_dt_], p, coeff, num_taps,
               row_end - idx[D - 1]);
  }

  /// The boundary clone at the true coordinate idx: reads that leave the
  /// grid go through the array's boundary function.
  void point(Array<T, D>& a, std::int64_t t,
             const std::array<std::int64_t, D>& idx) const {
    T acc{};
    for (const Tap& tap : taps_) {
      std::array<std::int64_t, D> at;
      for (int i = 0; i < D; ++i) at[i] = idx[i] + tap.dx[i];
      acc += tap.coeff * a.get(t + tap.dt, at);
    }
    a.at(t + home_dt_, idx) = acc;
  }

 private:
  static constexpr std::size_t kMaxTaps = 32;

  /// Unit-stride row update with a compile-time tap count for the common
  /// sizes, so the inner loop fully unrolls and vectorizes like the
  /// hand-written pointer code of Figure 12(c).
  template <std::size_t J>
  static void row_update_fixed(T* __restrict out,
                               const std::array<const T*, kMaxTaps>& p,
                               const std::array<T, kMaxTaps>& coeff,
                               std::int64_t len) {
    for (std::int64_t n = 0; n < len; ++n) {
      T acc = coeff[0] * p[0][n];
      for (std::size_t j = 1; j < J; ++j) acc += coeff[j] * p[j][n];
      out[n] = acc;
    }
  }

  static void row_update(T* out, const std::array<const T*, kMaxTaps>& p,
                         const std::array<T, kMaxTaps>& coeff,
                         std::size_t num_taps, std::int64_t len) {
    switch (num_taps) {
      case 3: return row_update_fixed<3>(out, p, coeff, len);
      case 4: return row_update_fixed<4>(out, p, coeff, len);
      case 5: return row_update_fixed<5>(out, p, coeff, len);
      case 6: return row_update_fixed<6>(out, p, coeff, len);
      case 7: return row_update_fixed<7>(out, p, coeff, len);
      case 8: return row_update_fixed<8>(out, p, coeff, len);
      case 9: return row_update_fixed<9>(out, p, coeff, len);
      default:
        for (std::int64_t n = 0; n < len; ++n) {
          T acc{};
          for (std::size_t j = 0; j < num_taps; ++j) acc += coeff[j] * p[j][n];
          out[n] = acc;
        }
    }
  }

  std::int64_t home_dt_;
  std::vector<Tap> taps_;
};

}  // namespace pochoir
