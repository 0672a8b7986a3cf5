// Stencil shapes — §2 of the paper (Pochoir_Shape_dimD).
//
// A shape is a list of cells, each an offset (dt, dx_0, ..., dx_{d-1}) from
// the space-time point at which the kernel is invoked.  The first cell is
// the *home* cell (the point being written); all other cells must have
// strictly smaller time offsets and are read-only.  From the shape we derive
//   depth  = t_home - min t_c          (time levels a point depends on)
//   sigma_i = max_c ceil(|dx_i| / (t_home - t_c))   (stencil slope, §3)
//   reach_i = max_c |dx_i|             (widest spatial excursion)
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "support/error.hpp"
#include "support/math_util.hpp"

namespace pochoir {

/// One cell of a stencil shape: a space-time offset.
template <int D>
struct ShapeCell {
  std::int64_t dt = 0;
  std::array<std::int64_t, D> dx{};

  friend bool operator==(const ShapeCell&, const ShapeCell&) = default;
};

/// The computing shape of a d-dimensional stencil.
template <int D>
class Shape {
 public:
  /// Builds a shape from (dt, dx...) tuples; the first entry is the home
  /// cell.  Mirrors `Pochoir_Shape_2D s[] = {{1,0,0}, {0,1,0}, ...}`.
  /// Misuse (no cells, a home cell off the origin, or a non-home cell not
  /// earlier than the home cell) throws pochoir::Error.
  Shape(std::initializer_list<std::array<std::int64_t, D + 1>> cells) {
    detail::check_usage(cells.size() >= 1, "a shape needs at least a home cell");
    cells_.reserve(cells.size());
    for (const auto& raw : cells) {
      ShapeCell<D> cell;
      cell.dt = raw[0];
      for (int i = 0; i < D; ++i) cell.dx[i] = raw[static_cast<std::size_t>(i) + 1];
      cells_.push_back(cell);
    }
    derive();
  }

  explicit Shape(std::vector<ShapeCell<D>> cells) : cells_(std::move(cells)) {
    detail::check_usage(!cells_.empty(), "a shape needs at least a home cell");
    derive();
  }

  /// All cells, home first.
  [[nodiscard]] const std::vector<ShapeCell<D>>& cells() const { return cells_; }

  /// Time offset of the home (written) cell.
  [[nodiscard]] std::int64_t home_dt() const { return home_dt_; }

  /// Number of time steps a grid point depends on (k in the paper); arrays
  /// registered with this shape need depth()+1 time levels.
  [[nodiscard]] std::int64_t depth() const { return depth_; }

  /// Stencil slope along dimension i (σ_i in §3).
  [[nodiscard]] std::int64_t sigma(int i) const {
    return sigma_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::array<std::int64_t, D>& sigmas() const { return sigma_; }

  /// Largest |spatial offset| along dimension i (halo width for LOOPS).
  [[nodiscard]] std::int64_t reach(int i) const {
    return reach_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::array<std::int64_t, D>& reaches() const { return reach_; }

  /// True if (dt, dx) matches some cell of the shape; used by the Phase-1
  /// shape-compliance checker ("the template library complains if an access
  /// falls outside the declared shape").
  [[nodiscard]] bool contains_offset(std::int64_t dt,
                                     const std::array<std::int64_t, D>& dx) const {
    for (const auto& cell : cells_) {
      if (cell.dt == dt && cell.dx == dx) return true;
    }
    return false;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.cells_ == b.cells_;
  }

 private:
  void derive() {
    const ShapeCell<D>& home = cells_.front();
    for (int i = 0; i < D; ++i) {
      detail::check_usage(home.dx[i] == 0,
                          "home cell spatial coordinates must all be 0");
    }
    home_dt_ = home.dt;
    std::int64_t min_dt = home_dt_;
    sigma_.fill(0);
    reach_.fill(0);
    for (std::size_t c = 1; c < cells_.size(); ++c) {
      const ShapeCell<D>& cell = cells_[c];
      detail::check_usage(cell.dt < home_dt_,
                          "non-home cells must have smaller time offsets");
      min_dt = cell.dt < min_dt ? cell.dt : min_dt;
      const std::int64_t span = home_dt_ - cell.dt;  // >= 1
      for (int i = 0; i < D; ++i) {
        const std::int64_t mag = std::abs(cell.dx[i]);
        sigma_[static_cast<std::size_t>(i)] =
            std::max(sigma_[static_cast<std::size_t>(i)], ceil_div(mag, span));
        reach_[static_cast<std::size_t>(i)] =
            std::max(reach_[static_cast<std::size_t>(i)], mag);
      }
    }
    depth_ = home_dt_ - min_dt;
    if (cells_.size() == 1) depth_ = 1;  // pure generator stencil
  }

  std::vector<ShapeCell<D>> cells_;
  std::int64_t home_dt_ = 0;
  std::int64_t depth_ = 1;
  std::array<std::int64_t, D> sigma_{};
  std::array<std::int64_t, D> reach_{};
};

}  // namespace pochoir
