// Heat equation (Jacobi update) in 1..4 dimensions — the paper's Heat 2,
// Heat 2p and Heat 4 benchmarks, and the running example of §1.
//
//   u_{t+1}(x) = u_t(x) + sum_i C_i * (u_t(x + e_i) + u_t(x - e_i) - 2 u_t(x))
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/shape.hpp"

namespace pochoir::stencils {

/// The (2D+2)-point heat shape: home at dt=+1, center and +-1 per dimension
/// at dt=0.
template <int D>
Shape<D> heat_shape() {
  std::vector<ShapeCell<D>> cells;
  cells.push_back({1, {}});
  cells.push_back({0, {}});
  for (int i = 0; i < D; ++i) {
    ShapeCell<D> plus{0, {}};
    plus.dx[i] = 1;
    cells.push_back(plus);
    ShapeCell<D> minus{0, {}};
    minus.dx[i] = -1;
    cells.push_back(minus);
  }
  return Shape<D>(std::move(cells));
}

/// Per-dimension diffusion coefficients C_i = alpha dt / dx_i^2.
template <int D>
using HeatCoeffs = std::array<double, D>;

/// Views-style kernels (the "interior/boundary clone" fast path).
inline auto heat_kernel_1d(HeatCoeffs<1> c) {
  return [c](std::int64_t t, std::int64_t x, auto u) {
    u(t + 1, x) = u(t, x) + c[0] * (u(t, x + 1) - 2 * u(t, x) + u(t, x - 1));
  };
}

inline auto heat_kernel_2d(HeatCoeffs<2> c) {
  return [c](std::int64_t t, std::int64_t x, std::int64_t y, auto u) {
    u(t + 1, x, y) = u(t, x, y) +
                     c[0] * (u(t, x + 1, y) - 2 * u(t, x, y) + u(t, x - 1, y)) +
                     c[1] * (u(t, x, y + 1) - 2 * u(t, x, y) + u(t, x, y - 1));
  };
}

inline auto heat_kernel_3d(HeatCoeffs<3> c) {
  return [c](std::int64_t t, std::int64_t x, std::int64_t y, std::int64_t z,
             auto u) {
    u(t + 1, x, y, z) =
        u(t, x, y, z) +
        c[0] * (u(t, x + 1, y, z) - 2 * u(t, x, y, z) + u(t, x - 1, y, z)) +
        c[1] * (u(t, x, y + 1, z) - 2 * u(t, x, y, z) + u(t, x, y - 1, z)) +
        c[2] * (u(t, x, y, z + 1) - 2 * u(t, x, y, z) + u(t, x, y, z - 1));
  };
}

inline auto heat_kernel_4d(HeatCoeffs<4> c) {
  return [c](std::int64_t t, std::int64_t x, std::int64_t y, std::int64_t z,
             std::int64_t w, auto u) {
    u(t + 1, x, y, z, w) =
        u(t, x, y, z, w) +
        c[0] * (u(t, x + 1, y, z, w) - 2 * u(t, x, y, z, w) + u(t, x - 1, y, z, w)) +
        c[1] * (u(t, x, y + 1, z, w) - 2 * u(t, x, y, z, w) + u(t, x, y - 1, z, w)) +
        c[2] * (u(t, x, y, z + 1, w) - 2 * u(t, x, y, z, w) + u(t, x, y, z - 1, w)) +
        c[3] * (u(t, x, y, z, w + 1) - 2 * u(t, x, y, z, w) + u(t, x, y, z, w - 1));
  };
}

}  // namespace pochoir::stencils
