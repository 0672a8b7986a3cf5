// 3D finite-difference wave equation — the paper's Wave 3 benchmark.
//
//   u_{t+1} = 2 u_t - u_{t-1} + c^2 * laplacian(u_t)
//
// Depth-2 stencil: arrays need three circular time levels and two
// initialized time steps.
#pragma once

#include <cstdint>
#include <vector>

#include "core/shape.hpp"

namespace pochoir::stencils {

inline Shape<3> wave_shape() {
  std::vector<ShapeCell<3>> cells;
  cells.push_back({1, {0, 0, 0}});
  cells.push_back({0, {0, 0, 0}});
  cells.push_back({-1, {0, 0, 0}});
  for (int i = 0; i < 3; ++i) {
    ShapeCell<3> plus{0, {}};
    plus.dx[i] = 1;
    cells.push_back(plus);
    ShapeCell<3> minus{0, {}};
    minus.dx[i] = -1;
    cells.push_back(minus);
  }
  return Shape<3>(std::move(cells));
}

/// `c2` is (c dt / dx)^2, the Courant number squared.
inline auto wave_kernel(double c2) {
  return [c2](std::int64_t t, std::int64_t x, std::int64_t y, std::int64_t z,
              auto u) {
    u(t + 1, x, y, z) =
        2 * u(t, x, y, z) - u(t - 1, x, y, z) +
        c2 * (u(t, x + 1, y, z) + u(t, x - 1, y, z) + u(t, x, y + 1, z) +
              u(t, x, y - 1, z) + u(t, x, y, z + 1) + u(t, x, y, z - 1) -
              6 * u(t, x, y, z));
  };
}

}  // namespace pochoir::stencils
