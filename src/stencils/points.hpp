// 3D 7-point and 27-point stencils — the Berkeley-autotuner benchmarks of
// Figure 5.  Per the paper, the 7-point update costs 8 flops per point and
// the 27-point update costs 30 flops per point.
#pragma once

#include <cstdint>
#include <vector>

#include "core/shape.hpp"

namespace pochoir::stencils {

inline Shape<3> pt7_shape() {
  std::vector<ShapeCell<3>> cells;
  cells.push_back({1, {0, 0, 0}});
  cells.push_back({0, {0, 0, 0}});
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

/// u' = alpha * u + beta * (sum of 6 face neighbors): 8 flops.
inline auto pt7_kernel(double alpha, double beta) {
  return [alpha, beta](std::int64_t t, std::int64_t x, std::int64_t y,
                       std::int64_t z, auto u) {
    u(t + 1, x, y, z) =
        alpha * u(t, x, y, z) +
        beta * (u(t, x + 1, y, z) + u(t, x - 1, y, z) + u(t, x, y + 1, z) +
                u(t, x, y - 1, z) + u(t, x, y, z + 1) + u(t, x, y, z - 1));
  };
}

/// Number of floating-point operations per 7-point update (Figure 5).
inline constexpr int pt7_flops_per_point = 8;

inline Shape<3> pt27_shape() {
  std::vector<ShapeCell<3>> cells;
  cells.push_back({1, {0, 0, 0}});
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dz = -1; dz <= 1; ++dz) {
        cells.push_back({0, {dx, dy, dz}});
      }
    }
  }
  return Shape<3>(std::move(cells));
}

/// u' = alpha*u + beta*faces + gamma*edges + delta*corners: 30 flops
/// (26 additions + 4 multiplications).
inline auto pt27_kernel(double alpha, double beta, double gamma, double delta) {
  return [=](std::int64_t t, std::int64_t x, std::int64_t y, std::int64_t z,
             auto u) {
    double faces = 0, edges = 0, corners = 0;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dz = -1; dz <= 1; ++dz) {
          const int manhattan =
              static_cast<int>((dx != 0) + (dy != 0) + (dz != 0));
          if (manhattan == 0) continue;
          const double v = u(t, x + dx, y + dy, z + dz);
          if (manhattan == 1) {
            faces += v;
          } else if (manhattan == 2) {
            edges += v;
          } else {
            corners += v;
          }
        }
      }
    }
    u(t + 1, x, y, z) =
        alpha * u(t, x, y, z) + beta * faces + gamma * edges + delta * corners;
  };
}

/// Number of floating-point operations per 27-point update (Figure 5).
inline constexpr int pt27_flops_per_point = 30;

}  // namespace pochoir::stencils
