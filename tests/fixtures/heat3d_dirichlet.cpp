// Phase-1 Pochoir source used by the end-to-end compiler test: a 7-point
// heat equation in 3D on odd extents, with a constant boundary value.
//
// Under the paper's >=3D rule the unit-stride dimension is never cut, so
// every base zoid of this program is a boundary zoid: its checked flanks
// run the boundary clone and the middle of its rows the interior clone.
#include <pochoir/dsl.hpp>

#include <cstdio>

Pochoir_Boundary_3D(heat3_bv, a, t, x, y, z)
  return 0.25;
Pochoir_Boundary_End

int main() {
  const int X = 21, Y = 19, Z = 23, T = 6;
  const double C = 0.1;
  Pochoir_Shape_3D heat_shape[] = {{1, 0, 0, 0},  {0, 0, 0, 0},
                                   {0, 1, 0, 0},  {0, -1, 0, 0},
                                   {0, 0, 1, 0},  {0, 0, -1, 0},
                                   {0, 0, 0, 1},  {0, 0, 0, -1}};
  Pochoir_3D heat(heat_shape);
  Pochoir_Array_3D(double) u(X, Y, Z);
  u.Register_Boundary(heat3_bv);
  heat.Register_Array(u);
  Pochoir_Kernel_3D(heat_fn, t, x, y, z)
    u(t + 1, x, y, z) = u(t, x, y, z)
        + C * (u(t, x + 1, y, z) + u(t, x - 1, y, z) + u(t, x, y + 1, z)
               + u(t, x, y - 1, z) + u(t, x, y, z + 1) + u(t, x, y, z - 1)
               - 6 * u(t, x, y, z));
  Pochoir_Kernel_End
  for (int x = 0; x < X; ++x) {
    for (int y = 0; y < Y; ++y) {
      for (int z = 0; z < Z; ++z) {
        u(0, x, y, z) = 0.001 * ((x * 37 + y * 17 + z * 11) % 101);
      }
    }
  }
  heat.Run(T, heat_fn);
  double sum = 0;
  for (int x = 0; x < X; ++x) {
    for (int y = 0; y < Y; ++y) {
      for (int z = 0; z < Z; ++z) {
        sum += u(T, x, y, z);
      }
    }
  }
  std::printf("checksum %.17g\n", sum);
  std::printf("probe %.17g %.17g %.17g\n",
              static_cast<double>(u(T, 0, 0, 0)),
              static_cast<double>(u(T, X / 2, Y / 2, Z / 2)),
              static_cast<double>(u(T, X - 1, Y - 1, Z - 1)));
  return 0;
}
