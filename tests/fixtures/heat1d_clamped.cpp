// Phase-1 Pochoir source used by the end-to-end compiler test: a 3-point
// heat equation in 1D on an odd extent, with a boundary that clamps each
// off-grid read to the nearest edge cell.
//
// In 1D the unit-stride dimension is the whole grid, so the split-pointer
// row clone walks every row of an interior zoid and the unchecked middle
// of every boundary zoid's rows.
#include <pochoir/dsl.hpp>

#include <cstdio>

Pochoir_Boundary_1D(heat1_bv, a, t, x)
  return a.get(t, x < 0 ? 0 : a.size(0) - 1);
Pochoir_Boundary_End

int main() {
  const int X = 997, T = 40;
  const double C = 0.23;
  Pochoir_Shape_1D heat_shape[] = {{1, 0}, {0, 1}, {0, 0}, {0, -1}};
  Pochoir_1D heat(heat_shape);
  Pochoir_Array_1D(double) u(X);
  u.Register_Boundary(heat1_bv);
  heat.Register_Array(u);
  Pochoir_Kernel_1D(heat_fn, t, x)
    u(t + 1, x) = u(t, x) + C * (u(t, x + 1) - 2 * u(t, x) + u(t, x - 1));
  Pochoir_Kernel_End
  for (int x = 0; x < X; ++x) {
    u(0, x) = 0.001 * ((x * 37) % 101) - 0.02 * (x % 7);
  }
  heat.Run(T, heat_fn);
  double sum = 0;
  for (int x = 0; x < X; ++x) {
    sum += u(T, x);
  }
  std::printf("checksum %.17g\n", sum);
  std::printf("probe %.17g %.17g %.17g\n", static_cast<double>(u(T, 0)),
              static_cast<double>(u(T, X / 2)),
              static_cast<double>(u(T, X - 1)));
  return 0;
}
