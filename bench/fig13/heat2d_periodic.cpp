// Phase-1 Pochoir source of Figure 13: the 2D periodic heat equation of
// tests/fixtures/heat2d_periodic.cpp, with coefficients 0.125, as one
// function.  The build runs pochoirc on this file twice, with
// --split-pointer and with --split-macro-shadow, and compiles each
// postsource into bench_fig13_indexing with FIG13_RUN defined to the
// mode's own name (fig13_split_pointer, fig13_macro_shadow).
//
// FIG13_RUN(N, T, checksum) builds and fills an N x N grid, runs T steps,
// stores the sum of the final time level in *checksum, and returns the
// seconds of the run alone.
#include <pochoir/dsl.hpp>

#include <chrono>
#include <cstdint>

#define mod(r, m) ((r) % (m) + ((r) % (m) < 0 ? (m) : 0))

Pochoir_Boundary_2D(heat_bv, a, t, x, y)
  return a.get(t, mod(x, a.size(1)), mod(y, a.size(0)));
Pochoir_Boundary_End

double FIG13_RUN(std::int64_t N, std::int64_t T, double* checksum) {
  const double CX = 0.125, CY = 0.125;
  Pochoir_Shape_2D heat_shape[] = {{1, 0, 0}, {0, 0, 0}, {0, 1, 0},
                                   {0, -1, 0}, {0, 0, -1}, {0, 0, 1}};
  Pochoir_2D heat(heat_shape);
  Pochoir_Array_2D(double) u(N, N);
  u.Register_Boundary(heat_bv);
  heat.Register_Array(u);
  Pochoir_Kernel_2D(heat_fn, t, x, y)
    u(t + 1, x, y) = CX * (u(t, x + 1, y) - 2 * u(t, x, y) + u(t, x - 1, y))
                   + CY * (u(t, x, y + 1) - 2 * u(t, x, y) + u(t, x, y - 1))
                   + u(t, x, y);
  Pochoir_Kernel_End
  for (std::int64_t x = 0; x < N; ++x) {
    for (std::int64_t y = 0; y < N; ++y) {
      u(0, x, y) = 0.001 * ((x * 37 + y * 17) % 101) - 0.02 * ((x + y) % 7);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  heat.Run(T, heat_fn);
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - start;
  double sum = 0;
  for (std::int64_t x = 0; x < N; ++x) {
    for (std::int64_t y = 0; y < N; ++y) {
      sum += u(T, x, y);
    }
  }
  *checksum = sum;
  return secs.count();
}
