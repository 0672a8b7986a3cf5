// 3D finite-difference wave equation (the paper's Wave 3 benchmark):
// a Gaussian pulse in a periodic box, evolved with the depth-2 stencil;
// demonstrates multi-time-level initial conditions.
#include <pochoir/pochoir.hpp>

#include <cmath>
#include <cstdio>

#include "stencils/wave.hpp"
#include "support/timer.hpp"

int main() {
  using namespace pochoir;
  const std::int64_t N = 96;
  const std::int64_t T = 128;
  const double c2 = 0.15;  // Courant number squared (stable: 6*c2 < 1... ok)

  const Shape<3> shape = stencils::wave_shape();
  Array<double, 3> u({N, N, N}, shape.depth());
  u.register_boundary(periodic_boundary<double, 3>());

  // Depth-2 stencil: two initial time levels (pulse at rest).
  auto pulse = [N](const std::array<std::int64_t, 3>& i) {
    const double dx = static_cast<double>(i[0] - N / 2);
    const double dy = static_cast<double>(i[1] - N / 2);
    const double dz = static_cast<double>(i[2] - N / 2);
    return std::exp(-(dx * dx + dy * dy + dz * dz) / 18.0);
  };
  u.fill_time(0, pulse);
  u.fill_time(1, pulse);

  Stencil<3, double> wave(shape);
  wave.register_arrays(u);

  Timer timer;
  wave.run(T, stencils::wave_kernel(c2));
  const double secs = timer.seconds();

  const std::int64_t rt = wave.result_time();
  double center = u.at(rt, {N / 2, N / 2, N / 2});
  double max_abs = 0;
  std::int64_t max_r = 0;
  for (std::int64_t x = 0; x < N; ++x) {
    const double v = std::abs(u.at(rt, {x, N / 2, N / 2}));
    if (v > max_abs) {
      max_abs = v;
      max_r = std::abs(x - N / 2);
    }
  }
  const double pts = static_cast<double>(N) * N * N * T;
  std::printf("wave %lldx%lldx%lld, %lld steps in %.2fs (%.1f Mpoints/s)\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(N), static_cast<long long>(T), secs,
              pts / secs / 1e6);
  std::printf("pulse left the center (center=%.4f); wavefront near radius "
              "%lld (amplitude %.4f)\n",
              center, static_cast<long long>(max_r), max_abs);
  return 0;
}
