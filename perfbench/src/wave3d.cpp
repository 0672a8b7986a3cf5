// Wave 3 (depth 2, zero Dirichlet boundary): the wave3d workload.
#include <memory>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "harness.hpp"
#include "stencils/wave.hpp"

namespace perfbench {
namespace {

using pochoir::Array;
using pochoir::Stencil;

constexpr double kC2 = 0.1;  // Courant number squared (stable below 1/3)

class Wave3d {
 public:
  static constexpr int kDims = 3;
  using Kernel = decltype(pochoir::stencils::wave_kernel(kC2));

  Wave3d(std::int64_t n, std::int64_t steps, std::int64_t slab_steps,
         std::uint64_t seed)
      : n_(n), steps_(steps), slab_steps_(slab_steps), seed_(seed),
        kernel_(pochoir::stencils::wave_kernel(kC2)) {}

  void setup() {
    arr_ = std::make_unique<Array<double, 3>>(
        std::array<std::int64_t, 3>{n_, n_, n_}, 2);
    arr_->register_boundary(pochoir::dirichlet_boundary<double, 3>(0.0));
    fill_initial();
    st_ = std::make_unique<Stencil<3, double>>(pochoir::stencils::wave_shape());
    st_->register_arrays(*arr_);
  }
  void teardown() {
    st_.reset();
    arr_.reset();
  }
  void reinit() {
    fill_initial();
    st_->reset();
  }

  Stencil<3, double>& stencil() { return *st_; }
  Kernel& kernel() { return kernel_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t space_points() const { return n_ * n_ * n_; }
  [[nodiscard]] std::int64_t state_bytes() const {
    return arr_->total_size() * static_cast<std::int64_t>(sizeof(double));
  }
  [[nodiscard]] std::string grid() const { return std::to_string(n_) + "^3"; }
  [[nodiscard]] std::string supervisor_note() const {
    return "slab_steps=" + std::to_string(slab_steps_) + " health_check=on";
  }
  [[nodiscard]] pochoir::resilience::SupervisorOptions supervisor_options(
      const std::string& ckpt_base) const {
    pochoir::resilience::SupervisorOptions o;
    o.slab_steps = slab_steps_;
    o.checkpoint_path = ckpt_base;
    o.health_check = true;
    return o;
  }

  void health_scan() const {
    pochoir::resilience::HealthIssue issue;
    pochoir::resilience::scan_array(*arr_, HUGE_VAL, 0, issue);
  }

  /// Plain triple loop over three rotating buffers, same update order as
  /// wave_kernel; compared with the loops_serial result.
  bool check_reference(std::string& note) {
    const std::size_t n = static_cast<std::size_t>(n_);
    const std::size_t total = n * n * n;
    std::vector<double> prev(total), cur(total), next(total);
    fill(cur.data());
    prev = cur;
    auto at = [&](const std::vector<double>& u, std::size_t x, std::size_t y,
                  std::size_t z, int dx, int dy, int dz) {
      const std::size_t xx = x + static_cast<std::size_t>(dx);
      const std::size_t yy = y + static_cast<std::size_t>(dy);
      const std::size_t zz = z + static_cast<std::size_t>(dz);
      return xx < n && yy < n && zz < n ? u[(xx * n + yy) * n + zz] : 0.0;
    };
    for (std::int64_t s = 0; s < steps_; ++s) {
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = 0; y < n; ++y) {
          for (std::size_t z = 0; z < n; ++z) {
            const std::size_t i = (x * n + y) * n + z;
            next[i] = 2 * cur[i] - prev[i] +
                      kC2 * (at(cur, x, y, z, 1, 0, 0) + at(cur, x, y, z, -1, 0, 0) +
                             at(cur, x, y, z, 0, 1, 0) + at(cur, x, y, z, 0, -1, 0) +
                             at(cur, x, y, z, 0, 0, 1) + at(cur, x, y, z, 0, 0, -1) -
                             6 * cur[i]);
          }
        }
      }
      prev.swap(cur);
      cur.swap(next);
    }
    const double* got = level_ptr(*arr_, st_->result_time());
    double max_diff = 0;
    for (std::size_t i = 0; i < total; ++i) {
      max_diff = std::max(max_diff, std::fabs(got[i] - cur[i]));
    }
    note = "max |loops_serial - plain loop| = " + std::to_string(max_diff) +
           " (tolerance 1e-12)";
    expected_ = digest();
    return max_diff <= 1e-12;
  }

  [[nodiscard]] bool verify() { return digest() == expected_; }

 private:
  void fill(double* p) const {
    const std::int64_t total = n_ * n_ * n_;
    for (std::int64_t i = 0; i < total; ++i) {
      p[i] = seeded_uniform(seed_, static_cast<std::uint64_t>(i), -0.1, 0.1);
    }
  }

  /// Times 0 and 1 start equal (a field at rest).
  void fill_initial() {
    fill(level_ptr(*arr_, 0));
    std::memcpy(level_ptr(*arr_, 1), level_ptr(*arr_, 0),
                static_cast<std::size_t>(arr_->level_size()) * sizeof(double));
  }

  std::uint64_t digest() {
    return digest_bytes(level_ptr(*arr_, st_->result_time()),
                        static_cast<std::size_t>(arr_->level_size()) *
                            sizeof(double));
  }

  std::int64_t n_, steps_, slab_steps_;
  std::uint64_t seed_;
  Kernel kernel_;
  std::unique_ptr<Array<double, 3>> arr_;
  std::unique_ptr<Stencil<3, double>> st_;
  std::uint64_t expected_ = 0;
};

}  // namespace

void run_wave3d(const Args& args, Measurement& m) {
  // 120^3 doubles x 3 time levels = 41 MB: out of L2, inside L3; 20 steps
  // in 2 slabs.
  Wave3d w(120, 20, 10, args.seed);
  run_workload(w, args, m);
}

}  // namespace perfbench
