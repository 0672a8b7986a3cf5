// Heat 2 with a zero Dirichlet boundary: the heat2d_ckpt workload
// (README.md gives the sizes and why it was chosen).
#include <memory>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "harness.hpp"
#include "stencils/heat.hpp"

namespace perfbench {
namespace {

using pochoir::Array;
using pochoir::Stencil;

constexpr double kC = 0.125;  // diffusion coefficient in both dimensions

class Heat2d {
 public:
  static constexpr int kDims = 2;
  using Kernel = decltype(pochoir::stencils::heat_kernel_2d({kC, kC}));

  Heat2d(std::int64_t n, std::int64_t steps, std::int64_t slab_steps,
         std::uint64_t seed)
      : n_(n), steps_(steps), slab_steps_(slab_steps), seed_(seed),
        kernel_(pochoir::stencils::heat_kernel_2d({kC, kC})) {}

  void setup() {
    arr_ = std::make_unique<Array<double, 2>>(std::array<std::int64_t, 2>{n_, n_},
                                              1);
    arr_->register_boundary(pochoir::dirichlet_boundary<double, 2>(0.0));
    fill(level_ptr(*arr_, 0));
    st_ = std::make_unique<Stencil<2, double>>(pochoir::stencils::heat_shape<2>());
    st_->register_arrays(*arr_);
  }
  void teardown() {
    st_.reset();
    arr_.reset();
  }
  void reinit() {
    fill(level_ptr(*arr_, 0));
    st_->reset();
  }

  Stencil<2, double>& stencil() { return *st_; }
  Kernel& kernel() { return kernel_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t space_points() const { return n_ * n_; }
  [[nodiscard]] std::int64_t state_bytes() const {
    return arr_->total_size() * static_cast<std::int64_t>(sizeof(double));
  }
  [[nodiscard]] std::string grid() const {
    return std::to_string(n_) + "^2";
  }
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

  /// Compares the current (loops_serial) result with a plain nested-loop
  /// update of the same initial data, then remembers its digest.
  bool check_reference(std::string& note) {
    const std::size_t n = static_cast<std::size_t>(n_);
    std::vector<double> a(n * n), b(n * n);
    fill(a.data());
    for (std::int64_t s = 0; s < steps_; ++s) {
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = 0; y < n; ++y) {
          const double c = a[x * n + y];
          const double up = x + 1 < n ? a[(x + 1) * n + y] : 0.0;
          const double down = x > 0 ? a[(x - 1) * n + y] : 0.0;
          const double right = y + 1 < n ? a[x * n + y + 1] : 0.0;
          const double left = y > 0 ? a[x * n + y - 1] : 0.0;
          b[x * n + y] = c + kC * (up - 2 * c + down) + kC * (right - 2 * c + left);
        }
      }
      a.swap(b);
    }
    const double* got = level_ptr(*arr_, st_->result_time());
    double max_diff = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      max_diff = std::max(max_diff, std::fabs(got[i] - a[i]));
    }
    note = "max |loops_serial - plain loop| = " + std::to_string(max_diff) +
           " (tolerance 1e-12)";
    expected_ = digest();
    return max_diff <= 1e-12;
  }

  [[nodiscard]] bool verify() { return digest() == expected_; }

 private:
  void fill(double* p) const {
    const std::int64_t total = n_ * n_;
    for (std::int64_t i = 0; i < total; ++i) {
      p[i] = seeded_uniform(seed_, static_cast<std::uint64_t>(i), 0.0, 1.0);
    }
  }

  std::uint64_t digest() {
    return digest_bytes(level_ptr(*arr_, st_->result_time()),
                        static_cast<std::size_t>(n_ * n_) * sizeof(double));
  }

  std::int64_t n_, steps_, slab_steps_;
  std::uint64_t seed_;
  Kernel kernel_;
  std::unique_ptr<Array<double, 2>> arr_;
  std::unique_ptr<Stencil<2, double>> st_;
  std::uint64_t expected_ = 0;
};

}  // namespace

void run_heat2d(const Args& args, Measurement& m) {
  // 2048^2 doubles x 2 time levels = 67 MB (in LLC); 24 steps in 4 slabs.
  Heat2d w(2048, 24, 6, args.seed);
  run_workload(w, args, m);
}

}  // namespace perfbench
