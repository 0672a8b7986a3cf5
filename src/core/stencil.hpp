// The Pochoir object (§2): ties together a shape, registered arrays, and a
// kernel, and runs the stencil computation with a chosen algorithm.
//
//   Shape<2> shape = {{1,0,0},{0,0,0},{0,1,0},{0,-1,0},{0,0,-1},{0,0,1}};
//   Array<double,2> u({X, Y}, shape.depth());
//   u.register_boundary(periodic_boundary<double,2>());
//   Stencil<2, double> heat(shape);
//   heat.register_arrays(u);
//   heat.run(T, [](int64_t t, int64_t x, int64_t y, auto u) {
//     u(t+1,x,y) = u(t,x,y) + CX*(u(t,x+1,y) - 2*u(t,x,y) + u(t,x-1,y))
//                           + CY*(u(t,x,y+1) - 2*u(t,x,y) + u(t,x,y-1));
//   });
//
// The kernel is a *generic* callable over (t, x..., views...).  Each run
// entry builds one leaf from it with row_leaf: the two clones of §4 as base
// cases over two row invokers, the interior clone (unchecked RowViews) and
// the boundary clone (checked RowViews, views.hpp).  Both make their views
// once per unit-stride row.  The checked clone is chosen once per run:
// when every array's boundary is a BoundaryRule (the built-in conditions)
// its view inlines the rule, otherwise it calls the BoundaryFn.  Boundary
// zoids go through make_boundary_base, the one place where the virtual
// coordinates of seam-crossing pieces become true ones: once per row,
// splitting each row into checked flanks and an unchecked middle.
// pochoirc's clones (a split-pointer row clone, or Phase-1 point clones)
// and the traced runs supply their own invokers to the same leaf, point
// clones through point_fn_as_row, so no run entry takes a zoid-level
// callable.  The leaf reaches the engines — TRAP (default), STRAP, or the
// loop baselines — as two type-erased BaseCase<D> references through one
// private execute path, so the engines are compiled once per (D, policy),
// never per kernel.  run() is resumable: a second run(T') continues from
// step T, as in §2.
//
// For long-running jobs, run_supervised() executes the same computation in
// time slabs under the resilience layer (resilience/supervisor.hpp):
// checksummed on-disk checkpoints, cooperative cancellation/deadlines,
// numerical health scans, and serial-engine degradation, reported through
// a structured RunReport instead of aborts.  resume() restores the newest
// valid checkpoint and finishes the interrupted run.  The Stencil owns one
// resilience::Snapshot for all of this: the supervisor captures the arrays
// into it as the rollback point and writes it as the checkpoint, and
// resume() loads into it, so after the first supervised run or resume the
// Stencil keeps one copy of its arrays and allocates none again.  It is
// move-only, as the Snapshot is.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/array.hpp"
#include "core/base_case.hpp"
#include "core/loops.hpp"
#include "core/options.hpp"
#include "core/shape.hpp"
#include "core/trap.hpp"
#include "core/views.hpp"
#include "core/walk_context.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/health.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/parallel.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/trace.hpp"

namespace pochoir {

namespace detail {

template <int D, typename K, typename... Views, std::size_t... Is>
inline void call_kernel_impl(K& kernel, std::int64_t t,
                             const std::array<std::int64_t, D>& idx,
                             std::index_sequence<Is...>,
                             const Views&... views) {
  if constexpr (std::is_invocable_v<K&, std::int64_t, decltype(idx[Is])...,
                                    const Views&...>) {
    kernel(t, idx[Is]..., views...);
  } else {
    // Phase-1 style kernel (the DSL macros of Figure 6): the kernel closes
    // over the Pochoir arrays and accesses them through their own checked
    // operator(); no views are passed.
    kernel(t, idx[Is]...);
  }
}

/// Invokes kernel(t, x0, ..., x{D-1}, views...).
template <int D, typename K, typename... Views>
inline void call_kernel(K& kernel, std::int64_t t,
                        const std::array<std::int64_t, D>& idx,
                        const Views&... views) {
  call_kernel_impl<D>(kernel, t, idx, std::make_index_sequence<D>{}, views...);
}

}  // namespace detail

template <int D, typename... Ts>
class Stencil {
  static_assert(sizeof...(Ts) >= 1, "a stencil needs at least one array");

 public:
  /// Creates a Pochoir object with the given computing shape; options
  /// default to the paper's coarsening heuristics.
  explicit Stencil(Shape<D> shape, Options<D> opts = Options<D>::heuristic())
      : shape_(std::move(shape)), opts_(opts) {}

  /// Registers the participating arrays, in the order the kernel receives
  /// its views.  Arrays must share extents and have >= depth+1 time levels.
  /// Misuse throws pochoir::Error (user input, not an internal invariant).
  void register_arrays(Array<Ts, D>&... arrays) {
    auto tentative = std::make_tuple(&arrays...);
    const auto grid = std::get<0>(tentative)->extents();
    auto check = [&](const auto& a) {
      detail::check_usage(a.extents() == grid,
                          "all registered arrays must share extents");
      detail::check_usage(
          a.time_levels() >= shape_.depth() + 1,
          "array has fewer time levels than the shape's depth requires "
          "(construct the array with depth >= shape.depth())");
    };
    (check(arrays), ...);
    arrays_ = tentative;
    grid_ = grid;
    registered_ = true;
  }

  /// Paper-style alias for the single-array case.
  template <typename A>
  void Register_Array(A& a) {
    static_assert(sizeof...(Ts) == 1);
    register_arrays(a);
  }

  [[nodiscard]] const Shape<D>& shape() const { return shape_; }
  [[nodiscard]] Options<D>& options() { return opts_; }
  [[nodiscard]] const Options<D>& options() const { return opts_; }
  [[nodiscard]] const std::array<std::int64_t, D>& grid() const { return grid_; }

  /// Steps executed so far across run() calls.
  [[nodiscard]] std::int64_t steps_done() const { return steps_done_; }

  /// Time index holding the results after the steps executed so far
  /// (T + k - 1 in §2, counting initial conditions at times 0..k-1).
  [[nodiscard]] std::int64_t result_time() const {
    return steps_done_ + shape_.depth() - 1;
  }

  /// Forgets execution history (e.g. after re-initializing the arrays).
  void reset() { steps_done_ = 0; }

  /// The kernel-invocation time range for the next `steps` steps; exposed
  /// for the analysis module and tests.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> time_range(
      std::int64_t steps) const {
    const std::int64_t t0 = shape_.depth() - shape_.home_dt() + steps_done_;
    return {t0, t0 + steps};
  }

  /// Walk parameters derived from the shape, grid and current options.
  [[nodiscard]] WalkContext<D> context() const {
    detail::check_usage(registered_,
                        "register_arrays must be called before running");
    WalkContext<D> ctx = WalkContext<D>::make(shape_, grid_, opts_);
    ctx.cancel = cancel_;
    if (telemetry::enabled()) ctx.stats = &telemetry::walk_stats();
    if (trace::Tracer::instance().active()) {
      ctx.trace_depth = trace::zoid_depth_limit();
    }
    return ctx;
  }

  /// Installs a cancellation token polled by every run path (TRAP/STRAP at
  /// zoid granularity, loops per time step); nullptr removes it.  A run
  /// interrupted this way may leave arrays mid-step — use run_supervised()
  /// when consistency at a slab boundary is required.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  // --- execution -----------------------------------------------------------

  /// Runs `steps` time steps with TRAP on the work-stealing pool
  /// (the paper's name.Run(T, kern)).
  template <typename K>
  void run(std::int64_t steps, K&& kernel) {
    run_kernel(Algorithm::kTrap, /*parallel=*/true, steps, kernel);
  }

  /// Paper-style alias.
  template <typename K>
  void Run(std::int64_t steps, K&& kernel) {
    run(steps, std::forward<K>(kernel));
  }

  /// Runs with an explicit algorithm on the work-stealing pool.
  template <typename K>
  void run(Algorithm alg, std::int64_t steps, K&& kernel) {
    run_kernel(alg, /*parallel=*/true, steps, kernel);
  }

  /// Runs with an explicit algorithm entirely on the calling thread
  /// (the "Pochoir 1 core" column of Figure 3).
  template <typename K>
  void run_serial(Algorithm alg, std::int64_t steps, K&& kernel) {
    run_kernel(alg, /*parallel=*/false, steps, kernel);
  }

  // --- supervised execution (resilience layer) -----------------------------

  /// Runs `steps` in time slabs under the supervisor: slab checkpoints,
  /// cooperative cancellation/deadline, numerical health scans, and
  /// graceful degradation to the serial loops engine.  Never aborts on a
  /// recoverable failure; the outcome is the returned RunReport.  With the
  /// default options (no slabbing, no checkpoint path) this is a thin
  /// wrapper over run() with near-zero overhead.
  template <typename K>
  resilience::RunReport run_supervised(
      std::int64_t steps, K&& kernel,
      const resilience::SupervisorOptions& opts = {}) {
    validate_run(steps);
    return with_leaf(kernel, [&](BaseCase<D> ib, BaseCase<D> bb) {
      return supervise(steps, ib, bb, opts);
    });
  }

  /// Restores the newest valid checkpoint generation under
  /// `opts.checkpoint_path` (corrupt or truncated snapshots are skipped in
  /// favour of older ones) and finishes the interrupted run.  Returns a
  /// kCheckpointError report when no usable snapshot exists or its layout
  /// does not match the registered arrays.
  template <typename K>
  resilience::RunReport resume(K&& kernel,
                               const resilience::SupervisorOptions& opts) {
    namespace rs = resilience;
    detail::check_usage(registered_,
                        "register_arrays must be called before resume");
    detail::check_usage(!opts.checkpoint_path.empty(),
                        "resume needs SupervisorOptions::checkpoint_path");
    rs::RunReport rep;
    rep.resumed = true;
    const std::string file =
        rs::load_latest_checkpoint(opts.checkpoint_path, snapshot_);
    if (file.empty()) {
      rep.status = rs::RunStatus::kCheckpointError;
      rep.message = "no valid checkpoint found at " + opts.checkpoint_path;
      return rep;
    }
    const std::string err = snapshot_.restore(array_views());
    if (!err.empty()) {
      rep.status = rs::RunStatus::kCheckpointError;
      rep.message = file + ": " + err;
      return rep;
    }
    steps_done_ = snapshot_.meta.steps_done;
    const std::int64_t remaining =
        snapshot_.meta.steps_target - snapshot_.meta.steps_done;
    if (remaining <= 0) {
      rep.message = "checkpoint already holds the full run";
      return rep;
    }
    rs::RunReport sub =
        with_leaf(kernel, [&](BaseCase<D> ib, BaseCase<D> bb) {
          return supervise(remaining, ib, bb, opts, /*restored=*/true);
        });
    sub.resumed = true;
    return sub;
  }

  /// Loop baseline with every access checked (no interior clone, no row
  /// splitter, a BoundaryView per point): the §4 "modulo on every array
  /// index" ablation, and the differential tests' independent reference.
  template <typename K>
  void run_loops_checked_everywhere(std::int64_t steps, K&& kernel,
                                    bool parallel = true) {
    const auto pb = make_point_fn(kernel, boundary_factory());
    auto checked = [&pb](const Zoid<D>& z) { for_each_point(z, pb); };
    execute(Algorithm::kLoopsParallel, parallel, steps, checked, checked);
  }

  /// Serial run in which every array access is traced into `sink` (e.g. a
  /// CacheSim) — the substrate for the Figure 10 experiments.
  template <typename Sink, typename K>
  void run_traced(Algorithm alg, std::int64_t steps, K&& kernel, Sink& sink) {
    auto factory = [&sink](auto& a, std::int64_t, const auto&) {
      return CheckedView(a, TouchHook<Sink>{&sink});
    };
    run_point_views(alg, steps, kernel, factory);
  }

  /// Phase-1 compliance run: every access is validated against the declared
  /// shape; aborts with a diagnostic on violation.  Serial, checked, slow —
  /// exactly the paper's debugging mode.
  template <typename K>
  void run_debug(std::int64_t steps, K&& kernel) {
    auto factory = [this](auto& a, std::int64_t t, const auto& idx) {
      return CheckedView(a, ShapeHook<D>{&shape_, t, idx});
    };
    run_point_views(Algorithm::kLoopsSerial, steps, kernel, factory);
  }

  /// Runs with explicit interior/boundary kernel clones, Phase-1 style
  /// f(t, x...) — the entry point used by pochoirc's -split-macro-shadow
  /// postsource, where the interior clone shadows array accesses with
  /// unchecked ones (Figure 12(b)).
  template <typename KI, typename KB>
  void run_cloned(std::int64_t steps, KI&& ki, KB&& kb, bool parallel = true) {
    const auto pi = [&ki](std::int64_t t, const std::array<std::int64_t, D>& idx) {
      detail::call_kernel<D>(ki, t, idx);
    };
    const auto pb = [&kb](std::int64_t t,
                          const std::array<std::int64_t, D>& idx) {
      detail::call_kernel<D>(kb, t, idx);
    };
    const auto [ib, bb] =
        row_leaf(point_fn_as_row<D>(pi), point_fn_as_row<D>(pb));
    execute(Algorithm::kTrap, parallel, steps, ib, bb);
  }

  /// Runs with a row clone interior_row(t, idx, row_end) (pochoirc's
  /// -split-pointer output, Figure 12(c): one pointer per access walked
  /// down the row) and a Phase-1 style boundary kernel for the checked
  /// points.  As in run_cloned, the row clone runs every row of an interior
  /// zoid and the unchecked middle of a boundary zoid's rows.
  template <typename RI, typename KB>
  void run_split(std::int64_t steps, const RI& interior_row,
                 KB&& boundary_kernel, bool parallel = true) {
    const auto pb = [&boundary_kernel](std::int64_t t,
                                       const std::array<std::int64_t, D>& idx) {
      detail::call_kernel<D>(boundary_kernel, t, idx);
    };
    const auto [ib, bb] = row_leaf(interior_row, point_fn_as_row<D>(pb));
    execute(Algorithm::kTrap, parallel, steps, ib, bb);
  }

 private:
  /// User-input checks shared by every run entry point; throws
  /// pochoir::Error (misuse), never aborts (reserved for internal bugs).
  void validate_run(std::int64_t steps) const {
    detail::check_usage(registered_,
                        "register_arrays must be called before running");
    detail::check_usage(steps > 0, "step count must be positive");
  }

  // --- resilience glue -----------------------------------------------------

  /// Installs a token for the duration of one supervised run, restoring
  /// whatever set_cancel_token() had put there on exit.
  class CancelTokenScope {
   public:
    CancelTokenScope(Stencil& s, const CancelToken* token)
        : s_(s), prev_(s.cancel_) {
      if (token != nullptr) s_.cancel_ = token;
    }
    ~CancelTokenScope() { s_.cancel_ = prev_; }
    CancelTokenScope(const CancelTokenScope&) = delete;
    CancelTokenScope& operator=(const CancelTokenScope&) = delete;

   private:
    Stencil& s_;
    const CancelToken* prev_;
  };

  /// Views of every registered array's storage (all circular time levels)
  /// in the checkpoint layout: what a Snapshot captures and restores.
  [[nodiscard]] std::vector<resilience::ArraySnapshot> array_views() const {
    auto view = [](auto& a) {
      using T = typename std::remove_reference_t<decltype(a)>::value_type;
      return resilience::ArraySnapshot{
          D, sizeof(T), a.time_levels(), a.level_size(),
          {a.extents().begin(), a.extents().end()},
          reinterpret_cast<unsigned char*>(a.data()),
          static_cast<std::uint64_t>(a.total_size()) * sizeof(T)};
    };
    return std::apply(
        [&](auto*... arrs) { return std::vector{view(*arrs)...}; }, arrays_);
  }

  /// "" when every registered array is finite and bounded, else the first
  /// issue found.
  [[nodiscard]] std::string health_scan(double limit) const {
    resilience::HealthIssue issue;
    int i = 0;
    std::apply(
        [&](auto*... arrs) {
          ((resilience::scan_array(*arrs, limit, i, issue), ++i), ...);
        },
        arrays_);
    return issue.found ? issue.message : std::string{};
  }

  /// FaultPlan::poison_after_slab target: plants a quiet NaN in the first
  /// registered array's storage (no-op for non-floating-point cells).
  void poison_first_array(std::int64_t flat_index) {
    auto& a = *std::get<0>(arrays_);
    using T = typename std::remove_reference_t<decltype(a)>::value_type;
    if constexpr (std::is_floating_point_v<T>) {
      const std::int64_t n = a.total_size();
      if (n > 0) {
        const std::int64_t at =
            flat_index >= 0 && flat_index < n ? flat_index : 0;
        a.data()[at] = std::numeric_limits<T>::quiet_NaN();
      }
    } else {
      (void)flat_index;
    }
  }

  /// The supervisor loop over one leaf.  When the FaultPlan wants a hook it
  /// wraps the two erased base cases (never the kernel), so the hook sees
  /// every base case once, with its point count.  `restored`: the arrays
  /// were just restored from snapshot_ (resume), which needs no capture.
  resilience::RunReport supervise(std::int64_t steps, BaseCase<D> ib,
                                  BaseCase<D> bb,
                                  const resilience::SupervisorOptions& opts,
                                  bool restored = false) {
    namespace rs = resilience;
    auto hooked = [plan = opts.faults](BaseCase<D> base) {
      return [plan, base](const Zoid<D>& z) {
        plan->on_base_case(z.volume());
        base(z);
      };
    };
    const auto hooked_ib = hooked(ib);
    const auto hooked_bb = hooked(bb);
    if (opts.faults != nullptr && opts.faults->wants_base_case_hook()) {
      ib = hooked_ib;
      bb = hooked_bb;
    }

    CancelToken internal_token;
    CancelToken* token = opts.cancel;
    if (token == nullptr &&
        (opts.deadline_ms >= 0 ||
         (opts.faults != nullptr && opts.faults->cancel_at_slab >= 0))) {
      token = &internal_token;
    }
    if (token != nullptr && opts.deadline_ms >= 0) {
      token->set_deadline_after_ms(opts.deadline_ms);
    }
    CancelTokenScope scope(*this, token);

    auto run_slab = [&](std::int64_t n, bool serial) {
      if (serial) {
        execute(Algorithm::kLoopsSerial, /*parallel=*/false, n, ib, bb);
      } else {
        execute(Algorithm::kTrap, /*parallel=*/true, n, ib, bb);
      }
    };
    auto health = [&] { return health_scan(opts.divergence_limit); };
    auto apply_faults = [&](std::int64_t slab) {
      if (opts.faults->poison_after_slab == slab) {
        poison_first_array(opts.faults->poison_flat_index);
      }
    };
    // Views only when the loop captures: the default options allocate nothing.
    const bool captures =
        rs::protects(opts, token) || !opts.checkpoint_path.empty();
    return rs::supervise(opts, steps, token, snapshot_,
                         captures ? array_views()
                                  : std::vector<rs::ArraySnapshot>{},
                         restored, steps_done_, run_slab, health,
                         apply_faults);
  }

  /// The one execution path behind every run entry: validates the request,
  /// opens the run's trace span, and drives the chosen engine over the
  /// next `steps` steps with the leaf's two base cases.  kLoopsSerial
  /// always runs on the calling thread.
  void execute(Algorithm alg, bool parallel, std::int64_t steps,
               BaseCase<D> ib, BaseCase<D> bb) {
    validate_run(steps);
    trace::Span span("stencil_run", steps);
    const auto [t0, t1] = time_range(steps);
    const WalkContext<D> ctx = context();
    auto engine = [&](const auto& pol) {
      switch (alg) {
        case Algorithm::kTrap:
          run_trap(ctx, pol, t0, t1, ib, bb);
          break;
        case Algorithm::kStrap:
          run_strap(ctx, pol, t0, t1, ib, bb);
          break;
        case Algorithm::kLoopsParallel:
        case Algorithm::kLoopsSerial:
          run_loops(ctx, pol, t0, t1, ib, bb);
          break;
      }
    };
    if (parallel && alg != Algorithm::kLoopsSerial) {
      engine(rt::ParallelPolicy{});
    } else {
      engine(rt::SerialPolicy{});
    }
    steps_done_ += steps;
  }

  /// Builds the standard leaf for `kernel` and returns body(ib, bb) over
  /// its two base cases: the interior row clone, and the boundary clone,
  /// whose checked row view inlines the arrays' BoundaryRules when every
  /// array holds one and calls their BoundaryFns otherwise.  The leaf's
  /// types depend on the kernel alone, so every entry point shares one
  /// interior clone and two checked clones per kernel.  Reads the arrays:
  /// call it after validate_run.
  template <typename K, typename Body>
  decltype(auto) with_leaf(K& kernel, Body&& body) {
    const auto ri = make_row_fn(kernel, row_views<Unchecked>());
    auto leaf = [&](auto check) -> decltype(auto) {
      const auto [ib, bb] =
          row_leaf(ri, make_row_fn(kernel, row_views<decltype(check)>()));
      return body(ib, bb);
    };
    const bool rules = std::apply(
        [](const auto*... a) {
          return ((boundary_rule(*a) != nullptr) && ...);
        },
        arrays_);
    if (rules) return leaf(InlineRule{});
    return leaf(CallBoundary{});
  }

  /// The two clones of §4 as (interior, boundary) base cases over an
  /// unchecked row invoker ri(t, idx, row_end) and a checked one rb:
  /// interior zoids run every row through ri, boundary zoids split their
  /// rows (make_boundary_base).  Both closures hold copies of ri and rb.
  template <typename RI, typename RB>
  auto row_leaf(const RI& ri, const RB& rb) const {
    return std::pair(interior_base(ri), make_boundary_base(ri, rb));
  }

  /// The interior base case; its type depends on ri alone, so leaves that
  /// differ only in their checked clone share it.
  template <typename RI>
  static auto interior_base(const RI& ri) {
    return [ri](const Zoid<D>& z) { for_each_row<D>(z, ri); };
  }

  template <typename K>
  void run_kernel(Algorithm alg, bool parallel, std::int64_t steps,
                  K& kernel) {
    validate_run(steps);
    with_leaf(kernel, [&](BaseCase<D> ib, BaseCase<D> bb) {
      execute(alg, parallel, steps, ib, bb);
    });
  }

  /// Serial run with views built per point by `factory(array, t, idx)`
  /// (traced and shape-checked runs, whose views depend on the home point).
  template <typename K, typename Factory>
  void run_point_views(Algorithm alg, std::int64_t steps, K& kernel,
                       Factory factory) {
    const auto pf = make_point_fn(kernel, factory);
    const auto rows = point_fn_as_row<D>(pf);
    const auto [ib, bb] = row_leaf(rows, rows);
    execute(alg, /*parallel=*/false, steps, ib, bb);
  }

  static auto boundary_factory() {
    return [](auto& a, std::int64_t, const auto&) { return CheckedView(a); };
  }

  /// Binds each array to its RowView with check policy `Check`, once per
  /// leaf: the returned maker m(t) is the view of a row at invocation time
  /// t.  The array's BoundaryRule is looked up here, not per row.
  template <typename Check>
  auto row_views() const {
    const std::int64_t home = shape_.home_dt();
    return [home](auto& a) {
      using T = typename std::remove_reference_t<decltype(a)>::value_type;
      const BoundaryRule<T, D>* rule = boundary_rule(a);
      return [&a, home, rule](std::int64_t t) {
        return RowView<T, D, Check>(a, t, home, rule);
      };
    };
  }

  /// The boundary clone, and the one place where virtual coordinates (seam
  /// pieces run past the grid edge, §4) become true ones, once per row:
  /// each outer coordinate is wrapped (a modulo only when it lies outside
  /// [0, n)) and the unit-stride range is split at multiples of n.  Each
  /// true segment runs the checked row invoker rb on its `reach`-wide
  /// flanks and the unchecked ri on the middle (the ghost-cell trick
  /// inside boundary zoids), or rb throughout when an outer coordinate
  /// lies within `reach` of the edge.  So rb always sees true coordinates,
  /// and the checked points of a zoid are O(surface) even where the
  /// paper's >=3D heuristic never cuts the unit-stride dimension, and on
  /// the loops engine, whose edge chunks all land here.  With telemetry on
  /// (when the leaf is built), each zoid adds its checked points to
  /// WalkStats in one step.
  template <typename RI, typename RB>
  auto make_boundary_base(const RI& ri, const RB& rb) const {
    const auto& reach = shape_.reaches();
    const auto& grid = grid_;
    telemetry::WalkStats* stats =
        telemetry::enabled() ? &telemetry::walk_stats() : nullptr;
    return [ri, rb, &reach, &grid, stats](const Zoid<D>& z) {
      std::int64_t checked = 0;
      for_each_row<D>(z, [&](std::int64_t t, std::array<std::int64_t, D> idx,
                             std::int64_t row_end) {
        bool outer_safe = true;
        for (std::size_t i = 0; i + 1 < D; ++i) {
          if (idx[i] < 0 || idx[i] >= grid[i]) {
            idx[i] = mod_floor(idx[i], grid[i]);
          }
          outer_safe = outer_safe && idx[i] >= reach[i] &&
                       idx[i] < grid[i] - reach[i];
        }
        const std::int64_t n = grid[D - 1];
        const std::int64_t r = reach[D - 1];
        const std::int64_t x = idx[D - 1];
        // Virtual minus true coordinate, one period more per segment.
        std::int64_t shift = x >= 0 && x < n ? 0 : x - mod_floor(x, n);
        for (std::int64_t lo = x - shift; lo + shift < row_end;
             lo = 0, shift += n) {
          const std::int64_t hi = std::min(row_end - shift, n);
          const std::int64_t mid_lo = outer_safe ? std::clamp(r, lo, hi) : hi;
          const std::int64_t mid_hi = std::clamp(n - r, mid_lo, hi);
          checked += (mid_lo - lo) + (hi - mid_hi);
          idx[D - 1] = lo;
          if (lo < mid_lo) rb(t, idx, mid_lo);
          idx[D - 1] = mid_lo;
          if (mid_lo < mid_hi) ri(t, idx, mid_hi);
          idx[D - 1] = mid_hi;
          if (mid_hi < hi) rb(t, idx, hi);
        }
      });
      if (stats != nullptr) {
        stats->on_checked_points(static_cast<std::uint64_t>(checked));
      }
    };
  }

  /// Builds a per-point functor f(t, idx) that calls the kernel with views
  /// created by `factory(array, t, idx)` for each registered array.
  template <typename K, typename Factory>
  auto make_point_fn(K& kernel, Factory factory) {
    return std::apply(
        [&kernel, factory](auto*... arrs) {
          return [&kernel, factory, arrs...](
                     std::int64_t t, const std::array<std::int64_t, D>& idx) {
            detail::call_kernel<D>(kernel, t, idx, factory(*arrs, t, idx)...);
          };
        },
        arrays_);
  }

  /// Builds a row functor f(t, idx, row_end) that makes each array's view
  /// ONCE per unit-stride row and invokes the kernel for idx[D-1] in
  /// [idx[D-1], row_end).  `bind(array)` runs here, once per array, and
  /// returns its view maker m(t) (row_views).  A RowView hoists the
  /// circular-time and row address arithmetic out of the inner loop.
  template <typename K, typename Bind>
  auto make_row_fn(K& kernel, Bind bind) {
    return std::apply(
        [&kernel, bind](auto*... arrs) {
          return [&kernel, makers = std::make_tuple(bind(*arrs)...)](
                     std::int64_t t, std::array<std::int64_t, D> idx,
                     std::int64_t row_end) {
            // The row views live here for the whole row; kernels receive
            // pointer-sized handles, so the per-point copy is trivial.
            const auto views = std::apply(
                [t](const auto&... m) { return std::make_tuple(m(t)...); },
                makers);
            std::apply(
                [&](const auto&... v) {
                  for (; idx[D - 1] < row_end; ++idx[D - 1]) {
                    detail::call_kernel<D>(kernel, t, idx, v.handle()...);
                  }
                },
                views);
          };
        },
        arrays_);
  }

  Shape<D> shape_;
  Options<D> opts_;
  std::tuple<Array<Ts, D>*...> arrays_{};
  std::array<std::int64_t, D> grid_{};
  bool registered_ = false;
  std::int64_t steps_done_ = 0;
  const CancelToken* cancel_ = nullptr;
  /// The supervisor's rollback point and checkpoint image, and what
  /// resume() loads; kept across runs so its buffer is allocated once.
  resilience::Snapshot snapshot_;
};

}  // namespace pochoir
