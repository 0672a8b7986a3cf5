// Runtime telemetry counters: the always-compiled, near-zero-overhead-when-
// off measurement substrate.
//
// Two counter families:
//
//   - WorkerStats: per-worker scheduler counters (spawns, steals, failed
//     steals, tasks run, idle spins, parks).  Each worker owns one
//     cache-line-padded slot and increments it with relaxed atomics, so
//     collection never introduces cross-core contention; the scheduler
//     aggregates slots into a SchedulerCounters snapshot on demand.
//
//   - WalkStats: per-run walk counters (space/time cuts, base cases by
//     engine, zoid size/height histograms, points updated, points the
//     boundary clone checked).  Accumulated
//     through WalkContext at zoid / time-step granularity only — never in
//     an inner loop — preserving the allocation-free, branch-light hot path
//     established in PR 1.
//
// Everything is gated on one process-wide flag (telemetry::enabled()),
// default off unless POCHOIR_TELEMETRY is set; when off the only cost is a
// relaxed load + branch at coarse granularity.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>

namespace pochoir::telemetry {

namespace detail {

inline bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_truthy("POCHOIR_TELEMETRY")};
  return flag;
}

}  // namespace detail

/// Process-wide counter-collection switch.  Defaults to POCHOIR_TELEMETRY
/// (unset/"0" = off).  Reading it is one relaxed atomic load.
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Per-worker scheduler counters.  One cache line per worker: increments
/// are relaxed stores to an owned line, so enabling telemetry does not
/// serialize the work-stealing hot paths.
struct alignas(64) WorkerStats {
  std::atomic<std::uint64_t> spawns{0};         ///< tasks submitted by this thread
  std::atomic<std::uint64_t> tasks_run{0};      ///< tasks executed by this thread
  std::atomic<std::uint64_t> steals{0};         ///< successful steals
  std::atomic<std::uint64_t> failed_steals{0};  ///< steal rounds that found nothing
  std::atomic<std::uint64_t> idle_spins{0};     ///< relax-loop iterations while idle
  std::atomic<std::uint64_t> parks{0};          ///< times this worker blocked on the CV
};

/// Plain aggregate of scheduler counters (a point-in-time snapshot; deltas
/// of two snapshots describe one run).
struct SchedulerCounters {
  std::uint64_t spawns = 0;
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t idle_spins = 0;
  std::uint64_t parks = 0;

  SchedulerCounters& operator+=(const WorkerStats& w) {
    spawns += w.spawns.load(std::memory_order_relaxed);
    tasks_run += w.tasks_run.load(std::memory_order_relaxed);
    steals += w.steals.load(std::memory_order_relaxed);
    failed_steals += w.failed_steals.load(std::memory_order_relaxed);
    idle_spins += w.idle_spins.load(std::memory_order_relaxed);
    parks += w.parks.load(std::memory_order_relaxed);
    return *this;
  }

  SchedulerCounters operator-(const SchedulerCounters& o) const {
    SchedulerCounters d;
    d.spawns = spawns - o.spawns;
    d.tasks_run = tasks_run - o.tasks_run;
    d.steals = steals - o.steals;
    d.failed_steals = failed_steals - o.failed_steals;
    d.idle_spins = idle_spins - o.idle_spins;
    d.parks = parks - o.parks;
    return d;
  }

  /// Fraction of executed tasks that arrived via a steal — the
  /// load-balancing activity of the run.
  [[nodiscard]] double steal_ratio() const {
    return tasks_run > 0
               ? static_cast<double>(steals) / static_cast<double>(tasks_run)
               : 0.0;
  }
};

inline constexpr int kHistogramBuckets = 32;

/// log2 bucket index for histogram counters (bucket k holds [2^k, 2^(k+1))).
[[nodiscard]] inline int log2_bucket(std::uint64_t v) {
  const int b = v == 0 ? 0 : std::bit_width(v) - 1;
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Plain snapshot of the walk counters.
struct WalkCounters {
  std::uint64_t space_cuts = 0;      ///< hyperspace/dim cuts applied
  std::uint64_t time_cuts = 0;       ///< time halvings applied
  std::uint64_t base_interior = 0;   ///< base-case zoids run on the interior clone
  std::uint64_t base_boundary = 0;   ///< base-case zoids run on the boundary clone
  std::uint64_t loops_steps = 0;     ///< whole time steps run by the loops engine
  std::uint64_t points_interior = 0; ///< points updated in interior base cases
  std::uint64_t points_boundary = 0; ///< points updated in boundary base cases
  std::uint64_t points_loops = 0;    ///< points updated by the loops engine
  std::uint64_t points_checked = 0;  ///< points run checked by the boundary clone
  std::array<std::uint64_t, kHistogramBuckets> zoid_points_hist{};  ///< base zoid volume, log2 buckets
  std::array<std::uint64_t, kHistogramBuckets> zoid_height_hist{};  ///< base zoid height, log2 buckets

  [[nodiscard]] std::uint64_t points_total() const {
    return points_interior + points_boundary + points_loops;
  }
  [[nodiscard]] std::uint64_t base_cases() const {
    return base_interior + base_boundary;
  }

  WalkCounters operator-(const WalkCounters& o) const {
    WalkCounters d;
    d.space_cuts = space_cuts - o.space_cuts;
    d.time_cuts = time_cuts - o.time_cuts;
    d.base_interior = base_interior - o.base_interior;
    d.base_boundary = base_boundary - o.base_boundary;
    d.loops_steps = loops_steps - o.loops_steps;
    d.points_interior = points_interior - o.points_interior;
    d.points_boundary = points_boundary - o.points_boundary;
    d.points_loops = points_loops - o.points_loops;
    d.points_checked = points_checked - o.points_checked;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      d.zoid_points_hist[i] = zoid_points_hist[i] - o.zoid_points_hist[i];
      d.zoid_height_hist[i] = zoid_height_hist[i] - o.zoid_height_hist[i];
    }
    return d;
  }
};

/// Thread-safe walk-counter sink.  All increments are relaxed atomics and
/// happen at zoid or time-step granularity — the inner row loops never see
/// a counter.  Walkers reach it through WalkContext::stats (nullptr = off).
class WalkStats {
 public:
  void on_space_cut() { space_cuts_.fetch_add(1, kOrder); }
  void on_time_cut() { time_cuts_.fetch_add(1, kOrder); }

  /// One base-case zoid handed to a kernel clone; `points` is its exact
  /// space-time volume.
  void on_base(std::uint64_t points, std::int64_t height, bool interior) {
    if (interior) {
      base_interior_.fetch_add(1, kOrder);
      points_interior_.fetch_add(points, kOrder);
    } else {
      base_boundary_.fetch_add(1, kOrder);
      points_boundary_.fetch_add(points, kOrder);
    }
    zoid_points_hist_[static_cast<std::size_t>(log2_bucket(points))].fetch_add(
        1, kOrder);
    const std::uint64_t h =
        height > 0 ? static_cast<std::uint64_t>(height) : 0;
    zoid_height_hist_[static_cast<std::size_t>(log2_bucket(h))].fetch_add(
        1, kOrder);
  }

  /// One whole time step completed by the loops engine (`points` = spatial
  /// grid volume).
  void on_loops_step(std::uint64_t points) {
    loops_steps_.fetch_add(1, kOrder);
    points_loops_.fetch_add(points, kOrder);
  }

  /// The checked points of one boundary base case (make_boundary_base):
  /// its flanks and the rows within reach of the grid edge.
  void on_checked_points(std::uint64_t points) {
    points_checked_.fetch_add(points, kOrder);
  }

  [[nodiscard]] WalkCounters snapshot() const {
    WalkCounters c;
    c.space_cuts = space_cuts_.load(kOrder);
    c.time_cuts = time_cuts_.load(kOrder);
    c.base_interior = base_interior_.load(kOrder);
    c.base_boundary = base_boundary_.load(kOrder);
    c.loops_steps = loops_steps_.load(kOrder);
    c.points_interior = points_interior_.load(kOrder);
    c.points_boundary = points_boundary_.load(kOrder);
    c.points_loops = points_loops_.load(kOrder);
    c.points_checked = points_checked_.load(kOrder);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      c.zoid_points_hist[static_cast<std::size_t>(i)] =
          zoid_points_hist_[static_cast<std::size_t>(i)].load(kOrder);
      c.zoid_height_hist[static_cast<std::size_t>(i)] =
          zoid_height_hist_[static_cast<std::size_t>(i)].load(kOrder);
    }
    return c;
  }

 private:
  static constexpr auto kOrder = std::memory_order_relaxed;

  std::atomic<std::uint64_t> space_cuts_{0};
  std::atomic<std::uint64_t> time_cuts_{0};
  std::atomic<std::uint64_t> base_interior_{0};
  std::atomic<std::uint64_t> base_boundary_{0};
  std::atomic<std::uint64_t> loops_steps_{0};
  std::atomic<std::uint64_t> points_interior_{0};
  std::atomic<std::uint64_t> points_boundary_{0};
  std::atomic<std::uint64_t> points_loops_{0};
  std::atomic<std::uint64_t> points_checked_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> zoid_points_hist_{};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> zoid_height_hist_{};
};

/// The process-wide walk-stat sink.  Stencil::context() attaches it to the
/// WalkContext whenever telemetry::enabled(); sessions read deltas of its
/// snapshot, so concurrent runs aggregate rather than clobber.
inline WalkStats& walk_stats() {
  static WalkStats stats;
  return stats;
}

}  // namespace pochoir::telemetry
