// Runtime telemetry counters: the always-compiled, near-zero-overhead-when-
// off measurement substrate.  Each layer keeps its counters in one record
// of uint64 fields:
//
//   - SchedulerCounters (spawns, steals, failed steals, tasks run, idle
//     spins, parks).  The scheduler keeps one live record per worker and
//     one for threads outside the pool, each on its own cache line, and
//     sums them on demand.
//   - WalkCounters (space/time cuts, base cases by clone, zoid size/height
//     histograms, points updated, points the boundary clone checked).
//     WalkStats holds the live record; walkers add to it through
//     WalkContext at zoid / time-step granularity only, never in an inner
//     loop.
//
// A record lists its counters once, in JSON order, in a static fields(f)
// visitor, f(name, &Record::counter), which the delta (operator-), the sum
// (operator+=), load(), telemetry::to_json and the registry totals walk;
// the arithmetic and load() are defined once, for every CounterRecord.
// So a new counter is one field, one fields() line and its increment.
// Live records are touched only through relaxed std::atomic_ref adds
// (add()) and loads (load()), so a snapshot may read a record while other
// threads add to it.
//
// Everything is gated on one process-wide flag (telemetry::enabled()),
// default off unless POCHOIR_TELEMETRY is set; when off the only cost is a
// relaxed load + branch at coarse granularity.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <type_traits>

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

/// op(to, from) on one counter: a count, or each bucket of a histogram.
template <typename V, typename Op>
void each(V& to, const V& from, Op op) {
  if constexpr (std::is_same_v<V, std::uint64_t>) {
    op(to, from);
  } else {
    for (std::size_t i = 0; i < to.size(); ++i) op(to[i], from[i]);
  }
}

/// op(to.c, from.c) on every counter c of record R, in R::fields order.
template <typename R, typename Op>
R& zip(R& to, const R& from, Op op) {
  R::fields([&](const char*, auto counter) {
    each(to.*counter, from.*counter, op);
  });
  return to;
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

static_assert(alignof(std::uint64_t) >=
                  std::atomic_ref<std::uint64_t>::required_alignment,
              "counter fields must be aligned for std::atomic_ref");

/// Relaxed add to a counter of a live record.
inline void add(std::uint64_t& counter, std::uint64_t n = 1) {
  std::atomic_ref(counter).fetch_add(n, std::memory_order_relaxed);
}

/// A counter record: a struct of counters with a static fields(f).
template <typename R>
concept CounterRecord = requires { R::fields([](const char*, auto) {}); };

/// The sum and the delta of two records, counter by counter.
template <CounterRecord R>
R& operator+=(R& a, const R& b) {
  return detail::zip(a, b, [](auto& x, const auto& y) { x += y; });
}
template <CounterRecord R>
R operator-(R a, const R& b) {
  return detail::zip(a, b, [](auto& x, const auto& y) { x -= y; });
}

/// A copy of a live record, each counter read with a relaxed load, while
/// other threads may keep adding to it.
template <CounterRecord R>
[[nodiscard]] R load(const R& live) {
  R copy;
  return detail::zip(copy, live, [](std::uint64_t& to,
                                    const std::uint64_t& from) {
    // atomic_ref needs a mutable referent; the load does not write.
    to = std::atomic_ref(const_cast<std::uint64_t&>(from))
             .load(std::memory_order_relaxed);
  });
}

/// Scheduler counters of one thread (a live record), or a sum or delta.
struct SchedulerCounters {
  std::uint64_t spawns = 0;         ///< tasks submitted
  std::uint64_t tasks_run = 0;      ///< tasks executed
  std::uint64_t steals = 0;         ///< successful steals
  std::uint64_t failed_steals = 0;  ///< steal rounds that found nothing
  std::uint64_t idle_spins = 0;     ///< relax-loop iterations while idle
  std::uint64_t parks = 0;          ///< times a worker blocked on the CV

  template <typename F>
  static void fields(F&& f) {
    f("spawns", &SchedulerCounters::spawns);
    f("tasks_run", &SchedulerCounters::tasks_run);
    f("steals", &SchedulerCounters::steals);
    f("failed_steals", &SchedulerCounters::failed_steals);
    f("idle_spins", &SchedulerCounters::idle_spins);
    f("parks", &SchedulerCounters::parks);
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
[[nodiscard]] inline std::size_t log2_bucket(std::uint64_t v) {
  const int b = v == 0 ? 0 : std::bit_width(v) - 1;
  return static_cast<std::size_t>(std::min(b, kHistogramBuckets - 1));
}

/// Walk counters (the live record of WalkStats), or a snapshot, sum or
/// delta.
struct WalkCounters {
  using Histogram = std::array<std::uint64_t, kHistogramBuckets>;

  std::uint64_t space_cuts = 0;      ///< hyperspace/dim cuts applied
  std::uint64_t time_cuts = 0;       ///< time halvings applied
  std::uint64_t base_interior = 0;   ///< base-case zoids run on the interior clone
  std::uint64_t base_boundary = 0;   ///< base-case zoids run on the boundary clone
  std::uint64_t loops_steps = 0;     ///< whole time steps run by the loops engine
  std::uint64_t points_interior = 0; ///< points updated in interior base cases
  std::uint64_t points_boundary = 0; ///< points updated in boundary base cases
  std::uint64_t points_loops = 0;    ///< points updated by the loops engine
  std::uint64_t points_checked = 0;  ///< points run checked by the boundary clone
  Histogram zoid_points_hist{};      ///< base zoid volume, log2 buckets
  Histogram zoid_height_hist{};      ///< base zoid height, log2 buckets

  template <typename F>
  static void fields(F&& f) {
    f("space_cuts", &WalkCounters::space_cuts);
    f("time_cuts", &WalkCounters::time_cuts);
    f("base_interior", &WalkCounters::base_interior);
    f("base_boundary", &WalkCounters::base_boundary);
    f("loops_steps", &WalkCounters::loops_steps);
    f("points_interior", &WalkCounters::points_interior);
    f("points_boundary", &WalkCounters::points_boundary);
    f("points_loops", &WalkCounters::points_loops);
    f("points_checked", &WalkCounters::points_checked);
    f("zoid_points_hist", &WalkCounters::zoid_points_hist);
    f("zoid_height_hist", &WalkCounters::zoid_height_hist);
  }

  [[nodiscard]] std::uint64_t points_total() const {
    return points_interior + points_boundary + points_loops;
  }
  [[nodiscard]] std::uint64_t base_cases() const {
    return base_interior + base_boundary;
  }
};

/// Thread-safe walk-counter sink: the live WalkCounters record, added to
/// at zoid or time-step granularity — the inner row loops never see a
/// counter.  Walkers reach it through WalkContext::stats (nullptr = off).
/// Not copyable: walkers on other threads hold its address.
class WalkStats {
 public:
  WalkStats() = default;
  WalkStats(const WalkStats&) = delete;
  WalkStats& operator=(const WalkStats&) = delete;

  void on_space_cut() { add(live_.space_cuts); }
  void on_time_cut() { add(live_.time_cuts); }

  /// One base-case zoid handed to a kernel clone; `points` is its exact
  /// space-time volume.
  void on_base(std::uint64_t points, std::int64_t height, bool interior) {
    add(interior ? live_.base_interior : live_.base_boundary);
    add(interior ? live_.points_interior : live_.points_boundary, points);
    add(live_.zoid_points_hist[log2_bucket(points)]);
    add(live_.zoid_height_hist[log2_bucket(
        height > 0 ? static_cast<std::uint64_t>(height) : 0)]);
  }

  /// One whole time step completed by the loops engine (`points` = spatial
  /// grid volume).
  void on_loops_step(std::uint64_t points) {
    add(live_.loops_steps);
    add(live_.points_loops, points);
  }

  /// The checked points of one boundary base case (make_boundary_base):
  /// its flanks and the rows within reach of the grid edge.
  void on_checked_points(std::uint64_t points) {
    add(live_.points_checked, points);
  }

  [[nodiscard]] WalkCounters snapshot() const { return load(live_); }

 private:
  WalkCounters live_;
};

/// The process-wide walk-stat sink.  Stencil::context() attaches it to the
/// WalkContext whenever telemetry::enabled(); sessions read deltas of its
/// snapshot, so concurrent runs aggregate rather than clobber.
inline WalkStats& walk_stats() {
  static WalkStats stats;
  return stats;
}

}  // namespace pochoir::telemetry
