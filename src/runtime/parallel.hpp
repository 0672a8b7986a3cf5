// Structured parallelism on top of the scheduler: the cilk_spawn / cilk_for
// equivalents used by the stencil algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "runtime/scheduler.hpp"

namespace pochoir::rt {

namespace detail {

/// Task whose payload lives in the spawning frame: zero heap traffic per
/// fork.  The spawning scope must TaskGroup::wait() before the referenced
/// callable (and this task) go out of scope.
template <typename F>
class StackTask final : public Task {
 public:
  StackTask(TaskGroup* group, F& f)
      : Task(group, /*heap_allocated=*/false), f_(&f) {}

 protected:
  void invoke() override { (*f_)(); }

 private:
  F* f_;
};

/// Stack-resident task covering an index range [lo, hi) of a parallel
/// loop body.  Default-constructible so a fixed-capacity array of them can
/// sit in the spawning frame; assign() binds one before spawn_prepared().
template <typename Body>
class RangeTask final : public Task {
 public:
  RangeTask() : Task(nullptr, /*heap_allocated=*/false) {}

  void assign(TaskGroup* group, const Body* body, std::int64_t lo,
              std::int64_t hi) {
    set_group(group);
    body_ = body;
    lo_ = lo;
    hi_ = hi;
  }

 protected:
  void invoke() override {
    for (std::int64_t i = lo_; i < hi_; ++i) (*body_)(i);
  }

 private:
  const Body* body_ = nullptr;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

}  // namespace detail

/// Run two callables potentially in parallel; returns when both finish.
/// The forked task lives on this frame's stack — no allocation per fork.
/// If either callable throws, the other still completes before the first
/// exception propagates (stack-resident storage must quiesce first).
template <typename F0, typename F1>
void parallel_invoke(F0&& f0, F1&& f1) {
  if (Scheduler::instance().num_threads() == 1) {
    f0();
    f1();
    return;
  }
  TaskGroup group;
  detail::StackTask<std::remove_reference_t<F1>> t1(&group, f1);
  group.spawn_prepared(&t1);
  try {
    f0();
  } catch (...) {
    group.wait_quiet();
    throw;
  }
  group.wait();
}

/// Run three callables potentially in parallel.
template <typename F0, typename F1, typename F2>
void parallel_invoke(F0&& f0, F1&& f1, F2&& f2) {
  if (Scheduler::instance().num_threads() == 1) {
    f0();
    f1();
    f2();
    return;
  }
  TaskGroup group;
  detail::StackTask<std::remove_reference_t<F1>> t1(&group, f1);
  detail::StackTask<std::remove_reference_t<F2>> t2(&group, f2);
  group.spawn_prepared(&t1);
  group.spawn_prepared(&t2);
  try {
    f0();
  } catch (...) {
    group.wait_quiet();
    throw;
  }
  group.wait();
}

namespace detail {

template <typename Body>
void parallel_for_split(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                        const Body& body, TaskGroup& group) {
  while (hi - lo > grain) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    group.spawn([mid, hi, grain, &body, &group] {
      parallel_for_split(mid, hi, grain, body, group);
    });
    hi = mid;
  }
  for (std::int64_t i = lo; i < hi; ++i) body(i);
}

}  // namespace detail

/// Parallel loop over [lo, hi) with recursive binary splitting (span
/// Θ(lg n) like cilk_for).  `grain` is the maximum serial chunk; pass 0 to
/// auto-select ~8 chunks per worker.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                  const Body& body) {
  if (hi <= lo) return;
  const std::int64_t n = hi - lo;
  if (grain <= 0) {
    const std::int64_t workers = Scheduler::instance().num_threads();
    grain = n / (8 * workers);
    if (grain < 1) grain = 1;
  }
  if (n <= grain) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
    return;
  }
  TaskGroup group;
  try {
    detail::parallel_for_split(lo, hi, grain, body, group);
  } catch (...) {
    group.wait_quiet();
    throw;
  }
  group.wait();
}

/// Parallel loop with grain 1 over a small index range (used for the
/// subzoid buckets of a hyperspace cut, which are individually large).
/// All tasks live on this frame's stack: a bucket of n subzoids costs zero
/// heap allocations and at most kMaxInlineTasks spawns — beyond that,
/// indices are chunked so spawn count stays O(1) per bucket rather than
/// O(subzoids).
template <typename Body>
void parallel_for_each_index(std::int64_t n, const Body& body) {
  if (n <= 0) return;
  if (n == 1 || Scheduler::instance().num_threads() == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  // 3^3 covers every bucket of a <=3D hyperspace cut task-per-subzoid;
  // larger buckets (4D+) get contiguous chunks.
  constexpr std::int64_t kMaxInlineTasks = 27;
  const std::int64_t tasks = n < kMaxInlineTasks ? n : kMaxInlineTasks;
  TaskGroup group;
  std::array<detail::RangeTask<Body>, kMaxInlineTasks> storage;
  for (std::int64_t i = 1; i < tasks; ++i) {
    storage[static_cast<std::size_t>(i)].assign(&group, &body, i * n / tasks,
                                                (i + 1) * n / tasks);
    group.spawn_prepared(&storage[static_cast<std::size_t>(i)]);
  }
  // Chunk 0 runs inline on the calling thread.
  try {
    for (std::int64_t i = 0; i < n / tasks; ++i) body(i);
  } catch (...) {
    group.wait_quiet();
    throw;
  }
  group.wait();
}

/// Execution policy running everything serially (used for 1-core baselines
/// and for deterministic instrumented runs).
struct SerialPolicy {
  static constexpr bool is_parallel = false;

  template <typename Body>
  void for_all(std::int64_t n, const Body& body) const {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }

  template <typename Body>
  void for_range(std::int64_t lo, std::int64_t hi, std::int64_t /*grain*/,
                 const Body& body) const {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
};

/// Execution policy using the work-stealing pool.
struct ParallelPolicy {
  static constexpr bool is_parallel = true;

  template <typename Body>
  void for_all(std::int64_t n, const Body& body) const {
    parallel_for_each_index(n, body);
  }

  template <typename Body>
  void for_range(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                 const Body& body) const {
    parallel_for(lo, hi, grain, body);
  }
};

}  // namespace pochoir::rt
