// Fork–join work-stealing scheduler: the Cilk Plus substrate of the paper.
//
// The paper's algorithms are expressed with spawn/sync (cilk_spawn) and
// parallel loops (cilk_for).  Both are loops over independent pieces here:
// a TaskGroup supports spawn() + wait() fork-join regions over tasks that
// live in the spawning frame, and parallel.hpp's parallel_for_chunks is the
// one place a parallel region becomes such tasks.
//
// Architecture: one worker thread per core (configurable), each owning a
// Chase–Lev deque.  Owners push/pop LIFO for locality; idle workers steal
// FIFO from victims chosen round-robin.  Threads not registered with the
// pool (e.g. the program main thread) submit through a shared injection
// queue and help execute while waiting, so fork-join calls work from any
// thread without deadlock.
//
// Telemetry: each worker owns a live telemetry::SchedulerCounters record in
// its slot, and the threads outside the pool share one; counters() sums
// relaxed loads of them while the workers keep adding.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task_deque.hpp"
#include "support/assertion.hpp"
#include "telemetry/stats.hpp"

namespace pochoir::rt {

class TaskGroup;

/// Type-erased unit of work.  Every task lives in the frame that spawns it
/// (TaskGroup::spawn), which owns it until the group's wait() returns.
class Task {
 public:
  /// Runs the payload and notifies the owning group.  `this` is dead after
  /// the call: the spawning frame may reclaim it the moment finish_one()
  /// lets its wait() return.
  void run_and_release();

 protected:
  ~Task() = default;  // the scheduler never deletes a task
  virtual void invoke() = 0;

 private:
  friend class TaskGroup;
  TaskGroup* group_ = nullptr;
};

/// Global work-stealing thread pool.  Created lazily on first use.
class Scheduler {
 public:
  /// The process-wide scheduler instance.
  static Scheduler& instance();

  /// Overrides the worker count for schedulers created after this call.
  /// Must be called before first use of instance(); returns false, and
  /// changes nothing, once the scheduler exists.  Throws pochoir::Error
  /// if n < 1.
  static bool set_num_threads(int n);

  /// Number of worker threads (>= 1).
  [[nodiscard]] int num_threads() const { return num_workers_; }

  /// Enqueue a task: locally if the caller is a worker, otherwise injected.
  void submit(Task* task);

  /// Try to acquire one runnable task from anywhere (own deque, steals,
  /// injection queue).  Returns nullptr if nothing was found right now.
  Task* try_acquire();

  /// Wake workers that may be parked; called after submitting work.
  void notify();

  /// Aggregated scheduler telemetry across all workers plus external
  /// (non-pool) threads.  Counters only advance while telemetry::enabled().
  [[nodiscard]] telemetry::SchedulerCounters counters() const;

  /// counters() of the live scheduler instance, or zeros if no scheduler
  /// has been created yet — telemetry snapshots must not force the thread
  /// pool into existence.
  [[nodiscard]] static telemetry::SchedulerCounters counters_now();

  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 private:
  friend class TaskGroup;

  struct WorkerSlot {
    TaskDeque deque;
    std::uint64_t steal_seed = 0;
    /// This worker's live counters, on a cache line of their own.
    alignas(64) telemetry::SchedulerCounters stats;
  };

  explicit Scheduler(int num_workers);
  void worker_main(int index);
  Task* try_steal(std::uint64_t& seed);
  Task* pop_injected();
  /// Live counters of the calling thread: its worker slot's, or the
  /// shared record of threads outside the pool.
  telemetry::SchedulerCounters& caller_stats();

  int num_workers_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> threads_;

  std::mutex inject_mutex_;
  std::vector<Task*> injected_;
  std::atomic<std::int64_t> injected_count_{0};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<bool> shutting_down_{false};

  /// Live counters of the threads that are not pool workers (the program
  /// main thread and anything else calling in from outside), on a cache
  /// line of their own.
  alignas(64) telemetry::SchedulerCounters external_stats_;

  static std::atomic<int> requested_threads_;
  static std::atomic<Scheduler*> live_instance_;
};

/// Fork–join region: spawn() forks tasks, wait() joins them while helping
/// execute pending work (the caller never blocks idly while work exists).
///
/// Abort propagation: a task payload that throws does not take down its
/// worker thread — the first exception is captured into the group and
/// rethrown from wait() on the joining thread, unwinding the fork-join
/// region exactly like a serial call would.  Later exceptions in the same
/// region are dropped (first-failure-wins); queued tasks still run to
/// completion so stack-resident storage stays valid.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup() { POCHOIR_ASSERT(pending_.load() == 0); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork `task` to run asynchronously within this group.  Its storage
  /// must outlive this group's wait(); nothing is allocated per fork.
  void spawn(Task* task) {
    task->group_ = this;
    pending_.fetch_add(1, std::memory_order_relaxed);
    Scheduler::instance().submit(task);
  }

  /// Join: executes pending work until every spawned task has finished,
  /// then rethrows the first exception captured from a task, if any.
  void wait();

  /// Join without rethrowing (used when the caller already holds its own
  /// exception and only needs stack-resident task storage to quiesce).
  void wait_quiet();

  /// Called by Task on completion.
  void finish_one() { pending_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Stores the first exception thrown by a task in this group.
  void capture_exception(std::exception_ptr e) noexcept;

  /// Rethrows the captured exception, if any (cleared afterwards).
  void rethrow_any();

 private:
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> has_error_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace pochoir::rt
