#include "runtime/scheduler.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

#include "support/error.hpp"

namespace pochoir::rt {
namespace {

// Worker identity for the current thread: index into slots_, or -1 for
// threads not owned by the pool (e.g. the program main thread).
thread_local int tls_worker_index = -1;

// Cheap thread-local generator for victim selection.
std::uint64_t next_seed(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

int env_thread_count() {
  if (const char* env = std::getenv("POCHOIR_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Calibrated pause loop; cheaper than sched_yield storms when the machine
// is fully subscribed.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Telemetry increments are fully guarded so the disabled path costs one
// relaxed load; the counters themselves are relaxed adds to thread-owned
// cache lines.
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  if (telemetry::enabled()) counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

std::atomic<int> Scheduler::requested_threads_{0};
std::atomic<Scheduler*> Scheduler::live_instance_{nullptr};

void Task::run_and_release() {
  TaskGroup* group = group_;
  try {
    invoke();
  } catch (...) {
    // A throwing payload must not unwind into the worker loop (that would
    // terminate the process); park the exception in the group, which
    // rethrows it from wait() on the joining thread.
    group->capture_exception(std::current_exception());
  }
  // finish_one() must come last: it is the signal that lets the spawning
  // frame's wait() return and reclaim the storage, so `this` must not be
  // touched afterwards.
  group->finish_one();
}

Scheduler& Scheduler::instance() {
  static Scheduler scheduler(requested_threads_.load() > 0
                                 ? requested_threads_.load()
                                 : env_thread_count());
  return scheduler;
}

bool Scheduler::set_num_threads(int n) {
  pochoir::detail::check_usage(n >= 1, "thread count must be >= 1");
  if (live_instance_.load(std::memory_order_acquire) != nullptr) return false;
  requested_threads_.store(n);
  return true;
}

Scheduler::Scheduler(int num_threads) : num_workers_(num_threads) {
  // The calling thread participates in every fork-join region via
  // TaskGroup::wait(), so the pool only needs P-1 dedicated workers;
  // spawning P would oversubscribe the machine with spinning helpers.
  const int pool = num_workers_ > 1 ? num_workers_ - 1 : 0;
  slots_.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    auto slot = std::make_unique<WorkerSlot>();
    slot->steal_seed = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    slots_.push_back(std::move(slot));
  }
  threads_.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
  live_instance_.store(this, std::memory_order_release);
}

Scheduler::~Scheduler() {
  live_instance_.store(nullptr, std::memory_order_release);
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    work_epoch_.fetch_add(1, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

telemetry::WorkerStats& Scheduler::caller_stats() {
  const int index = tls_worker_index;
  return index >= 0 ? slots_[static_cast<std::size_t>(index)]->stats
                    : external_stats_;
}

telemetry::SchedulerCounters Scheduler::counters() const {
  telemetry::SchedulerCounters total;
  for (const auto& slot : slots_) total += slot->stats;
  total += external_stats_;
  return total;
}

telemetry::SchedulerCounters Scheduler::counters_now() {
  Scheduler* live = live_instance_.load(std::memory_order_acquire);
  return live != nullptr ? live->counters() : telemetry::SchedulerCounters{};
}

void Scheduler::submit(Task* task) {
  bump(caller_stats().spawns);
  const int index = tls_worker_index;
  if (index >= 0) {
    slots_[static_cast<std::size_t>(index)]->deque.push(task);
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    injected_.push_back(task);
    injected_count_.fetch_add(1, std::memory_order_release);
  }
  notify();
}

void Scheduler::notify() {
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      work_epoch_.fetch_add(1, std::memory_order_release);
    }
    park_cv_.notify_all();
  } else {
    work_epoch_.fetch_add(1, std::memory_order_release);
  }
}

Task* Scheduler::pop_injected() {
  if (injected_count_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inject_mutex_);
  if (injected_.empty()) return nullptr;
  Task* task = injected_.back();
  injected_.pop_back();
  injected_count_.fetch_sub(1, std::memory_order_release);
  return task;
}

Task* Scheduler::try_steal(std::uint64_t& seed) {
  // Two sweeps over random victims, then give up for this round.
  const int n = static_cast<int>(slots_.size());
  if (n == 0) return nullptr;
  for (int attempt = 0; attempt < 2 * n; ++attempt) {
    const int victim = static_cast<int>(next_seed(seed) % static_cast<std::uint64_t>(n));
    if (victim == tls_worker_index) continue;
    if (Task* task = slots_[static_cast<std::size_t>(victim)]->deque.steal()) {
      bump(caller_stats().steals);
      return task;
    }
  }
  bump(caller_stats().failed_steals);
  return nullptr;
}

Task* Scheduler::try_acquire() {
  const int index = tls_worker_index;
  if (index >= 0) {
    if (Task* task = slots_[static_cast<std::size_t>(index)]->deque.pop()) {
      return task;
    }
    if (Task* task = try_steal(slots_[static_cast<std::size_t>(index)]->steal_seed)) {
      return task;
    }
    return pop_injected();
  }
  // External thread: help via the injection queue first, then steal.
  if (Task* task = pop_injected()) return task;
  thread_local std::uint64_t seed = 0xdeadbeefcafef00dULL;
  return try_steal(seed);
}

void Scheduler::worker_main(int index) {
  tls_worker_index = index;
  WorkerSlot& slot = *slots_[static_cast<std::size_t>(index)];
  int idle_spins = 0;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    Task* task = slot.deque.pop();
    if (task == nullptr) task = try_steal(slot.steal_seed);
    if (task == nullptr) task = pop_injected();
    if (task != nullptr) {
      idle_spins = 0;
      bump(slot.stats.tasks_run);
      task->run_and_release();
      continue;
    }
    if (++idle_spins < 1024) {
      bump(slot.stats.idle_spins);
      cpu_relax();
      continue;
    }
    // Park until the work epoch advances (two-phase to avoid lost wakeups).
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
    if (slot.deque.approx_size() > 0 ||
        injected_count_.load(std::memory_order_acquire) > 0) {
      continue;
    }
    bump(slot.stats.parks);
    std::unique_lock<std::mutex> lock(park_mutex_);
    sleepers_.fetch_add(1, std::memory_order_acq_rel);
    park_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
      return work_epoch_.load(std::memory_order_acquire) != epoch ||
             shutting_down_.load(std::memory_order_acquire);
    });
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
    idle_spins = 0;
  }
  // Drain: finish any work left so no TaskGroup waits forever at shutdown.
  while (true) {
    Task* task = slot.deque.pop();
    if (task == nullptr) task = pop_injected();
    if (task == nullptr) break;
    bump(slot.stats.tasks_run);
    task->run_and_release();
  }
  tls_worker_index = -1;
}

void TaskGroup::wait_quiet() {
  Scheduler& scheduler = Scheduler::instance();
  int idle_spins = 0;
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (Task* task = scheduler.try_acquire()) {
      idle_spins = 0;
      bump(scheduler.caller_stats().tasks_run);
      task->run_and_release();
    } else if (++idle_spins < 2048) {
      cpu_relax();
    } else {
      // All our tasks are in flight on other workers.
      std::this_thread::yield();
      idle_spins = 0;
    }
  }
}

void TaskGroup::wait() {
  wait_quiet();
  rethrow_any();
}

void TaskGroup::capture_exception(std::exception_ptr e) noexcept {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) {
    error_ = std::move(e);
    has_error_.store(true, std::memory_order_release);
  }
}

void TaskGroup::rethrow_any() {
  if (!has_error_.load(std::memory_order_acquire)) return;
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    e = std::move(error_);
    error_ = nullptr;
    has_error_.store(false, std::memory_order_release);
  }
  if (e) std::rethrow_exception(e);
}

}  // namespace pochoir::rt
