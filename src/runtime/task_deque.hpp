// Chase–Lev work-stealing deque.
//
// Implements the lock-free deque of Chase & Lev (SPAA 2005) with the memory
// orderings from Lê, Pop, Cohen, Zappa Nardelli, "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP 2013).  The owner pushes and
// pops at the bottom; thieves steal from the top.  Buffers grow by doubling
// and retired buffers are kept until destruction so racing thieves never
// observe freed memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace pochoir::rt {

class Task;  // defined in scheduler.hpp

/// Single-owner, multi-thief deque of Task pointers.
class TaskDeque {
 public:
  explicit TaskDeque(std::int64_t initial_capacity = 256)
      : buffer_(new Buffer(initial_capacity)) {
    retired_.emplace_back(buffer_.load(std::memory_order_relaxed));
  }

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner-only: push a task at the bottom.
  void push(Task* task) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > buf->capacity - 1) {
      buf = grow(buf, b, t);
    }
    buf->put(b, task);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner-only: pop the most recently pushed task, or nullptr if empty.
  Task* pop() {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    Task* task = nullptr;
    if (t <= b) {
      task = buf->get(b);
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          task = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  /// Any thread: steal the oldest task, or nullptr if empty or lost a race.
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    Task* task = nullptr;
    if (t < b) {
      Buffer* buf = buffer_.load(std::memory_order_acquire);
      task = buf->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;  // lost the race; caller may retry elsewhere
      }
    }
    return task;
  }

  /// Approximate size; used only for heuristics, never for correctness.
  [[nodiscard]] std::int64_t approx_size() const {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  struct Buffer {
    explicit Buffer(std::int64_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<Task*>[cap]) {}
    const std::int64_t capacity;
    const std::int64_t mask;  // capacity is always a power of two
    std::unique_ptr<std::atomic<Task*>[]> slots;

    // The fences in push() and steal() already order each hand-off, but
    // ThreadSanitizer does not model fences: release/acquire on the slot
    // is what lets it see a task's contents published to its taker.
    Task* get(std::int64_t i) const {
      return slots[i & mask].load(std::memory_order_acquire);
    }
    void put(std::int64_t i, Task* task) {
      slots[i & mask].store(task, std::memory_order_release);
    }
  };

  Buffer* grow(Buffer* old, std::int64_t b, std::int64_t t) {
    auto grown = std::make_unique<Buffer>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) grown->put(i, old->get(i));
    Buffer* raw = grown.get();
    retired_.push_back(std::move(grown));
    buffer_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  // Owner-only growth; old buffers stay alive for in-flight thieves.
  std::vector<std::unique_ptr<Buffer>> retired_;
};

}  // namespace pochoir::rt
