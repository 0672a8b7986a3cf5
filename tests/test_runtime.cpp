// Tests for the work-stealing runtime (the Cilk substrate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_deque.hpp"
#include "support/error.hpp"

namespace pochoir::rt {
namespace {

TEST(TaskDeque, OwnerPushPopLifo) {
  TaskDeque dq(4);  // force growth
  std::vector<Task*> fake;
  for (int i = 0; i < 100; ++i) {
    fake.push_back(reinterpret_cast<Task*>(static_cast<std::uintptr_t>(i + 1)));
  }
  for (Task* t : fake) dq.push(t);
  for (int i = 99; i >= 0; --i) EXPECT_EQ(dq.pop(), fake[static_cast<std::size_t>(i)]);
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(TaskDeque, StealTakesOldest) {
  TaskDeque dq;
  auto* t1 = reinterpret_cast<Task*>(std::uintptr_t{1});
  auto* t2 = reinterpret_cast<Task*>(std::uintptr_t{2});
  dq.push(t1);
  dq.push(t2);
  EXPECT_EQ(dq.steal(), t1);
  EXPECT_EQ(dq.pop(), t2);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(ParallelFor, SumsRange) {
  std::vector<std::int64_t> data(100000, 1);
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, static_cast<std::int64_t>(data.size()), 0,
               [&](std::int64_t i) {
                 sum.fetch_add(data[static_cast<std::size_t>(i)],
                               std::memory_order_relaxed);
               });
  EXPECT_EQ(sum.load(), 100000);
}

TEST(ParallelFor, EmptyAndSingle) {
  int count = 0;
  parallel_for(5, 5, 0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(5, 6, 0, [&](std::int64_t i) {
    EXPECT_EQ(i, 5);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, EveryIndexExactlyOnce) {
  constexpr std::int64_t n = 50000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, 7, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelInvoke, BothRun) {
  std::atomic<int> flags{0};
  parallel_invoke([&] { flags.fetch_or(1); }, [&] { flags.fetch_or(2); });
  EXPECT_EQ(flags.load(), 3);
  flags = 0;
  parallel_invoke([&] { flags.fetch_or(1); }, [&] { flags.fetch_or(2); },
                  [&] { flags.fetch_or(4); });
  EXPECT_EQ(flags.load(), 7);
}

std::int64_t parallel_fib(int n) {
  if (n < 2) return n;
  if (n < 12) {  // serial cutoff
    return parallel_fib(n - 1) + parallel_fib(n - 2);
  }
  std::int64_t a = 0, b = 0;
  parallel_invoke([&] { a = parallel_fib(n - 1); },
                  [&] { b = parallel_fib(n - 2); });
  return a + b;
}

TEST(Scheduler, NestedForkJoinFib) {
  EXPECT_EQ(parallel_fib(24), 46368);
}

TEST(Scheduler, DeepNestedParallelFor) {
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 64, 1, [&](std::int64_t) {
    parallel_for(0, 64, 1, [&](std::int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64 * 64);
}

TEST(Scheduler, ManySmallGroups) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    TaskGroup g;
    for (int i = 0; i < 8; ++i) g.spawn([&] { n.fetch_add(1); });
    g.wait();
    ASSERT_EQ(n.load(), 8);
  }
}

TEST(Scheduler, SetNumThreadsRefusedOnceRunning) {
  const int threads = Scheduler::instance().num_threads();
  EXPECT_FALSE(Scheduler::set_num_threads(threads + 1));
  EXPECT_EQ(Scheduler::instance().num_threads(), threads);
}

TEST(Scheduler, SetNumThreadsRejectsNonPositive) {
  EXPECT_THROW(Scheduler::set_num_threads(0), pochoir::Error);
  EXPECT_THROW(Scheduler::set_num_threads(-2), pochoir::Error);
}

TEST(Policies, SerialPolicyRunsInline) {
  SerialPolicy pol;
  std::vector<int> order;
  pol.for_all(3, [&](std::int64_t i) { order.push_back(10 + static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[2], 12);
}

TEST(Policies, ParallelPolicyCompletesAll) {
  ParallelPolicy pol;
  std::atomic<int> n{0};
  pol.for_all(100, [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
  std::atomic<int> m{0};
  pol.for_range(10, 110, 0, [&](std::int64_t) { m.fetch_add(1); });
  EXPECT_EQ(m.load(), 100);
}

}  // namespace
}  // namespace pochoir::rt
