// Tests for the work-stealing runtime (the Cilk substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
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

TEST(ParallelFor, ChunksTileTheRange) {
  const bool pool = Scheduler::instance().num_threads() > 1;
  constexpr std::int64_t lo = 17;
  for (const std::int64_t n : {1, 5, 31, 32, 33, 1000}) {
    for (const std::int64_t grain : {0, 1, 7, 2000}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " grain " << grain);
      std::mutex mutex;
      std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
      parallel_for_chunks(lo, lo + n, grain,
                          [&](std::int64_t a, std::int64_t b) {
                            std::lock_guard<std::mutex> lock(mutex);
                            chunks.emplace_back(a, b);
                          });
      std::sort(chunks.begin(), chunks.end());
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(static_cast<std::int64_t>(chunks.size()), kMaxChunks);
      if (pool) {
        // The fan-out itself: as many chunks as the grain allows, up to
        // kMaxChunks.
        const std::int64_t fit = n / std::max<std::int64_t>(grain, 1);
        EXPECT_EQ(static_cast<std::int64_t>(chunks.size()),
                  std::clamp<std::int64_t>(fit, 1, kMaxChunks));
      }
      std::int64_t next = lo;  // disjoint and covering [lo, lo + n)
      for (const auto& [a, b] : chunks) {
        EXPECT_EQ(a, next);
        EXPECT_LT(a, b);
        if (chunks.size() > 1) {
          EXPECT_GE(b - a, grain);
        }
        next = b;
      }
      EXPECT_EQ(next, lo + n);
    }
  }

  // A throw in chunk 0 (inline) or in the last chunk (a task) propagates,
  // but only once every other chunk has finished: their task storage lives
  // in the frame the exception unwinds.
  const int others = pool ? static_cast<int>(kMaxChunks) - 1 : 0;
  for (const bool inline_chunk : {true, false}) {
    constexpr std::int64_t n = 64;
    std::atomic<int> finished{0};
    EXPECT_THROW(
        parallel_for_chunks(0, n, 1,
                            [&](std::int64_t a, std::int64_t b) {
                              if (inline_chunk ? a == 0 : b == n) {
                                throw Error("chunk boom");
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                              finished.fetch_add(1);
                            }),
        Error);
    EXPECT_EQ(finished.load(), others) << "inline chunk " << inline_chunk;
  }
}

std::int64_t parallel_fib(int n) {
  if (n < 2) return n;
  if (n < 12) {  // serial cutoff
    return parallel_fib(n - 1) + parallel_fib(n - 2);
  }
  std::int64_t r[2] = {0, 0};
  parallel_for(0, 2, 1, [&](std::int64_t i) {
    r[i] = parallel_fib(n - 1 - static_cast<int>(i));
  });
  return r[0] + r[1];
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
    parallel_for(0, 8, 1, [&](std::int64_t) { n.fetch_add(1); });
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
  pol.for_chunks(3, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      order.push_back(10 + static_cast<int>(i));
    }
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[2], 12);
}

TEST(Policies, ParallelPolicyCompletesAll) {
  ParallelPolicy pol;
  std::atomic<int> n{0};
  pol.for_chunks(100, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) n.fetch_add(1);
  });
  EXPECT_EQ(n.load(), 100);
  std::atomic<std::int64_t> m{0};
  pol.for_chunks(100, [&](std::int64_t lo, std::int64_t hi) {
    m.fetch_add(hi - lo);
  });
  EXPECT_EQ(m.load(), 100);
}

}  // namespace
}  // namespace pochoir::rt
