// Structured parallelism on top of the scheduler: the one fork shape the
// stencil algorithms use.  TRAP spawns the subzoids of one dependency level
// (Lemma 1) and the loop baseline is a cilk_for over the outermost
// dimension (Figure 1); both are loops over independent pieces, so
// parallel_for_chunks is the only place a parallel region becomes tasks.
#pragma once

#include <array>
#include <cstdint>

#include "runtime/scheduler.hpp"

namespace pochoir::rt {

/// Most chunks one parallel loop is split into: one task per subzoid for
/// every level of a hyperspace cut up to 4D (at most 32 subzoids), and 8
/// chunks per worker for the loops engine on a 4-core host.
inline constexpr std::int64_t kMaxChunks = 32;

namespace detail {

/// One chunk [lo, hi) of a parallel loop, stored in the spawning frame.
template <typename Body>
class ChunkTask final : public Task {
 public:
  void assign(const Body* body, std::int64_t lo, std::int64_t hi) {
    body_ = body;
    lo_ = lo;
    hi_ = hi;
  }

 protected:
  void invoke() override { (*body_)(lo_, hi_); }

 private:
  const Body* body_ = nullptr;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

}  // namespace detail

/// Calls body(chunk_lo, chunk_hi) on contiguous chunks tiling [lo, hi): at
/// most kMaxChunks of them, each at least `grain` long (a grain below 1
/// counts as 1).  Chunk 0 runs on the calling thread and the others as
/// tasks in this frame, so a fork allocates nothing; with one thread the
/// whole range is one chunk.  If a chunk throws, every other chunk still
/// finishes before the first exception propagates, because the task
/// storage must quiesce before the frame unwinds.
template <typename Body>
void parallel_for_chunks(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                         const Body& body) {
  const std::int64_t n = hi - lo;
  if (n <= 0) return;
  std::int64_t chunks = grain > 1 ? n / grain : n;
  if (chunks > kMaxChunks) chunks = kMaxChunks;
  if (chunks <= 1 || Scheduler::instance().num_threads() == 1) {
    body(lo, hi);
    return;
  }
  const auto bound = [&](std::int64_t i) { return lo + i * n / chunks; };
  TaskGroup group;
  std::array<detail::ChunkTask<Body>, kMaxChunks - 1> tasks;  // chunks 1..
  for (std::int64_t i = 1; i < chunks; ++i) {
    auto& task = tasks[static_cast<std::size_t>(i - 1)];
    task.assign(&body, bound(i), bound(i + 1));
    group.spawn(&task);
  }
  try {
    body(lo, bound(1));
  } catch (...) {
    group.wait_quiet();
    throw;
  }
  group.wait();
}

/// Parallel loop calling body(i) for every i in [lo, hi), chunked as
/// parallel_for_chunks does.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                  const Body& body) {
  parallel_for_chunks(lo, hi, grain, [&body](std::int64_t a, std::int64_t b) {
    for (std::int64_t i = a; i < b; ++i) body(i);
  });
}

/// Execution policy running everything on the calling thread (1-core
/// baselines and deterministic instrumented runs): a loop is one chunk.
struct SerialPolicy {
  template <typename Body>
  void for_chunks(std::int64_t n, const Body& body) const {
    if (n > 0) body(0, n);
  }
};

/// Execution policy using the work-stealing pool.
struct ParallelPolicy {
  template <typename Body>
  void for_chunks(std::int64_t n, const Body& body) const {
    parallel_for_chunks(0, n, 1, body);
  }
};

}  // namespace pochoir::rt
