#ifndef JOCL_UTIL_WORKER_POOL_H_
#define JOCL_UTIL_WORKER_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

namespace jocl {

/// \brief \p num_threads with 0 resolved to one per hardware thread.
inline size_t ResolveThreadCount(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// \brief Runs `task(i)` for every i in [0, count) on \p num_threads
/// workers, heaviest first per \p weight_of — the shared work-queue of
/// the sharded runtime, session and learner.
///
/// Tasks are drained from one atomic queue sorted by descending
/// weight_of(i) (ties to the lower index) so stragglers start early;
/// num_threads <= 1 degenerates to a plain sequential loop in queue
/// order. Execution order and thread assignment are scheduling-only:
/// callers' tasks must write to disjoint state (as shard scatters and
/// per-component learners do), which is what keeps every runtime's
/// output byte-identical for any thread count.
template <typename Weight, typename Task>
void RunOnPool(size_t count, size_t num_threads, Weight&& weight_of,
               Task&& task) {
  std::vector<size_t> queue(count);
  std::iota(queue.begin(), queue.end(), 0);
  std::sort(queue.begin(), queue.end(), [&](size_t a, size_t b) {
    const size_t wa = weight_of(a);
    const size_t wb = weight_of(b);
    if (wa != wb) return wa > wb;
    return a < b;
  });
  num_threads = std::min(num_threads, std::max<size_t>(1, count));
  if (num_threads <= 1) {
    for (size_t i : queue) task(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i; (i = next.fetch_add(1)) < queue.size();) {
      task(queue[i]);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) threads.emplace_back(worker);
  for (auto& thread : threads) thread.join();
}

}  // namespace jocl

#endif  // JOCL_UTIL_WORKER_POOL_H_
