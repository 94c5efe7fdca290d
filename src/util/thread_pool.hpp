// Fixed-size worker pool with deterministic parallel-for/map helpers.
//
// The analysis pipeline fans independent work (per-range contact extraction,
// per-snapshot graph metrics, multi-seed experiment sweeps) across a pool of
// worker threads. Two properties matter more than raw throughput:
//
//  * Determinism: parallel_map writes result i to slot i, and parallel_for
//    hands out indices in order, so outputs are bit-identical for any
//    concurrency (1 worker, 8 workers, or the caller alone).
//  * Nestability: a task running on a pool worker may itself call
//    parallel_for on the same pool. The calling thread always participates
//    in draining its own work items, so a saturated pool cannot deadlock —
//    helper tasks that never get scheduled are harmless no-ops.
//
// Concurrency is the total number of threads doing work during a
// parallel_for, *including* the caller: ThreadPool(1) spawns no workers and
// runs everything sequentially on the calling thread; ThreadPool(4) spawns
// 3 workers. ThreadPool(0) uses default_concurrency(), which honours the
// SLMOB_THREADS environment variable and falls back to
// std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slmob {

class ThreadPool {
 public:
  // Upper bound on an explicit concurrency: far above any host this runs on,
  // low enough that a typo cannot ask the OS for thousands of threads.
  static constexpr std::size_t kMaxConcurrency = 256;

  // `concurrency` counts the caller: n means n-1 background workers. 0 means
  // default_concurrency(). Throws std::invalid_argument above
  // kMaxConcurrency, before any worker starts.
  explicit ThreadPool(std::size_t concurrency = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency during a parallel_for (workers + caller), >= 1.
  [[nodiscard]] std::size_t concurrency() const { return workers_.size() + 1; }

  // SLMOB_THREADS if set to a positive integer — clamped to
  // hardware_concurrency() so a stale env var cannot oversubscribe the
  // machine — else hardware_concurrency() (>= 1). A malformed value such as
  // "4x" is ignored. An explicit ThreadPool(n) is never clamped.
  static std::size_t default_concurrency();

  // Enqueues a task for a worker. With concurrency 1 (no workers) the task
  // runs inline. Prefer parallel_for / parallel_map for fan-out work.
  void submit(std::function<void()> task);

 private:
  template <typename Fn>
  friend void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_{false};
};

namespace detail {

// Shared state of one parallel_for. Kept alive by shared_ptr because helper
// tasks may be scheduled after the caller has already drained all work.
struct ParallelForState {
  explicit ParallelForState(std::size_t total) : n(total) {}
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t running_helpers{0};  // guarded by mutex
  std::exception_ptr error;        // guarded by mutex; first error wins
};

}  // namespace detail

// Calls fn(i) exactly once for every i in [0, n). Blocks until all calls have
// completed. The caller participates in the work, so nesting on the same pool
// is safe. The first exception thrown by fn cancels remaining indices and is
// rethrown here.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  // With no workers (or a single item) the caller drains everything alone;
  // skip the shared-state allocation and synchronisation. The streaming
  // engine calls parallel_for once per snapshot, so the constant matters.
  if (pool.concurrency() == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<detail::ParallelForState>(n);
  const auto drain = [state, &fn]() {
    for (std::size_t i = state->next.fetch_add(1); i < state->n;
         i = state->next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
        state->next.store(state->n);  // cancel indices not yet claimed
      }
    }
  };

  // One helper per worker, capped by the number of work items. Each helper
  // registers before claiming indices, so once the caller sees
  // running_helpers == 0 after its own drain, no fn call is still in flight.
  const std::size_t helpers =
      std::min(pool.concurrency() - 1, n > 1 ? n - 1 : std::size_t{0});
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state, drain]() {
      {
        const std::lock_guard<std::mutex> lock(state->mutex);
        ++state->running_helpers;
      }
      drain();
      {
        const std::lock_guard<std::mutex> lock(state->mutex);
        --state->running_helpers;
      }
      state->cv.notify_all();
    });
  }

  drain();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] { return state->running_helpers == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

// Maps [0, n) through fn into a vector with results in index order,
// independent of scheduling. T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace slmob
