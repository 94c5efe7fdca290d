#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace slmob {

ThreadPool::ThreadPool(std::size_t concurrency) {
  if (concurrency > kMaxConcurrency) {
    throw std::invalid_argument("ThreadPool: concurrency " + std::to_string(concurrency) +
                                " exceeds the cap of " + std::to_string(kMaxConcurrency));
  }
  if (concurrency == 0) concurrency = default_concurrency();
  workers_.reserve(concurrency - 1);
  for (std::size_t i = 0; i + 1 < concurrency; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_concurrency() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw > 0 ? static_cast<std::size_t>(hw_raw) : 1;
  if (const char* env = std::getenv("SLMOB_THREADS")) {
    const long long parsed = parse_non_negative_int(env);
    // Clamp to the core count: oversubscribing the default pool only adds
    // context-switch overhead. An explicit ThreadPool(n) still honours n.
    if (parsed > 0) return std::min(static_cast<std::size_t>(parsed), hw);
  }
  return hw;
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace slmob
