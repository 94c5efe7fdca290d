#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace slmob {
namespace {

TEST(ThreadPool, ConcurrencyCountsCaller) {
  const ThreadPool solo(1);
  EXPECT_EQ(solo.concurrency(), 1u);
  const ThreadPool four(4);
  EXPECT_EQ(four.concurrency(), 4u);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, DefaultConcurrencyClampsEnvToCoreCount) {
  // SLMOB_THREADS above the detected core count must not oversubscribe the
  // default pool (2 threads on 1 core benchmarked slower than 1).
  const char* saved = std::getenv("SLMOB_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw > 0 ? static_cast<std::size_t>(hw_raw) : 1;

  ASSERT_EQ(setenv("SLMOB_THREADS", "4096", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), hw);
  ASSERT_EQ(setenv("SLMOB_THREADS", "1", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), 1u);
  // Malformed values are ignored rather than read up to the first non-digit.
  ASSERT_EQ(setenv("SLMOB_THREADS", "1x", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), hw);

  if (saved != nullptr) {
    setenv("SLMOB_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("SLMOB_THREADS");
  }
}

TEST(ThreadPool, ExplicitConcurrencyIsNeverClamped) {
  // Tests and benches rely on real 2/4-thread pools even on 1-core hosts.
  const ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
}

TEST(ThreadPool, ConcurrencyAboveCapThrowsBeforeSpawning) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxConcurrency + 1), std::invalid_argument);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map<std::size_t>(pool, 1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(500);
  parallel_for(pool, visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  const auto out = parallel_map<int>(pool, 0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, SingleThreadPoolRunsSequentially) {
  ThreadPool pool(1);
  // With no workers, indices must be processed in order on the caller.
  std::vector<std::size_t> order;
  parallel_for(pool, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool(1);  // sequential => deterministic visit order
  std::size_t visited = 0;
  try {
    parallel_for(pool, 1000, [&](std::size_t i) {
      ++visited;
      if (i == 3) throw std::runtime_error("stop");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(visited, 4u);  // indices 0..3 ran, the rest were cancelled
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every outer task itself fans work on the same (small) pool — with all
  // workers busy on outer tasks, inner work must still complete via caller
  // participation.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  parallel_for(pool, 8, [&](std::size_t) {
    parallel_for(pool, 50, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8u * 50u);
}

TEST(ThreadPool, ParallelMapResultsIdenticalForAnyConcurrency) {
  const auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    return parallel_map<double>(pool, 257, [](std::size_t i) {
      return static_cast<double>(i) * 1.5 + 1.0;
    });
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPool, SubmitRunsTask) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(2);
    pool.submit([&] { ran = true; });
  }  // destructor drains the queue
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmitInlineWithoutWorkers) {
  ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ManyItemsFewThreads) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(pool, 10000, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2L);
}

}  // namespace
}  // namespace slmob
