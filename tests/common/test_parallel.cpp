#include "adaflow/common/parallel.hpp"

#include "adaflow/common/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace adaflow {
namespace {

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SingleIterationRunsInline) {
  int value = 0;
  parallel_for(1, [&](std::int64_t i) { value = static_cast<int>(i) + 42; });
  EXPECT_EQ(value, 42);
}

TEST(Parallel, RepeatedInvocationsAreStable) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(Parallel, WorkerCountIsPositive) { EXPECT_GE(parallel_worker_count(), 1); }

TEST(Parallel, ExceptionInAnyIterationReachesTheCaller) {
  set_worker_count(4);
  // Iterations on the calling thread wait until a worker thread has thrown,
  // so the exception that must surface is a worker's.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  EXPECT_THROW(parallel_for(64,
                            [&](std::int64_t) {
                              if (std::this_thread::get_id() != caller) {
                                worker_threw = true;
                                require(false, "iteration failed on a worker");
                              }
                              while (!worker_threw) {
                                std::this_thread::yield();
                              }
                            }),
               ConfigError);
  // A throw on the calling thread surfaces too.
  EXPECT_THROW(parallel_for(64, [](std::int64_t i) { require(i != 0, "first iteration"); }),
               ConfigError);
  // The pool survives and runs the next call in full.
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
  set_worker_count(0);
}

TEST(Parallel, BackToBackCallsStayExactlyOnce) {
  // A worker late to leave one call must never run an item of the next:
  // every call sees each of its indices exactly once.
  set_worker_count(4);
  constexpr std::int64_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  int bad_calls = 0;
  for (int call = 0; call < 10000; ++call) {
    parallel_for(kCount, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    bool once = true;
    for (auto& h : hits) {
      once = h.exchange(0) == 1 && once;
    }
    bad_calls += once ? 0 : 1;
  }
  set_worker_count(0);
  EXPECT_EQ(bad_calls, 0);
}

}  // namespace
}  // namespace adaflow
