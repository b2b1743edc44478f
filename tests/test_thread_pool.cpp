// Unit tests: persistent work-stealing thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace dwarn {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  struct Case {
    std::size_t jobs;
    std::size_t max_concurrency;  ///< 0 = pool width
  };
  // More jobs than workers, and a cap above the job count.
  for (const Case c : {Case{128, 0}, Case{2, 16}}) {
    SCOPED_TRACE(testing::Message() << c.jobs << " jobs, cap " << c.max_concurrency);
    std::vector<std::atomic<int>> hits(c.jobs);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      jobs.emplace_back([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.run(std::move(jobs), c.max_concurrency);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusedAcrossSubmissions) {
  // One pool, many batches: the workers must survive and drain each batch.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.for_each(50, [&total](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20 * 50);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, PropagatesFirstBatchException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> jobs;
  jobs.emplace_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) {
    jobs.emplace_back([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.run(std::move(jobs)), std::runtime_error);
  // The batch still drains: an exception must not abandon sibling jobs.
  EXPECT_EQ(completed.load(), 10);
}

TEST(ThreadPool, UsableAfterBatchException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> bad;
  bad.emplace_back([] { throw std::logic_error("first"); });
  EXPECT_THROW(pool.run(std::move(bad)), std::logic_error);
  std::atomic<int> n{0};
  pool.for_each(8, [&n](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, SubmitReturnsFutureThatRethrows) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("future boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SequentialModePreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.emplace_back([&order, i] { order.push_back(i); });
  }
  pool.run(std::move(jobs), 1);
  std::vector<int> expect(16);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, HonorsConcurrencyCap) {
  ThreadPool pool(8);
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  pool.for_each(
      64,
      [&](std::size_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        active.fetch_sub(1);
      },
      2);
  EXPECT_LE(high_water.load(), 2);
}

TEST(ThreadPool, UncappedBatchStaysWithinPoolWidth) {
  // An external caller must not add a hidden extra lane of concurrency:
  // SMT_SIM_WORKERS=1 means one simulation at a time.
  ThreadPool pool(2);
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  pool.for_each(32, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    active.fetch_sub(1);
  });
  EXPECT_LE(high_water.load(), 2);
}

TEST(ThreadPool, NestedBatchesDoNotDeadlock) {
  // Jobs that themselves fan out on the same pool: the caller-helps
  // protocol must keep making progress even with fewer workers than
  // simultaneous batches.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  pool.for_each(4, [&](std::size_t) {
    pool.for_each(8, [&](std::size_t) { leaf.fetch_add(1); });
  });
  EXPECT_EQ(leaf.load(), 4 * 8);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  pool.run({});
  pool.for_each(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().worker_count(), 1u);
}

}  // namespace
}  // namespace dwarn
