/**
 * @file
 * Unit tests for core::ThreadPool — the fan-out substrate of the
 * threaded design-space sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

using mx::core::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(lanes);
        EXPECT_EQ(pool.thread_count(), lanes);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallel_for(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(round * 7 + 1,
                          [&](std::size_t i) { sum.fetch_add(i + 1); });
        const std::size_t n = static_cast<std::size_t>(round * 7 + 1);
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(ThreadPool, EmptyLoopIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 13)
                                           throw std::runtime_error("boom");
                                       completed.fetch_add(1);
                                   }),
                 std::runtime_error);
    EXPECT_LT(completed.load(), 100);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(8, [&](std::size_t outer) {
        pool.parallel_for(8, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SharedPoolIsUsable)
{
    std::atomic<std::size_t> sum{0};
    ThreadPool::shared().parallel_for(256,
                                      [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
    EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
    EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, MaxLanesCapsTheThreadsThatJoin)
{
    // Each index sleeps, so the job lasts long enough (~10-25 ms) for
    // every worker the pool woke to join it.
    ThreadPool pool(4);
    for (std::size_t cap : {1u, 2u, 3u}) {
        std::mutex mu;
        std::vector<std::thread::id> seen;
        std::vector<std::atomic<int>> hits(256);
        pool.parallel_for(
            hits.size(),
            [&](std::size_t i) {
                hits[i].fetch_add(1);
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                std::lock_guard<std::mutex> lk(mu);
                if (std::find(seen.begin(), seen.end(),
                              std::this_thread::get_id()) == seen.end())
                    seen.push_back(std::this_thread::get_id());
            },
            cap);
        EXPECT_LE(seen.size(), cap) << "cap " << cap;
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "cap " << cap << " index " << i;
    }
}

TEST(ThreadPool, ConcurrentCallerRunsInlineInsteadOfWaiting)
{
    // Caller A's job parks one index until caller B's whole call has
    // returned.  If B waited for A's job (the old serializing
    // behaviour) neither could finish; the parked index gives up after
    // a generous timeout so a regression fails instead of hanging.
    ThreadPool pool(4);
    std::mutex mu;
    std::condition_variable cv;
    bool a_parked = false, b_done = false, timed_out = false;
    std::vector<std::atomic<int>> a_hits(64), b_hits(64);
    std::vector<std::thread::id> b_threads(b_hits.size());

    std::thread a([&] {
        pool.parallel_for(a_hits.size(), [&](std::size_t i) {
            a_hits[i].fetch_add(1);
            if (i != 0)
                return;
            std::unique_lock<std::mutex> lk(mu);
            a_parked = true;
            cv.notify_all();
            timed_out = !cv.wait_for(lk, std::chrono::seconds(60),
                                     [&] { return b_done; });
        });
    });
    std::thread b([&] {
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return a_parked; });
        }
        pool.parallel_for(b_hits.size(), [&](std::size_t i) {
            b_hits[i].fetch_add(1);
            b_threads[i] = std::this_thread::get_id();
        });
        std::lock_guard<std::mutex> lk(mu);
        b_done = true;
        cv.notify_all();
    });
    const std::thread::id b_id = b.get_id();
    a.join();
    b.join();

    EXPECT_FALSE(timed_out) << "the second caller waited for the first";
    for (std::size_t i = 0; i < a_hits.size(); ++i)
        ASSERT_EQ(a_hits[i].load(), 1) << "A index " << i;
    for (std::size_t i = 0; i < b_hits.size(); ++i) {
        ASSERT_EQ(b_hits[i].load(), 1) << "B index " << i;
        // The pool's lanes were A's: B ran every index itself.
        EXPECT_EQ(b_threads[i], b_id) << "B index " << i;
    }
}
