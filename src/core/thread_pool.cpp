#include "core/thread_pool.h"

#include <algorithm>

#include "core/env.h"
#include "obs/obs.h"

namespace mx {
namespace core {

namespace {

/** True while the current thread is executing pool work. */
thread_local bool tl_in_pool = false;

} // namespace

std::size_t
ThreadPool::default_thread_count()
{
    // 0 (explicit or as the unset fallback) = "no override": fall
    // through to the hardware concurrency.
    const std::size_t from_env =
        env::size_knob("MX_THREADS", 0, /*min_value=*/0);
    if (from_env > 0)
        return from_env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    const std::size_t lanes =
        num_threads > 0 ? num_threads : default_thread_count();
    num_workers_ = lanes - 1;
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    // run_mu_ makes the workers_ read provable; it cannot contend —
    // a parallel_for still holding it while the pool dies is already
    // a use-after-free — and the workers never take run_mu_.
    LockGuard run_lock(run_mu_);
    for (std::thread& t : workers_)
        t.join();
}

ThreadPool&
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::ensure_started()
{
    if (started_)
        return;
    started_ = true;
    workers_.reserve(num_workers_);
    for (std::size_t i = 0; i < num_workers_; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

void
ThreadPool::run_items(const std::function<void(std::size_t)>& body,
                      std::size_t n, std::size_t chunk)
{
    const bool was_in_pool = tl_in_pool;
    tl_in_pool = true;
    for (;;) {
        const std::size_t begin =
            next_.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n)
            break;
        const std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                body(i);
            } catch (...) {
                {
                    LockGuard lk(mu_);
                    if (!error_)
                        error_ = std::current_exception();
                }
                next_.store(n, std::memory_order_relaxed); // drain
                tl_in_pool = was_in_pool;
                return;
            }
        }
    }
    tl_in_pool = was_in_pool;
}

void
ThreadPool::worker_loop()
{
    obs::set_thread_name("pool-worker");
    std::uint64_t seen = 0;
    for (;;) {
        // Snapshot the job under the lock; the work loop runs on the
        // snapshot so it never touches the guarded fields lock-free.
        const std::function<void(std::size_t)>* body = nullptr;
        std::size_t n = 0;
        std::size_t chunk = 1;
        {
            UniqueLock lk(mu_);
            while (!stop_ && generation_ == seen)
                lk.wait(work_cv_);
            if (stop_)
                return;
            seen = generation_;
            if (!body_ || seats_ == 0)
                continue; // the job finished, or has all its lanes
            --seats_;
            ++active_;
            body = body_;
            n = n_;
            chunk = chunk_;
        }
        run_items(*body, n, chunk);
        {
            LockGuard lk(mu_);
            if (--active_ == 0)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& body,
                         std::size_t max_lanes)
{
    const std::size_t lanes = std::min(
        {n, thread_count(), max_lanes == 0 ? thread_count() : max_lanes});
    // Inline when the pool adds nothing (one lane, tiny loop), when
    // called from inside a pool lane (the outer loop already owns the
    // fan-out), or when another caller's job is in flight: its lanes
    // are taken, and waiting for them would only add that job's time
    // to this one's.
    if (lanes <= 1 || tl_in_pool || !run_mu_.try_lock()) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    LockGuard run_lock(run_mu_, std::adopt_lock);

    obs::Span span("pool.parallel_for");
    span.arg("n", static_cast<double>(n));
    span.arg("lanes", static_cast<double>(lanes));

    ensure_started();
    const std::size_t chunk = std::max<std::size_t>(1, n / (lanes * 8));
    {
        LockGuard lk(mu_);
        body_ = &body;
        n_ = n;
        chunk_ = chunk;
        seats_ = lanes - 1;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        ++generation_;
    }
    // Wake only the workers that can take a seat; a worker that wakes
    // anyway finds the seats gone and goes back to sleep.
    for (std::size_t i = 1; i < lanes; ++i)
        work_cv_.notify_one();
    run_items(body, n, chunk); // the caller is a lane too
    std::exception_ptr err;
    {
        UniqueLock lk(mu_);
        while (active_ != 0)
            lk.wait(done_cv_);
        body_ = nullptr;
        err = error_;
        error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace core
} // namespace mx
