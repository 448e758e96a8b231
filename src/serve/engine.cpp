#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/env.h"

namespace mx {
namespace serve {

using tensor::Tensor;

namespace {

double
ms_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t
ns_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

/** EngineStats percentile summary from an engine-owned histogram. */
LatencySummary
summarize(const obs::Histogram& h)
{
    LatencySummary s;
    s.count = h.count();
    s.p50_ms = h.percentile_ms(0.5);
    s.p99_ms = h.percentile_ms(0.99);
    s.p999_ms = h.percentile_ms(0.999);
    s.mean_ms = h.mean() * 1e-6;
    return s;
}

} // namespace

std::size_t
EngineConfig::default_max_batch()
{
    return core::env::size_knob("MX_SERVE_BATCH", 16);
}

std::size_t
EngineConfig::default_queue_capacity()
{
    return core::env::size_knob("MX_SERVE_QUEUE", 256);
}

std::size_t
EngineConfig::default_replicas()
{
    return core::env::size_knob("MX_SERVE_REPLICAS", 1);
}

double
EngineStats::mean_batch_rows() const
{
    if (batches == 0)
        return 0.0;
    // From the histogram, not `requests`: rows still queued have been
    // accepted but not batched yet.
    std::uint64_t rows = 0;
    for (std::size_t b = 0; b < batch_size_hist.size(); ++b)
        rows += batch_size_hist[b] * b;
    return static_cast<double>(rows) / static_cast<double>(batches);
}

namespace {

/** Adapt a sessionless batch function to the session-aware signature
 *  every worker executes. */
InferenceEngine::SessionBatchFn
ignore_sessions(InferenceEngine::BatchFn fn)
{
    return [fn = std::move(fn)](const Tensor& in,
                                const std::vector<std::uint64_t>&) {
        return fn(in);
    };
}

} // namespace

InferenceEngine::InferenceEngine(BatchFn fn, std::int64_t in_dim,
                                 EngineConfig cfg)
    : in_dim_(in_dim)
{
    MX_CHECK_ARG(fn != nullptr, "InferenceEngine: null batch function");
    // One function, every replica: callers declare concurrent safety
    // implicitly by configuring replicas > 1 (frozen mx eval forwards
    // are mutation-free, so this is the common case).
    const SessionBatchFn wrapped = ignore_sessions(std::move(fn));
    start([&wrapped](std::size_t) { return wrapped; }, cfg);
}

InferenceEngine::InferenceEngine(SessionBatchFn fn, std::int64_t in_dim,
                                 EngineConfig cfg)
    : in_dim_(in_dim)
{
    MX_CHECK_ARG(fn != nullptr, "InferenceEngine: null batch function");
    start([&fn](std::size_t) { return fn; }, cfg);
}

InferenceEngine::InferenceEngine(ReplicaFactory make, std::int64_t in_dim,
                                 EngineConfig cfg)
    : in_dim_(in_dim)
{
    MX_CHECK_ARG(make != nullptr, "InferenceEngine: null replica factory");
    start(
        [&make](std::size_t r) {
            BatchFn fn = make(r);
            MX_CHECK_ARG(fn != nullptr,
                         "InferenceEngine: replica factory returned a "
                         "null batch function for replica " << r);
            return ignore_sessions(std::move(fn));
        },
        cfg);
}

void
InferenceEngine::start(
    const std::function<SessionBatchFn(std::size_t)>& make,
    EngineConfig cfg)
{
    MX_CHECK_ARG(in_dim_ >= 1, "InferenceEngine: bad input width");
    cfg_ = cfg;
    if (cfg_.max_batch == 0)
        cfg_.max_batch = EngineConfig::default_max_batch();
    if (cfg_.queue_capacity == 0)
        cfg_.queue_capacity = EngineConfig::default_queue_capacity();
    if (cfg_.replicas == 0)
        cfg_.replicas = EngineConfig::default_replicas();
    if (cfg_.pool == nullptr)
        cfg_.pool = &core::ThreadPool::shared();
    stats_.batch_size_hist.assign(cfg_.max_batch + 1, 0);
    stats_.replicas = cfg_.replicas;

    // Fully populate the per-replica functions BEFORE any worker
    // spawns: worker_loop reads replica_fns_ unsynchronized.
    replica_fns_.reserve(cfg_.replicas);
    for (std::size_t r = 0; r < cfg_.replicas; ++r)
        replica_fns_.push_back(make(r));

    workers_.reserve(cfg_.replicas);
    for (std::size_t r = 0; r < cfg_.replicas; ++r)
        workers_.emplace_back([this, r] { worker_loop(r); });
}

InferenceEngine::~InferenceEngine()
{
    {
        core::UniqueLock lk(mu_);
        stop_ = true;
        not_empty_.notify_all();
        not_full_.notify_all();
        // Submitters blocked on back-pressure wake, observe stop_, and
        // throw EngineShutdownError; wait them out so none still
        // touches the engine when the members are torn down.
        while (active_submits_ != 0)
            lk.wait(submitters_done_);
    }
    // Workers drain every accepted request before exiting.
    for (std::thread& t : workers_)
        t.join();
}

std::future<Reply>
InferenceEngine::submit(std::vector<float> row, std::uint64_t session)
{
    MX_CHECK_ARG(static_cast<std::int64_t>(row.size()) == in_dim_,
                 "InferenceEngine: request row has " << row.size()
                     << " features, engine expects " << in_dim_);
    core::UniqueLock lk(mu_);
    if (stop_)
        throw EngineShutdownError(
            "InferenceEngine: submit() after shutdown — the engine's "
            "destructor already ran; no new requests are accepted");
    ++active_submits_;
    while (queue_.size() >= cfg_.queue_capacity && !stop_)
        lk.wait(not_full_);
    if (stop_) {
        if (--active_submits_ == 0)
            submitters_done_.notify_all();
        throw EngineShutdownError(
            "InferenceEngine: engine shut down while this request "
            "waited for queue space; it was never accepted (requests "
            "accepted before shutdown still drain)");
    }
    Pending p;
    p.row = std::move(row);
    p.session = session;
    p.enqueued = std::chrono::steady_clock::now();
    std::future<Reply> fut = p.promise.get_future();
    queue_.push_back(std::move(p));
    ++stats_.requests;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    if (--active_submits_ == 0)
        submitters_done_.notify_all();
    not_empty_.notify_one();
    return fut;
}

void
InferenceEngine::drain()
{
    // `busy_workers_` counts replicas that popped a batch and have not
    // finished executing it: with N workers, an empty queue alone does
    // not mean every accepted request completed.
    core::UniqueLock lk(mu_);
    while (!queue_.empty() || busy_workers_ != 0)
        lk.wait(idle_);
}

EngineStats
InferenceEngine::stats() const
{
    EngineStats s;
    {
        core::LockGuard lk(mu_);
        s = stats_;
    }
    // Histogram reads are relaxed-atomic snapshots; taking them outside
    // the mutex keeps stats() off the submit/worker hot path.
    s.queue_wait = summarize(hist_queue_wait_);
    s.request_total = summarize(hist_request_total_);
    s.batch_assemble = summarize(hist_batch_assemble_);
    s.batch_execute = summarize(hist_batch_execute_);
    return s;
}

void
InferenceEngine::worker_loop(std::size_t replica)
{
    char name[32];
    std::snprintf(name, sizeof name, "serve-replica-%zu", replica);
    obs::set_thread_name(name);
    const SessionBatchFn& fn = replica_fns_[replica];
    for (;;) {
        std::vector<Pending> batch;
        {
            core::UniqueLock lk(mu_);
            while (queue_.empty() && !stop_)
                lk.wait(not_empty_);
            if (queue_.empty()) // stop_ set and nothing left to serve
                return;
            ++busy_workers_;
            while (!queue_.empty() && batch.size() < cfg_.max_batch) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            ++stats_.batches;
            ++stats_.batch_size_hist[batch.size()];
        }
        not_full_.notify_all();

        execute(fn, batch);

        {
            core::LockGuard lk(mu_);
            --busy_workers_;
        }
        idle_.notify_all();
    }
}

void
InferenceEngine::execute(const SessionBatchFn& fn,
                         std::vector<Pending>& batch)
{
    // Registry mirrors of the per-engine histograms, so MX_METRICS
    // dumps serve latencies without anyone calling stats().
    static obs::Histogram& g_queue =
        obs::histogram("serve.queue_wait_ns");
    static obs::Histogram& g_total =
        obs::histogram("serve.request_total_ns");
    static obs::Histogram& g_assemble =
        obs::histogram("serve.batch_assemble_ns");
    static obs::Histogram& g_execute =
        obs::histogram("serve.batch_execute_ns");

    const std::int64_t rows = static_cast<std::int64_t>(batch.size());
    const auto picked_up = std::chrono::steady_clock::now();

    obs::Span batch_span("serve.batch");
    batch_span.arg("rows", static_cast<double>(rows));

    // Gather request rows [lo, hi) into one contiguous input tensor
    // plus the row-aligned session tags.
    auto gather = [&](std::int64_t lo, std::int64_t hi) {
        Tensor in({hi - lo, in_dim_});
        for (std::int64_t r = lo; r < hi; ++r)
            std::copy(batch[static_cast<std::size_t>(r)].row.begin(),
                      batch[static_cast<std::size_t>(r)].row.end(),
                      in.data() + (r - lo) * in_dim_);
        return in;
    };
    auto gather_sessions = [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::uint64_t> s(static_cast<std::size_t>(hi - lo));
        for (std::int64_t r = lo; r < hi; ++r)
            s[static_cast<std::size_t>(r - lo)] =
                batch[static_cast<std::size_t>(r)].session;
        return s;
    };

    // Shard row-independent batches into contiguous chunks across the
    // pool; chunking cannot change any output row (each row's result
    // depends only on that row), so the reply stream is bit-identical
    // to the single-call execution.  With replicas > 1 the replica is
    // the parallelism unit and sharding needs the explicit opt-in: of
    // concurrent parallel_for calls only one gets the pool's lanes.
    // cfg_.replicas, not workers_.size(): a worker can reach here
    // while the constructor is still emplacing its siblings, and
    // cfg_.replicas is immutable once start() resolved it.
    const bool may_shard =
        cfg_.rows_independent &&
        (cfg_.replicas <= 1 || cfg_.shard_within_replica);
    const std::size_t lanes = cfg_.pool->thread_count();
    const std::size_t n_chunks =
        may_shard && rows > 1 && lanes > 1
            ? std::min<std::size_t>(static_cast<std::size_t>(rows), lanes)
            : 1;

    std::vector<Tensor> outs(n_chunks);
    try {
        // Assemble every chunk's input up front: the copy is cheap
        // relative to the batch function, and splitting the stages
        // gives each its own span + histogram (queue -> assemble ->
        // execute is the taxonomy EngineStats and the trace report).
        std::vector<std::int64_t> starts(n_chunks + 1, 0);
        std::vector<Tensor> ins(n_chunks);
        std::vector<std::vector<std::uint64_t>> sessions(n_chunks);
        {
            obs::Span assemble_span("serve.assemble");
            assemble_span.arg("rows", static_cast<double>(rows));
            const std::int64_t base =
                rows / static_cast<std::int64_t>(n_chunks);
            const std::int64_t rem =
                rows % static_cast<std::int64_t>(n_chunks);
            for (std::size_t c = 0; c < n_chunks; ++c)
                starts[c + 1] = starts[c] + base +
                                (static_cast<std::int64_t>(c) < rem ? 1 : 0);
            for (std::size_t c = 0; c < n_chunks; ++c) {
                ins[c] = gather(starts[c], starts[c + 1]);
                sessions[c] = gather_sessions(starts[c], starts[c + 1]);
            }
        }
        const auto assembled = std::chrono::steady_clock::now();
        const std::uint64_t assemble_ns = ns_between(picked_up, assembled);
        hist_batch_assemble_.record(assemble_ns);
        g_assemble.record(assemble_ns);

        {
            obs::Span exec_span("serve.execute");
            exec_span.arg("rows", static_cast<double>(rows));
            exec_span.arg("chunks", static_cast<double>(n_chunks));
            if (n_chunks == 1) {
                outs[0] = fn(ins[0], sessions[0]);
            } else {
                cfg_.pool->parallel_for(n_chunks, [&](std::size_t c) {
                    outs[c] = fn(ins[c], sessions[c]);
                });
            }
        }
        const std::uint64_t execute_ns =
            ns_between(assembled, std::chrono::steady_clock::now());
        hist_batch_execute_.record(execute_ns);
        g_execute.record(execute_ns);
        std::int64_t out_dim = -1;
        std::int64_t covered = 0;
        for (const Tensor& o : outs) {
            MX_CHECK_ARG(o.ndim() == 2,
                         "InferenceEngine: batch function must return a "
                         "2-d [rows, out] tensor");
            MX_CHECK_ARG(out_dim < 0 || o.dim(1) == out_dim,
                         "InferenceEngine: batch function changed its "
                         "output width mid-batch");
            out_dim = o.dim(1);
            covered += o.dim(0);
        }
        MX_CHECK_ARG(covered == rows,
                     "InferenceEngine: batch function returned "
                         << covered << " rows for a " << rows
                         << "-row batch");

        const auto done = std::chrono::steady_clock::now();
        std::size_t idx = 0;
        for (const Tensor& o : outs) {
            for (std::int64_t r = 0; r < o.dim(0); ++r, ++idx) {
                Pending& p = batch[idx];
                Reply reply;
                reply.output.assign(o.data() + r * out_dim,
                                    o.data() + (r + 1) * out_dim);
                reply.queue_ms = ms_between(p.enqueued, picked_up);
                reply.latency_ms = ms_between(p.enqueued, done);
                reply.batch_rows = batch.size();
                const std::uint64_t queue_ns =
                    ns_between(p.enqueued, picked_up);
                const std::uint64_t total_ns = ns_between(p.enqueued, done);
                hist_queue_wait_.record(queue_ns);
                hist_request_total_.record(total_ns);
                g_queue.record(queue_ns);
                g_total.record(total_ns);
                p.promise.set_value(std::move(reply));
            }
        }
    } catch (...) {
        // Fail the whole batch with the thrown error; the engine keeps
        // serving subsequent batches.
        const std::exception_ptr err = std::current_exception();
        for (Pending& p : batch) {
            try {
                p.promise.set_exception(err);
            } catch (const std::future_error&) {
                // Already completed before the throw; leave it.
            }
        }
    }
}

} // namespace serve
} // namespace mx
