/**
 * @file
 * servebench: end-to-end serving benchmark over frozen MX9 models.
 *
 * One process runs one workload against serve::InferenceEngine:
 *
 *   mlp_score   MlpClassifier 256->{256,256}->64 on nproc replicas;
 *               open loop (saturation phase, then Poisson arrivals at a
 *               fixed offered rate).
 *   gpt_chat    GptMini d128/4 heads/2 layers/seq 64; closed loop of 8
 *               decode streams with session reuse and restarts.
 *   gpt_prompt  GptMini d256/8 heads/2 layers/seq 64; closed loop, one
 *               32-64-token prompt in flight, first token only.
 *
 * Every model is exported to an MXFROZEN artifact first (untimed), then
 * loaded back the way a server would.  Every reply is compared
 * bit-exactly with an oracle computed outside the timed region.  The
 * last stdout line is one JSON object: end-to-end metrics with
 * --trace 0, per-layer metrics (a second, traced pass included) with
 * --trace 1.  See README.md for every metric's definition.
 *
 *   servebench --workload gpt_chat --seed 1 --seconds 10 --trace 0 \
 *              --workdir .bench_build/run
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "artifact/reader.h"
#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "gemm/packed_gemm.h"
#include "models/mlp.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "serve/engine.h"
#include "serve/session_cache.h"
#include "stats/rng.h"

extern char** environ;

using namespace mx;
using tensor::Tensor;
using Clock = std::chrono::steady_clock;

namespace {

/** mlp_score's Poisson phase offered rate, fixed so every commit is
 *  offered the same load: about a sixth of the saturation rows_per_s
 *  measured on a 4-lane AVX-512/VNNI VM (29-50k).  At half of
 *  saturation the run-to-run latency spread was twice as wide. */
constexpr double kMlpOfferedRowsPerS = 6000.0;
/** Setup repetitions per run, split between the start and the end of
 *  the run so the median samples the host at both; setup_s and
 *  artifact.* report medians. */
constexpr int kSetupReps = 21;
/** Spans one traced chunk may put on a thread (the obs ring holds
 *  65536 per thread; the rest is headroom for the estimate). */
constexpr double kSpanBudget = 40000.0;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile (@p p in [0, 1]); 0 for no samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

/** Samples stamped with when they completed (ms since phase start). */
struct Series
{
    std::vector<double> t, v;

    void
    add(double at_ms, double value)
    {
        t.push_back(at_ms);
        v.push_back(value);
    }

    std::size_t size() const { return v.size(); }

    double
    sum() const
    {
        double s = 0;
        for (double x : v)
            s += x;
        return s;
    }
};

/**
 * Every timed phase is cut into equal time windows and each metric is
 * computed per window; the reported value is the window quantile on the
 * metric's good side (the 25th percentile of per-window latencies, the
 * 75th of per-window rates).  On a shared host a stalled window (CPU
 * steal, another tenant) only makes a window worse, so this keeps
 * those stalls out while a slower program still moves every window.
 * Windows hold at least kMinWindowSamples samples, at most kMaxWindows.
 */
constexpr std::size_t kMaxWindows = 60;
constexpr std::size_t kMinWindowSamples = 200;
constexpr double kGoodSide = 0.25;

/** The good-side quantile over windows of @p f over each window's
 *  samples; @p min_samples sizes the windows. */
template <typename F>
double
window_quantile(const Series& s, double wall_ms, double q,
                std::size_t min_samples, F&& f)
{
    const std::size_t k =
        std::clamp<std::size_t>(s.size() / min_samples, 1, kMaxWindows);
    std::vector<std::vector<double>> win(k);
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto w = static_cast<std::size_t>(
            std::max(0.0, s.t[i] / wall_ms * static_cast<double>(k)));
        win[std::min(w, k - 1)].push_back(s.v[i]);
    }
    std::vector<double> vals;
    for (const auto& w : win)
        vals.push_back(f(w, wall_ms * 1e-3 / static_cast<double>(k)));
    return percentile(vals, q);
}

/** Window-robust @p p percentile of a latency series. */
double
windowed_percentile(const Series& s, double p, double wall_ms)
{
    return window_quantile(s, wall_ms, kGoodSide, kMinWindowSamples,
                           [p](const std::vector<double>& w, double) {
                               return percentile(w, p);
                           });
}

/** Window-robust rate (value sum per second) of a series. */
double
windowed_rate(const Series& s, double wall_ms)
{
    return window_quantile(s, wall_ms, 1.0 - kGoodSide, 100,
                           [](const std::vector<double>& w, double win_s) {
                               double sum = 0;
                               for (double x : w)
                                   sum += x;
                               return sum / win_s;
                           });
}

double
mean(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned r[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &r[4 * i], &r[4 * i + 1],
                        &r[4 * i + 2], &r[4 * i + 3]);
        char buf[49] = {};
        std::memcpy(buf, r, 48);
        std::string s(buf);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

const char*
simd_name(core::kernels::SimdLevel l)
{
    switch (l) {
      case core::kernels::SimdLevel::Scalar: return "scalar";
      case core::kernels::SimdLevel::Avx2: return "avx2";
      case core::kernels::SimdLevel::Avx512: return "avx512";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0; ///< 0 = not a sampled timing.
};

/** Request accounting for failed_frac and the result line. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

// ---------------------------------------------------------------------
// The benchmark-owned wrapper around the engine's batch function
// ---------------------------------------------------------------------

/** Times every batch-function call per replica thread, so busy time
 *  and the hand-off gaps between batches are measured from outside the
 *  engine.  `queued` records whether requests were still waiting when
 *  the call returned (submitted > rows started). */
class BatchLog
{
  public:
    struct Call
    {
        std::thread::id tid;
        Clock::time_point t0, t1;
        bool queued = false;
    };

    void
    reset()
    {
        std::lock_guard<std::mutex> lk(mu_);
        calls_.clear();
        submitted_.store(0);
        started_.store(0);
    }

    void note_submitted() { submitted_.fetch_add(1); }

    Clock::time_point
    begin(std::int64_t rows)
    {
        started_.fetch_add(static_cast<std::uint64_t>(rows));
        return Clock::now();
    }

    void
    end(Clock::time_point t0)
    {
        const Clock::time_point t1 = Clock::now();
        const bool queued = submitted_.load() > started_.load();
        std::lock_guard<std::mutex> lk(mu_);
        calls_.push_back({std::this_thread::get_id(), t0, t1, queued});
    }

    /** Busy share of @p replicas x @p wall_ms, and the p50 gap between
     *  a replica's consecutive calls when work was queued (ms). */
    std::pair<double, double>
    busy_and_gap(std::size_t replicas, double wall_ms) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::map<std::thread::id, std::vector<const Call*>> by_thread;
        double busy = 0;
        for (const Call& c : calls_) {
            by_thread[c.tid].push_back(&c);
            busy += ms_between(c.t0, c.t1);
        }
        std::vector<double> gaps;
        for (auto& [tid, v] : by_thread) {
            std::sort(v.begin(), v.end(), [](const Call* a, const Call* b) {
                return a->t0 < b->t0;
            });
            for (std::size_t i = 1; i < v.size(); ++i)
                if (v[i - 1]->queued)
                    gaps.push_back(ms_between(v[i - 1]->t1, v[i]->t0));
        }
        return {busy / (static_cast<double>(replicas) * wall_ms),
                percentile(gaps, 0.5)};
    }

  private:
    mutable std::mutex mu_;
    std::vector<Call> calls_;
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> started_{0};
};

serve::InferenceEngine::BatchFn
logged(serve::InferenceEngine::BatchFn fn, BatchLog& log)
{
    return [fn = std::move(fn), &log](const Tensor& in) {
        obs::Span span("bench.batch");
        const Clock::time_point t0 = log.begin(in.dim(0));
        Tensor out = fn(in);
        log.end(t0);
        return out;
    };
}

serve::InferenceEngine::SessionBatchFn
logged(serve::InferenceEngine::SessionBatchFn fn, BatchLog& log)
{
    return [fn = std::move(fn), &log](const Tensor& in,
                                      const std::vector<std::uint64_t>& s) {
        obs::Span span("bench.batch");
        const Clock::time_point t0 = log.begin(in.dim(0));
        Tensor out = fn(in, s);
        log.end(t0);
        return out;
    };
}

/** Submit through the engine inside a benchmark span, timing the call
 *  (the back-pressure block) from outside. */
std::future<serve::Reply>
timed_submit(serve::InferenceEngine& engine, BatchLog& log,
             std::vector<float> row, std::uint64_t session,
             double& block_ms)
{
    obs::Span span("bench.submit");
    const Clock::time_point t0 = Clock::now();
    std::future<serve::Reply> f = engine.submit(std::move(row), session);
    block_ms = ms_between(t0, Clock::now());
    log.note_submitted();
    return f;
}

/** Bit-exact comparison of a reply row with its oracle row. */
bool
matches(const serve::Reply& r, const std::vector<float>& expected)
{
    return r.output.size() == expected.size() &&
           std::memcmp(r.output.data(), expected.data(),
                       expected.size() * sizeof(float)) == 0;
}

/** future.get() that turns a thrown reply (including
 *  EngineShutdownError) into a failure. */
bool
get_reply(std::future<serve::Reply>& f, serve::Reply& out)
{
    try {
        out = f.get();
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: reply failed: %s\n", e.what());
        return false;
    }
}

// ---------------------------------------------------------------------
// Trace rollup
// ---------------------------------------------------------------------

/** Per-layer self time rolled up from the obs trace. */
struct Rollup
{
    std::map<std::string, double> self_ms; ///< layer -> self time (ms)
    double gemm_incl_ms = 0; ///< gemm spans including their children
    double macs = 0;         ///< sum of m*n*k over gemm spans
    double pool_fanouts = 0; ///< pool.parallel_for spans
    double engine_ms = 0;    ///< engine-clocked assemble + execute
    double replica_ms = 0;   ///< replicas x traced wall

    void
    add(const Rollup& o)
    {
        for (const auto& [k, v] : o.self_ms)
            self_ms[k] += v;
        gemm_incl_ms += o.gemm_incl_ms;
        macs += o.macs;
        pool_fanouts += o.pool_fanouts;
        engine_ms += o.engine_ms;
        replica_ms += o.replica_ms;
    }
};

/** The layer a span belongs to (empty = harness / client side). */
std::string
layer_of(const std::string& name)
{
    if (name.rfind("serve.", 0) == 0)
        return "serve";
    if (name == "bench.batch")
        return "model";
    if (name.rfind("attn.", 0) == 0)
        return "attn";
    if (name.rfind("gemm.", 0) == 0)
        return "gemm";
    if (name.rfind("pool.", 0) == 0)
        return "pool";
    return "";
}

double
json_field(const std::string& line, const char* key)
{
    const std::string k = std::string("\"") + key + "\":";
    const auto p = line.find(k);
    return p == std::string::npos ? 0.0
                                  : std::strtod(line.c_str() + p + k.size(),
                                                nullptr);
}

/**
 * Parse the buffered spans (obs::write_trace emits one event per line)
 * and compute each span's self time: its duration minus the time its
 * direct children cover.  Only threads that ran serve.batch spans (the
 * replica workers) count towards the layer shares.
 */
Rollup
rollup_trace()
{
    struct Ev
    {
        std::string name;
        double ts = 0, dur = 0, child = 0;
        double m = 0, n = 0, k = 0;
    };
    std::ostringstream os;
    obs::write_trace(os);
    std::istringstream is(os.str());
    std::map<long, std::vector<Ev>> by_tid;
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const auto n0 = line.find("\"name\":\"") + 8;
        Ev e;
        e.name = line.substr(n0, line.find('"', n0) - n0);
        e.ts = json_field(line, "ts");
        e.dur = json_field(line, "dur");
        if (e.name.rfind("gemm.", 0) == 0) {
            e.m = json_field(line, "m");
            e.n = json_field(line, "n");
            e.k = json_field(line, "k");
        }
        by_tid[static_cast<long>(json_field(line, "tid"))].push_back(e);
    }
    Rollup r;
    for (auto& [tid, evs] : by_tid) {
        std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
            return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
        });
        std::vector<std::size_t> stack;
        bool replica = false;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const Ev& e = evs[i];
            // Pop ancestors this span does not fit inside (the printed
            // durations carry 6 significant digits).
            while (!stack.empty()) {
                const Ev& top = evs[stack.back()];
                const double slack = 1e-5 * top.dur + 2e-3;
                if (e.ts + e.dur <= top.ts + top.dur + slack)
                    break;
                stack.pop_back();
            }
            if (!stack.empty())
                evs[stack.back()].child += e.dur;
            stack.push_back(i);
            replica = replica || e.name == "serve.batch";
        }
        for (const Ev& e : evs) {
            if (e.name.rfind("gemm.", 0) == 0) {
                r.macs += e.m * e.n * e.k;
                r.gemm_incl_ms += e.dur * 1e-3;
            }
            if (e.name == "pool.parallel_for")
                r.pool_fanouts += 1;
            const std::string layer = layer_of(e.name);
            if (replica && !layer.empty())
                r.self_ms[layer] += (e.dur - e.child) * 1e-3;
        }
    }
    return r;
}

/** Engine-clocked busy time (batch assembly + execution), in ms. */
double
engine_busy_ms(const serve::EngineStats& s)
{
    return s.batch_assemble.mean_ms *
               static_cast<double>(s.batch_assemble.count) +
           s.batch_execute.mean_ms *
               static_cast<double>(s.batch_execute.count);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".";
};

/** What a timed phase measured (untraced). */
struct Phase
{
    double wall_ms = 0;
    /** Per reply: its units (rows / generated tokens / prompt tokens). */
    Series units;
    Series latency_ms, ttft_ms, itl_ms;
    std::vector<double> lag_ms, submit_ms;

    double requests() const { return static_cast<double>(units.size()); }

    /** The headline and timing metrics every workload reports; a
     *  single-output request's ttft and itl are its latency. */
    std::vector<Metric>
    e2e(bool single_output) const
    {
        const Series& ttft = single_output ? latency_ms : ttft_ms;
        const Series& itl = single_output ? latency_ms : itl_ms;
        Series rows;
        rows.t = units.t;
        rows.v.assign(units.size(), 1.0);
        const auto pct = [&](const Series& s, double p) {
            return windowed_percentile(s, p, wall_ms);
        };
        return {{"rows_per_s", windowed_rate(rows, wall_ms), "1/s",
                 rows.size()},
                {"tokens_per_s", windowed_rate(units, wall_ms), "1/s",
                 units.size()},
                {"latency_p50_ms", pct(latency_ms, 0.5), "ms",
                 latency_ms.size()},
                {"latency_p99_ms", pct(latency_ms, 0.99), "ms",
                 latency_ms.size()},
                {"ttft_p50_ms", pct(ttft, 0.5), "ms", ttft.size()},
                {"ttft_p90_ms", pct(ttft, 0.9), "ms", ttft.size()},
                {"itl_p50_ms", pct(itl, 0.5), "ms", itl.size()},
                {"itl_p99_ms", pct(itl, 0.99), "ms", itl.size()}};
    }
};

/**
 * One workload: export + oracle (untimed), setup (timed), then phases.
 * Each subclass owns its traffic model; the base owns the shared
 * reporting.
 */
class Workload
{
  public:
    explicit Workload(const Options& o) : rng_(o.seed) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /** Build, freeze and export the model; precompute the oracle. */
    virtual void prepare(const std::string& artifact_path) = 0;
    /** Open + load + engine + first reply; keeps the loaded model. */
    virtual void setup(const std::string& artifact_path,
                       double& open_ms, double& load_ms) = 0;
    /** Exact counts of a fixed, seed-determined request sequence. */
    virtual std::map<std::string, double> count_pass() = 0;
    /** The untimed-phase traffic for @p seconds: fills @p e2e (and the
     *  per-layer serve/session figures in @p layer). */
    virtual void measure(double seconds, std::vector<Metric>& e2e,
                         std::vector<Metric>& layer) = 0;
    /** Headline throughput traffic for up to @p seconds or
     *  @p max_items requests on a fresh engine; fills @p roll when
     *  @p traced. */
    virtual Phase throughput(double seconds, double max_items,
                             bool traced, Rollup& roll) = 0;
    virtual std::size_t replicas() const = 0;

    Tally tally;

  protected:
    /** Record a reply outcome. */
    void
    account(bool ok)
    {
        ++tally.attempted;
        if (!ok)
            ++tally.failed;
    }

    stats::Rng rng_;
    BatchLog log_;
};

nn::QuantSpec
mx9_spec()
{
    return nn::QuantSpec::forward_only(core::mx9());
}

/** One traced chunk: run @p chunk under tracing and roll it up. */
template <typename Fn>
Rollup
traced_chunk(serve::InferenceEngine& engine, std::size_t replicas,
             Fn&& chunk)
{
    obs::clear_trace();
    const serve::EngineStats s0 = engine.stats();
    obs::set_trace_enabled(true);
    const Clock::time_point t0 = Clock::now();
    chunk();
    const double wall = ms_between(t0, Clock::now());
    obs::set_trace_enabled(false);
    const serve::EngineStats s1 = engine.stats();
    Rollup r = rollup_trace();
    r.engine_ms = engine_busy_ms(s1) - engine_busy_ms(s0);
    r.replica_ms = static_cast<double>(replicas) * wall;
    obs::clear_trace();
    return r;
}

// ----------------------------- mlp_score ------------------------------

class MlpScore : public Workload
{
  public:
    using Workload::Workload;

    static constexpr std::int64_t kIn = 256, kOut = 64;
    static constexpr std::size_t kPool = 4096;

    void
    prepare(const std::string& path) override
    {
        models::MlpClassifier mlp(kIn, {256, 256}, kOut, mx9_spec(),
                                  rng_.next_u64());
        mlp.freeze();
        mlp.save_frozen(path);
        rows_.resize(kPool);
        for (auto& r : rows_) {
            r.resize(static_cast<std::size_t>(kIn));
            for (float& v : r)
                v = static_cast<float>(rng_.uniform(-2.0, 2.0));
        }
        // Oracle: direct single-thread logits() on each row.
        gemm::set_gemm_threads(1);
        expected_.resize(kPool);
        for (std::size_t i = 0; i < kPool; ++i) {
            Tensor x({1, kIn});
            std::copy(rows_[i].begin(), rows_[i].end(), x.data());
            Tensor y = mlp.logits(x, false);
            expected_[i].assign(y.data(), y.data() + kOut);
        }
        gemm::set_gemm_threads(0);
    }

    std::size_t
    replicas() const override
    {
        return std::max(1u, std::thread::hardware_concurrency());
    }

    std::unique_ptr<serve::InferenceEngine>
    make_engine()
    {
        serve::EngineConfig cfg;
        cfg.replicas = replicas();
        cfg.rows_independent = true;
        models::MlpClassifier* m = model_.get();
        return std::make_unique<serve::InferenceEngine>(
            logged([m](const Tensor& b) { return m->logits(b, false); },
                   log_),
            kIn, cfg);
    }

    void
    setup(const std::string& path, double& open_ms, double& load_ms) override
    {
        engine_.reset();
        model_.reset();
        const Clock::time_point t0 = Clock::now();
        artifact::ArtifactReader reader(path);
        const Clock::time_point t1 = Clock::now();
        model_ = std::make_unique<models::MlpClassifier>(
            models::MlpClassifier::load_frozen(reader));
        const Clock::time_point t2 = Clock::now();
        engine_ = make_engine();
        serve::Reply r;
        std::future<serve::Reply> f = engine_->submit(rows_[0]);
        account(get_reply(f, r) && matches(r, expected_[0]));
        open_ms = ms_between(t0, t1);
        load_ms = ms_between(t1, t2);
    }

    std::map<std::string, double>
    count_pass() override
    {
        auto engine = make_engine();
        const std::uint64_t calls0 = gemm::call_count();
        constexpr int kRows = 256;
        for (int i = 0; i < kRows; ++i) {
            serve::Reply r;
            std::future<serve::Reply> f =
                engine->submit(rows_[static_cast<std::size_t>(i)]);
            account(get_reply(f, r) &&
                    matches(r, expected_[static_cast<std::size_t>(i)]));
        }
        engine->drain();
        return {{"gemm.calls_per_item",
                 static_cast<double>(gemm::call_count() - calls0) / kRows},
                {"serve.batches",
                 static_cast<double>(engine->stats().batches)}};
    }

    /** Open-loop traffic: either saturation (one submitter keeps the
     *  bounded queue full) or Poisson arrivals at @p rate rows/s.  A
     *  collector thread takes replies in order and checks each. */
    Phase
    open_loop(serve::InferenceEngine& engine, double seconds, double rate,
              double max_items)
    {
        struct Inflight
        {
            std::size_t idx;
            Clock::time_point due, sent;
            std::future<serve::Reply> fut;
        };
        Phase ph;
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Inflight> q;
        bool done = false;
        const Clock::time_point t0 = Clock::now();
        Clock::time_point last_reply = t0;
        std::thread collector([&] {
            for (;;) {
                Inflight in;
                {
                    std::unique_lock<std::mutex> lk(mu);
                    cv.wait(lk, [&] { return done || !q.empty(); });
                    if (q.empty())
                        return;
                    in = std::move(q.front());
                    q.pop_front();
                }
                serve::Reply r;
                const bool ok = get_reply(in.fut, r) &&
                                matches(r, expected_[in.idx]);
                last_reply = Clock::now();
                // Completion = enqueue (~ submit return) + the engine's
                // enqueue->completion stamp; timed from when it was due.
                const double at = ms_between(t0, in.sent) + r.latency_ms;
                ph.latency_ms.add(at, ms_between(in.due, in.sent) +
                                          r.latency_ms);
                ph.units.add(at, 1.0);
                account(ok);
            }
        });
        const auto finish = [&] {
            {
                std::lock_guard<std::mutex> lk(mu);
                done = true;
            }
            cv.notify_one();
            collector.join();
        };
        log_.reset();
        const Clock::time_point t_end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        double t_sched = 0;
        // The generator: runs on this thread, hands futures to the collector.
        const auto generate = [&] {
            for (double n = 0; n < max_items; ++n) {
                Clock::time_point due = Clock::now();
                if (rate > 0) {
                    t_sched += -std::log(1.0 - rng_.uniform()) / rate;
                    due = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(t_sched));
                    if (due >= t_end)
                        break;
                    std::this_thread::sleep_until(due);
                    ph.lag_ms.push_back(ms_between(due, Clock::now()));
                } else if (due >= t_end) {
                    break;
                }
                const std::size_t idx = rng_.uniform_u64(kPool);
                double block_ms = 0;
                std::future<serve::Reply> f =
                    timed_submit(engine, log_, rows_[idx], 0, block_ms);
                ph.submit_ms.push_back(block_ms);
                {
                    std::lock_guard<std::mutex> lk(mu);
                    q.push_back({idx, rate > 0 ? due : Clock::now(),
                                 Clock::now(), std::move(f)});
                }
                cv.notify_one();
            }
        };
        try {
            generate();
        } catch (...) {
            finish();
            throw;
        }
        finish();
        ph.wall_ms = ms_between(t0, last_reply);
        return ph;
    }

    void
    measure(double seconds, std::vector<Metric>& e2e,
            std::vector<Metric>& layer) override
    {
        // A third saturation (throughput), two thirds Poisson (latency).
        auto sat_engine = make_engine();
        const Phase sat = open_loop(*sat_engine, seconds / 3, 0.0, 1e18);
        sat_engine->drain();
        const serve::EngineStats sat_stats = sat_engine->stats();
        const auto [busy, gap] = log_.busy_and_gap(replicas(), sat.wall_ms);
        sat_engine.reset();

        auto lat_engine = make_engine();
        const Phase lat =
            open_loop(*lat_engine, seconds * 2 / 3, kMlpOfferedRowsPerS, 1e18);
        lat_engine->drain();
        const serve::EngineStats lat_stats = lat_engine->stats();

        // Throughput from the saturation phase, timings from the
        // Poisson phase.
        e2e = lat.e2e(true);
        const std::vector<Metric> peak = sat.e2e(true);
        e2e[0] = peak[0];
        e2e[1] = peak[1];
        layer = {
            {"serve.replica_busy_frac", busy, "ratio"},
            {"serve.handoff_gap_p50_ms", gap, "ms"},
            {"serve.submit_block_ms", mean(sat.submit_ms), "ms",
             sat.submit_ms.size()},
            {"serve.queue_wait_p99_ms", lat_stats.queue_wait.p99_ms, "ms",
             lat_stats.queue_wait.count},
            {"serve.batch_rows_mean", sat_stats.mean_batch_rows(), "rows"},
            {"serve.execute_p50_ms", sat_stats.batch_execute.p50_ms, "ms",
             sat_stats.batch_execute.count},
            {"loadgen.lag_p99_ms", percentile(lat.lag_ms, 0.99), "ms",
             lat.lag_ms.size()},
            // No session cache on this workload: the bypass case.
            {"session.hit_ratio", 0.0, "ratio"},
            {"session.evictions", 0.0, "count"},
            {"session.resident_bytes", 0.0, "bytes"}};
    }

    Phase
    throughput(double seconds, double max_items, bool traced,
               Rollup& roll) override
    {
        auto engine = make_engine();
        if (!traced)
            return open_loop(*engine, seconds, 0.0, max_items);
        Phase ph;
        roll = traced_chunk(*engine, replicas(), [&] {
            ph = open_loop(*engine, seconds, 0.0, max_items);
            engine->drain();
        });
        return ph;
    }

  private:
    std::vector<std::vector<float>> rows_, expected_;
    std::unique_ptr<models::MlpClassifier> model_;
    std::unique_ptr<serve::InferenceEngine> engine_;
};

// ------------------------------ GPT base ------------------------------

/** One oracle decode window: prompt + greedy continuation, with the
 *  cold (sessionless) logits of every step. */
struct Window
{
    std::vector<int> tokens; ///< prompt then generated tokens
    std::size_t prompt_len = 0;
    std::vector<std::vector<float>> logits; ///< step j: context len p+j
};

class GptWorkload : public Workload
{
  public:
    GptWorkload(const Options& o, models::TransformerConfig cfg)
        : Workload(o), cfg_(cfg)
    {
        cfg_.spec = mx9_spec();
    }

    std::size_t replicas() const override { return 1; }

    std::vector<float>
    row(const std::vector<int>& tokens, std::size_t len) const
    {
        return models::GptMini::pack_decode_row(
            std::vector<int>(tokens.begin(),
                             tokens.begin() +
                                 static_cast<std::ptrdiff_t>(len)),
            cfg_.seq_len);
    }

    /** A fresh session cache + engine over the loaded model. */
    void
    fresh_engine()
    {
        engine_.reset();
        cache_ = std::make_unique<serve::SessionCache>();
        engine_ = std::make_unique<serve::InferenceEngine>(
            logged(models::gpt_decode_batch_fn(*model_, *cache_), log_),
            cfg_.seq_len);
    }

    void
    setup(const std::string& path, double& open_ms, double& load_ms) override
    {
        engine_.reset();
        cache_.reset();
        model_.reset();
        const Clock::time_point t0 = Clock::now();
        artifact::ArtifactReader reader(path);
        const Clock::time_point t1 = Clock::now();
        model_ = std::make_unique<models::GptMini>(
            models::GptMini::load_frozen(reader));
        const Clock::time_point t2 = Clock::now();
        fresh_engine();
        const Window& w = windows_[0];
        serve::Reply r;
        std::future<serve::Reply> f =
            engine_->submit(row(w.tokens, w.prompt_len), next_session_++);
        account(get_reply(f, r) && matches(r, w.logits[0]));
        open_ms = ms_between(t0, t1);
        load_ms = ms_between(t1, t2);
    }

  protected:
    /** One random prompt of every length in [lo, hi]; when @p decode,
     *  greedy cold continuation to the end of the window, else the first
     *  token's logits only.  Every seed gets the same lengths, so the
     *  work per cycle through the pool does not depend on the seed. */
    void
    make_windows(models::GptMini& gpt, int lo, int hi, bool decode)
    {
        windows_.resize(static_cast<std::size_t>(hi - lo + 1));
        for (std::size_t k = 0; k < windows_.size(); ++k) {
            Window& w = windows_[k];
            w.prompt_len = static_cast<std::size_t>(lo) + k;
            for (std::size_t i = 0; i < w.prompt_len; ++i)
                w.tokens.push_back(static_cast<int>(rng_.uniform_u64(
                    static_cast<std::uint64_t>(cfg_.vocab))));
            do {
                Tensor y = gpt.decode_logits(w.tokens, nullptr);
                w.logits.emplace_back(y.data(), y.data() + cfg_.vocab);
                const float* l = y.data();
                w.tokens.push_back(static_cast<int>(
                    std::max_element(l, l + cfg_.vocab) - l));
            } while (decode && w.tokens.size() <
                                   static_cast<std::size_t>(cfg_.seq_len));
        }
        // K/V bytes a warm session pins per cached token.
        models::GptDecodeSession s;
        const Window& w = windows_[0];
        gpt.decode_logits(
            std::vector<int>(w.tokens.begin(), w.tokens.end() - 1), &s);
        kv_bytes_per_token_ = static_cast<double>(
                                  models::decode_session_bytes(s)) /
                              static_cast<double>(s.tokens.size());
    }

    /** The next window: cycles through the pool in a fresh seeded
     *  order per cycle. */
    const Window&
    next_window()
    {
        if (cursor_ == order_.size()) {
            order_.resize(windows_.size());
            for (std::size_t i = 0; i < order_.size(); ++i)
                order_[i] = i;
            for (std::size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[rng_.uniform_u64(i)]);
            cursor_ = 0;
        }
        return windows_[order_[cursor_++]];
    }

    /** Session-cache figures of the current engine's cache. */
    void
    session_metrics(std::vector<Metric>& layer) const
    {
        const serve::SessionCache::Stats s = cache_->stats();
        const double lookups = static_cast<double>(s.hits + s.misses);
        layer.push_back({"session.hit_ratio",
                         lookups > 0 ? static_cast<double>(s.hits) / lookups
                                     : 0.0,
                         "ratio"});
        layer.push_back({"session.evictions",
                         static_cast<double>(s.evictions), "count"});
        layer.push_back({"session.resident_bytes",
                         static_cast<double>(s.resident_bytes), "bytes"});
    }

    /** serve.* figures of the current engine after a phase. */
    void
    serve_metrics(const Phase& ph, std::vector<Metric>& layer)
    {
        engine_->drain();
        const serve::EngineStats s = engine_->stats();
        const auto [busy, gap] = log_.busy_and_gap(1, ph.wall_ms);
        layer.push_back({"serve.replica_busy_frac", busy, "ratio"});
        layer.push_back({"serve.handoff_gap_p50_ms", gap, "ms"});
        layer.push_back({"serve.submit_block_ms", mean(ph.submit_ms), "ms",
                         ph.submit_ms.size()});
        layer.push_back({"serve.queue_wait_p99_ms", s.queue_wait.p99_ms,
                         "ms", s.queue_wait.count});
        layer.push_back({"serve.batch_rows_mean", s.mean_batch_rows(),
                         "rows"});
        layer.push_back({"serve.execute_p50_ms", s.batch_execute.p50_ms,
                         "ms", s.batch_execute.count});
        layer.push_back({"loadgen.lag_p99_ms", 0.0, "ms"});
    }

    models::TransformerConfig cfg_;
    std::vector<Window> windows_;
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    double kv_bytes_per_token_ = 0;
    std::uint64_t next_session_ = 1;
    std::unique_ptr<models::GptMini> model_;
    std::unique_ptr<serve::SessionCache> cache_;
    std::unique_ptr<serve::InferenceEngine> engine_;
};

models::TransformerConfig
gpt_config(int d_model, int heads)
{
    models::TransformerConfig c;
    c.vocab = 256;
    c.d_model = d_model;
    c.heads = heads;
    c.layers = 2;
    c.seq_len = 64;
    return c;
}

// ------------------------------ gpt_chat ------------------------------

class GptChat : public GptWorkload
{
  public:
    explicit GptChat(const Options& o) : GptWorkload(o, gpt_config(128, 4))
    {
    }

    static constexpr int kStreams = 8;

    void
    prepare(const std::string& path) override
    {
        cfg_.seed = rng_.next_u64();
        models::GptMini gpt(cfg_);
        gpt.freeze();
        gpt.save_frozen(path);
        make_windows(gpt, 4, 16, true);
    }

    /** One logical stream's position in its current window. */
    struct Stream
    {
        const Window* window = nullptr;
        std::size_t step = 0; ///< index into Window::logits
        std::uint64_t session = 0;
        Clock::time_point started, last;
        bool resumed = true; ///< next reply opens a new ITL sequence
    };

    void
    restart(Stream& s)
    {
        s.window = &next_window();
        s.step = 0;
        s.session = next_session_++;
    }

    std::vector<Stream>
    new_streams()
    {
        std::vector<Stream> v(kStreams);
        for (Stream& s : v)
            restart(s);
        return v;
    }

    /**
     * Closed loop from one thread: every stream keeps one request in
     * flight and sends its next one when its reply arrives.  With one
     * replica the queue is FIFO, so the oldest request always completes
     * first and waiting on it is exact.  Stops submitting at the
     * deadline or after @p max_requests and returns once drained.
     */
    Phase
    closed_loop(std::vector<Stream>& streams, double seconds,
                double max_requests)
    {
        struct Pending
        {
            std::size_t stream;
            Clock::time_point sent;
            std::future<serve::Reply> fut;
        };
        Phase ph;
        std::deque<Pending> q;
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point t_end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        double sent = 0;
        auto send = [&](std::size_t i) {
            Stream& s = streams[i];
            const Window& w = *s.window;
            const Clock::time_point now = Clock::now();
            if (s.step == 0)
                s.started = now;
            double block_ms = 0;
            std::future<serve::Reply> f = timed_submit(
                *engine_, log_, row(w.tokens, w.prompt_len + s.step),
                s.session, block_ms);
            ph.submit_ms.push_back(block_ms);
            q.push_back({i, now, std::move(f)});
            sent += 1;
        };
        log_.reset();
        for (std::size_t i = 0; i < streams.size(); ++i) {
            streams[i].resumed = true;
            if (sent < max_requests)
                send(i);
        }
        while (!q.empty()) {
            Pending p = std::move(q.front());
            q.pop_front();
            serve::Reply r;
            const bool got = get_reply(p.fut, r);
            const Clock::time_point now = Clock::now();
            Stream& s = streams[p.stream];
            const Window& w = *s.window;
            account(got && matches(r, w.logits[s.step]));
            const double at = ms_between(t0, now);
            ph.latency_ms.add(at, ms_between(p.sent, now));
            ph.units.add(at, 1.0); // one generated token per reply
            if (s.step == 0)
                ph.ttft_ms.add(at, ms_between(s.started, now));
            else if (!s.resumed)
                ph.itl_ms.add(at, ms_between(s.last, now));
            s.last = now;
            s.resumed = false;
            if (++s.step == w.logits.size())
                restart(s);
            if (now < t_end && sent < max_requests)
                send(p.stream);
        }
        ph.wall_ms = ms_between(t0, Clock::now());
        return ph;
    }

    std::map<std::string, double>
    count_pass() override
    {
        fresh_engine();
        auto streams = new_streams();
        const std::uint64_t calls0 = gemm::call_count();
        const std::uint64_t app0 = obs::counter("attn.append.tokens").value();
        const Phase ph = closed_loop(streams, 1e9, 1000);
        const serve::SessionCache::Stats s = cache_->stats();
        return {{"gemm.calls_per_item",
                 static_cast<double>(gemm::call_count() - calls0) /
                     ph.requests()},
                {"attn.append_tokens_per_token",
                 static_cast<double>(
                     obs::counter("attn.append.tokens").value() - app0) /
                     ph.units.sum()},
                {"kv.bytes_per_token", kv_bytes_per_token_},
                {"session.hits", static_cast<double>(s.hits)},
                {"session.misses", static_cast<double>(s.misses)},
                {"session.evictions", static_cast<double>(s.evictions)}};
    }

    void
    measure(double seconds, std::vector<Metric>& e2e,
            std::vector<Metric>& layer) override
    {
        fresh_engine();
        auto streams = new_streams();
        const Phase ph = closed_loop(streams, seconds, 1e18);
        e2e = ph.e2e(false);
        serve_metrics(ph, layer);
        session_metrics(layer);
    }

    Phase
    throughput(double seconds, double max_items, bool traced,
               Rollup& roll) override
    {
        fresh_engine();
        auto streams = new_streams();
        if (!traced)
            return closed_loop(streams, seconds, max_items);
        Phase ph;
        roll = traced_chunk(*engine_, 1, [&] {
            ph = closed_loop(streams, seconds, max_items);
        });
        return ph;
    }
};

// ----------------------------- gpt_prompt -----------------------------

class GptPrompt : public GptWorkload
{
  public:
    explicit GptPrompt(const Options& o)
        : GptWorkload(o, gpt_config(256, 8))
    {
    }


    void
    prepare(const std::string& path) override
    {
        cfg_.seed = rng_.next_u64();
        models::GptMini gpt(cfg_);
        gpt.freeze();
        gpt.save_frozen(path);
        make_windows(gpt, 32, 64, false);
    }

    /** Closed loop, one request in flight: each request is a new
     *  session whose prompt returns its first token. */
    Phase
    closed_loop(double seconds, double max_requests)
    {
        Phase ph;
        log_.reset();
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point t_end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        for (double n = 0; n < max_requests && Clock::now() < t_end; ++n) {
            const Window& w = next_window();
            const Clock::time_point sent = Clock::now();
            double block_ms = 0;
            std::future<serve::Reply> f =
                timed_submit(*engine_, log_, row(w.tokens, w.prompt_len),
                             next_session_++, block_ms);
            ph.submit_ms.push_back(block_ms);
            serve::Reply r;
            const bool got = get_reply(f, r);
            const Clock::time_point now = Clock::now();
            ph.latency_ms.add(ms_between(t0, now), ms_between(sent, now));
            ph.units.add(ms_between(t0, now),
                         static_cast<double>(w.prompt_len));
            account(got && matches(r, w.logits[0]));
        }
        ph.wall_ms = ms_between(t0, Clock::now());
        return ph;
    }

    std::map<std::string, double>
    count_pass() override
    {
        fresh_engine();
        const std::uint64_t calls0 = gemm::call_count();
        const std::uint64_t app0 = obs::counter("attn.append.tokens").value();
        const Phase ph = closed_loop(1e9, 8);
        engine_->drain();
        const serve::SessionCache::Stats sc = cache_->stats();
        return {{"gemm.calls_per_item",
                 static_cast<double>(gemm::call_count() - calls0) /
                     ph.requests()},
                {"attn.append_tokens_per_token",
                 static_cast<double>(
                     obs::counter("attn.append.tokens").value() - app0) /
                     ph.units.sum()},
                {"kv.bytes_per_token", kv_bytes_per_token_},
                {"session.hits", static_cast<double>(sc.hits)},
                {"session.misses", static_cast<double>(sc.misses)},
                {"session.evictions", static_cast<double>(sc.evictions)},
                {"serve.batches",
                 static_cast<double>(engine_->stats().batches)}};
    }

    void
    measure(double seconds, std::vector<Metric>& e2e,
            std::vector<Metric>& layer) override
    {
        fresh_engine();
        const Phase ph = closed_loop(seconds, 1e18);
        e2e = ph.e2e(true);
        serve_metrics(ph, layer);
        session_metrics(layer);
    }

    Phase
    throughput(double seconds, double max_items, bool traced,
               Rollup& roll) override
    {
        fresh_engine();
        if (!traced)
            return closed_loop(seconds, max_items);
        Phase ph;
        roll = traced_chunk(*engine_, 1,
                            [&] { ph = closed_loop(seconds, max_items); });
        return ph;
    }
};

// ---------------------------------------------------------------------
// Command line and the run
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload "
                 "mlp_score|gpt_chat|gpt_prompt --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--workdir")
            o.workdir = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** Host fingerprint: results from different fingerprints are not
 *  comparable (compare.py reports them so). */
std::string
fingerprint(const Options& o, std::size_t replicas)
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"pool_lanes\":" << core::ThreadPool::shared().thread_count()
       << ",\"gemm_kernel\":\"" << gemm::active_gemm_kernel().name()
       << "\",\"simd\":\""
       << simd_name(core::kernels::active_simd_level())
       << "\",\"gemm_threads\":" << gemm::gemm_threads()
       << ",\"replicas\":" << replicas << ",\"cpu\":\""
       << json_escape(cpu_model()) << "\",\"build\":\""
       << SERVEBENCH_BUILD_TYPE << "\",\"workload\":\"" << o.workload
       << "\",\"seed\":" << o.seed << ",\"knobs\":\"";
    // Any MX_* knob in the environment changes what is measured.
    std::string knobs;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "MX_", 3) == 0) {
            if (!knobs.empty())
                knobs += ' ';
            knobs += *e;
        }
    os << json_escape(knobs) << "\"}";
    return os.str();
}

/** Compare exact counts with the record of an earlier run of the same
 *  workload and seed in @p dir (written on first sight). */
bool
check_counts(const Options& o, const std::map<std::string, double>& counts)
{
    const std::string path = o.workdir + "/counts-" + o.workload + "-" +
                             std::to_string(o.seed) + ".txt";
    std::ifstream in(path);
    bool ok = true;
    if (in) {
        std::map<std::string, double> prev;
        std::string k;
        double v = 0;
        while (in >> k >> v)
            prev[k] = v;
        for (const auto& [name, value] : counts) {
            const auto it = prev.find(name);
            char a[32], b[32];
            std::snprintf(a, sizeof a, "%.17g", value);
            std::snprintf(b, sizeof b, "%.17g",
                          it == prev.end() ? -1.0 : it->second);
            if (std::strcmp(a, b) != 0) {
                std::printf("COUNT DRIFT %s: recorded %s, now %s\n",
                            name.c_str(), b, a);
                ok = false;
            }
        }
    } else {
        std::ofstream out(path);
        for (const auto& [name, value] : counts) {
            char a[32];
            std::snprintf(a, sizeof a, "%.17g", value);
            out << name << " " << a << "\n";
        }
    }
    return ok;
}

/** The metric table, then the result line; @p table_only rows are
 *  printed in the table but are not result metrics. */
void
print_result(bool correct, const Tally& t, const std::vector<Metric>& ms,
             const std::vector<Metric>& table_only)
{
    std::printf("%-32s %18s  %-6s %s\n", "metric", "value", "unit", "n");
    std::vector<Metric> rows = ms;
    rows.insert(rows.end(), table_only.begin(), table_only.end());
    for (const Metric& m : rows) {
        if (m.samples > 0)
            std::printf("%-32s %18.6f  %-6s %zu\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.samples);
        else
            std::printf("%-32s %18.6f  %-6s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(),
                    std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

/**
 * The --trace 1 pass: the workload untraced for 35% of @p seconds (the
 * engine, session and loadgen figures), then its headline traffic in
 * chunks sized to fit the span rings, untraced for 15% (the overhead
 * baseline) and traced for 50%.  Clears @p ok when spans were dropped
 * or the layer shares miss the replica time by more than 5%.
 */
std::vector<Metric>
traced_pass(Workload& w, const std::map<std::string, double>& counts,
            double seconds, bool& ok)
{
    std::vector<Metric> out, e2e;
    w.measure(0.35 * seconds, e2e, out);
    // Headline throughput in chunks sized to fit the span rings:
    // untraced first (the trace-overhead baseline), then traced.
    const double spans_per_item =
        2.0 * counts.at("gemm.calls_per_item") + 8.0;
    const double chunk_items = std::floor(kSpanBudget / spans_per_item);
    struct Chunks
    {
        Rollup roll;
        double items = 0, units = 0, wall_ms = 0;
    };
    const auto chunks = [&](double budget_s, bool traced) {
        Chunks c;
        const Clock::time_point t_end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(budget_s));
        do {
            Rollup r;
            const Phase ph = w.throughput(budget_s, chunk_items, traced, r);
            c.roll.add(r);
            c.items += ph.requests();
            c.units += ph.units.sum();
            c.wall_ms += ph.wall_ms;
        } while (Clock::now() < t_end);
        return c;
    };
    const Chunks base = chunks(0.15 * seconds, false);
    const std::uint64_t dropped0 =
        obs::counter("obs.spans_dropped").value();
    Chunks tr = chunks(0.5 * seconds, true);
    Rollup& roll = tr.roll;
    const double untraced = base.units / base.wall_ms;
    const double traced_items = tr.items;
    const double traced = tr.units / tr.wall_ms;
    const double dropped = static_cast<double>(
        obs::counter("obs.spans_dropped").value() - dropped0);
    // Every request of the traced pass counts per item.
    const double per_item = 1.0 / traced_items;

    double covered = roll.replica_ms - roll.engine_ms; // engine idle
    out.push_back({"layer_share.idle",
                   100.0 * covered / roll.replica_ms, "%"});
    for (const char* layer : {"serve", "model", "attn", "gemm", "pool"}) {
        const double v = roll.self_ms.count(layer) ? roll.self_ms[layer]
                                                   : 0.0;
        covered += v;
        out.push_back({std::string("layer_share.") + layer,
                       100.0 * v / roll.replica_ms, "%"});
    }
    const double coverage = 100.0 * covered / roll.replica_ms;
    out.push_back({"trace.coverage_pct", coverage, "%"});
    out.push_back({"trace.overhead_pct",
                   100.0 * (untraced / traced - 1.0), "%"});
    out.push_back({"obs.spans_dropped", dropped, "count"});
    out.push_back({"gemm.calls_per_item", counts.at("gemm.calls_per_item"),
                   "count"});
    out.push_back({"gemm.macs_per_item", roll.macs * per_item,
                   "computed_MAC"});
    out.push_back({"gemm.self_ms_per_item",
                   roll.self_ms["gemm"] * per_item, "ms"});
    out.push_back({"gemm.macs_per_s",
                   roll.gemm_incl_ms > 0
                       ? roll.macs / (roll.gemm_incl_ms * 1e-3)
                       : 0.0,
                   "MAC/s"});
    out.push_back({"pool.fanouts_per_item", roll.pool_fanouts * per_item,
                   "count"});
    out.push_back({"pool.self_ms_per_item",
                   roll.self_ms["pool"] * per_item, "ms"});
    const auto count_or_zero = [&](const char* k) {
        const auto it = counts.find(k);
        return it == counts.end() ? 0.0 : it->second;
    };
    out.push_back({"kv.bytes_per_token",
                   count_or_zero("kv.bytes_per_token"), "bytes"});
    out.push_back({"attn.append_tokens_per_token",
                   count_or_zero("attn.append_tokens_per_token"),
                   "ratio"});
    for (const char* k : {"session.hits", "session.misses",
                          "session.evictions", "serve.batches"})
        out.push_back({std::string("count.") + k, count_or_zero(k),
                       "count"});
    if (dropped != 0) {
        std::printf("TRACE INCOMPLETE: %.0f spans dropped\n", dropped);
        ok = false;
    }
    if (std::fabs(coverage - 100.0) > 5.0) {
        std::printf("TRACE COVERAGE %.2f%% is outside 100 +- 5%%\n",
                    coverage);
        ok = false;
    }
    return out;
}

int
run(const Options& o)
{
    std::unique_ptr<Workload> w;
    if (o.workload == "mlp_score")
        w = std::make_unique<MlpScore>(o);
    else if (o.workload == "gpt_chat")
        w = std::make_unique<GptChat>(o);
    else if (o.workload == "gpt_prompt")
        w = std::make_unique<GptPrompt>(o);
    else
        usage(("unknown workload " + o.workload).c_str());

    const std::string artifact_path =
        o.workdir + "/" + o.workload + "-" + std::to_string(o.seed) + "-" +
        std::to_string(::getpid()) + ".mxfrozen";
    w->prepare(artifact_path);

    // Setup: open + load + engine + first reply, repeated; medians.
    std::vector<double> setup_s, open_ms, load_ms;
    const auto set_up = [&](int reps) {
        for (int rep = 0; rep < reps; ++rep) {
            obs::Span span("bench.load");
            double om = 0, lm = 0;
            const Clock::time_point t0 = Clock::now();
            w->setup(artifact_path, om, lm);
            setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
            open_ms.push_back(om);
            load_ms.push_back(lm);
        }
    };
    set_up(kSetupReps - kSetupReps / 2);

    const std::map<std::string, double> counts = w->count_pass();
    bool correct = check_counts(o, counts);

    std::printf("fingerprint %s\n", fingerprint(o, w->replicas()).c_str());

    std::vector<Metric> out;
    if (!o.trace) {
        std::vector<Metric> e2e, layer;
        w->measure(o.seconds, e2e, layer);
        out.insert(out.end(), e2e.begin(), e2e.end());
        out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
        out = traced_pass(*w, counts, o.seconds, correct);
    }
    set_up(kSetupReps / 2);
    if (o.trace) {
        out.push_back({"artifact.open_ms", percentile(open_ms, 0.5), "ms",
                       open_ms.size()});
        out.push_back({"artifact.load_ms", percentile(load_ms, 0.5), "ms",
                       load_ms.size()});
        out.push_back(
            {"artifact.bytes",
             static_cast<double>(
                 artifact::ArtifactReader(artifact_path).file_size()),
             "bytes"});
    } else {
        out.insert(out.begin(), Metric{"setup_s", percentile(setup_s, 0.5),
                                       "s", setup_s.size()});
    }
    std::remove(artifact_path.c_str());
    const double failed_frac =
        static_cast<double>(w->tally.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, w->tally.attempted));
    // failed_frac is 0 when the program is correct, so it cannot be an
    // end-to-end metric (those must never be 0); with --trace 0 it is
    // shown in the table and carried by the result line's failed and
    // attempted fields.
    const Metric failed{"failed_frac", failed_frac, "ratio",
                        static_cast<std::size_t>(w->tally.attempted)};
    if (o.trace)
        out.push_back(failed);
    correct = correct && w->tally.failed == 0;
    print_result(correct, w->tally, out,
                 o.trace ? std::vector<Metric>{}
                         : std::vector<Metric>{failed});
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
