/**
 * @file
 * Per-layer tracing tool of the end-to-end benchmark
 * (`perfbench/run.py --trace 1`).
 *
 * It replays what one `eco_chip` execution shape does by calling
 * each layer's public functions itself, and records a span around
 * every call -- no tracing lives inside src/. Spans carry a name
 * (`<layer>.<stage>`), start, end, parent span and request id; they
 * are kept in memory and written at exit as Chrome trace-event JSON
 * (chrome://tracing, Perfetto). Every command prints one JSON line of
 * metrics derived from its spans, including each layer's self time.
 *
 *   layer_trace env
 *   layer_trace run PROGRAM [ARG...]
 *   layer_trace check FILE...
 *   layer_trace batch BATCH THREADS OUT TRACE [untraced]
 *   layer_trace serve LINES CACHE_DIR SOCKET TRACE
 *   layer_trace coordinate BATCH HOSTS SHARD_DIR WORKER CHUNK OUT TRACE
 *
 * `run` runs PROGRAM with its stdout discarded and prints its wall
 * time, exit code, CPU time and peak resident set. A child's
 * `ru_maxrss` starts from the high-water mark of the process that
 * forked it, so measuring through this small process keeps the
 * memory of the Python process that starts it (run.py) out of the
 * number.
 *
 * `batch` mirrors `eco_chip --batch BATCH --engine_threads THREADS
 * --json OUT` (its OUT is byte-identical); `untraced` records no
 * spans, for the tracing-overhead comparison. `serve` replays the
 * server's per-line stages over request LINES against a fresh result
 * cache. `coordinate` runs the `--coordinate` scheduler with a
 * timing transport around the local worker transport, one engine
 * thread per worker like the benchmark's `--coordinate` command.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/analysis_engine.h"
#include "engine/shard_coordinator.h"
#include "io/batch_report_io.h"
#include "io/host_manifest_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "json/json.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "server/analysis_server.h"
#include "server/result_cache.h"

namespace {

using namespace ecochip;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ tracing

struct Span
{
    /** `<layer>.<stage>`; always a string literal. */
    std::string_view name;
    std::int64_t id = 0;
    /** 0 for a root span. */
    std::int64_t parent = 0;
    /** Index of the request the span serves; -1 for none. */
    std::int64_t request = -1;
    int tid = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/** In-memory span store; `record` may be called from any thread. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    Clock::time_point origin() const { return origin_; }
    std::int64_t newId() { return nextId_.fetch_add(1); }

    void record(const Span &span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    /** Read only after every recording thread has been joined. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    std::atomic<std::int64_t> nextId_{1};
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * One span, recorded when it is finished (explicitly or at scope
 * exit). A disabled tracer reads no clock and records nothing.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string_view name,
               std::int64_t parent = 0, std::int64_t request = -1,
               int tid = 0)
        : tracer_(tracer)
    {
        if (!tracer_.enabled())
            return;
        span_ = {name, tracer_.newId(), parent, request, tid,
                 Clock::now(), {}};
    }

    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return span_.id; }

    /** Rename before finishing (outcome-dependent stage names). */
    void rename(std::string_view name) { span_.name = name; }

    /** End and record the span; returns its length in µs. */
    double finish()
    {
        if (!tracer_.enabled() || done_)
            return 0.0;
        done_ = true;
        span_.end = Clock::now();
        tracer_.record(span_);
        return msBetween(span_.start, span_.end) * 1000.0;
    }

  private:
    Tracer &tracer_;
    Span span_;
    bool done_ = false;
};

std::string_view
layerOf(std::string_view name)
{
    return name.substr(0, name.find('.'));
}

struct SpanTotals
{
    double totalMs = 0.0;
    double selfMs = 0.0;
    std::size_t count = 0;
};

/**
 * Total and self time per span name. Self time is the span's length
 * minus the part of it its children cover (children may overlap when
 * they run on several threads, so their intervals are merged first).
 */
std::map<std::string, SpanTotals>
aggregate(const std::vector<Span> &spans)
{
    std::map<std::int64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, SpanTotals> totals;
    for (const Span &s : spans) {
        double covered = 0.0;
        if (auto it = children.find(s.id); it != children.end()) {
            auto kids = it->second;
            std::sort(kids.begin(), kids.end(),
                      [](const Span *a, const Span *b) {
                          return a->start < b->start;
                      });
            Clock::time_point reach = s.start;
            for (const Span *k : kids) {
                const auto from = std::max(k->start, reach);
                const auto to = std::min(k->end, s.end);
                if (to > from) {
                    covered += msBetween(from, to);
                    reach = to;
                }
            }
        }
        SpanTotals &t = totals[std::string(s.name)];
        const double length = msBetween(s.start, s.end);
        t.totalMs += length;
        t.selfMs += length - covered;
        ++t.count;
    }
    return totals;
}

/** Write every span as a Chrome trace-event "complete" event. */
void
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    json::StreamWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : tracer.spans()) {
        const double ts =
            msBetween(tracer.origin(), s.start) * 1000.0;
        w.beginObject();
        w.key("name");
        w.string(s.name);
        w.key("cat");
        w.string(layerOf(s.name));
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.number(ts);
        w.key("dur");
        w.number(msBetween(s.start, s.end) * 1000.0);
        w.key("pid");
        w.number(1);
        w.key("tid");
        w.number(s.tid);
        w.key("args");
        w.beginObject();
        w.key("id");
        w.number(static_cast<double>(s.id));
        w.key("parent");
        w.number(static_cast<double>(s.parent));
        w.key("request");
        w.number(static_cast<double>(s.request));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("displayTimeUnit");
    w.string("ms");
    w.endObject();
    std::ofstream out(path, std::ios::binary);
    out << w.take() << '\n';
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

// ------------------------------------------------------------ output

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One flat JSON line of named numbers plus the span breakdown. */
class MetricsLine
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    void print(const Tracer &tracer) const
    {
        json::StreamWriter w;
        w.beginObject();
        for (const auto &[name, value] : values_) {
            w.key(name);
            w.number(value);
        }
        const auto totals = aggregate(tracer.spans());
        std::map<std::string, double> layer_self;
        w.key("spans");
        w.beginObject();
        for (const auto &[name, t] : totals) {
            layer_self[std::string(layerOf(name))] += t.selfMs;
            w.key(name);
            w.beginObject();
            w.key("total_ms");
            w.number(t.totalMs);
            w.key("self_ms");
            w.number(t.selfMs);
            w.key("count");
            w.number(static_cast<double>(t.count));
            w.endObject();
        }
        w.endObject();
        w.key("layer_self_ms");
        w.beginObject();
        for (const auto &[layer, ms] : layer_self) {
            w.key(layer);
            w.number(ms);
        }
        w.endObject();
        w.endObject();
        std::cout << w.take() << std::endl;
    }

  private:
    std::map<std::string, double> values_;
};

double
spanTotalMs(const Tracer &tracer, std::string_view name)
{
    double sum = 0.0;
    for (const Span &s : tracer.spans())
        if (s.name == name)
            sum += msBetween(s.start, s.end);
    return sum;
}

std::vector<double>
spanLengthsUs(const Tracer &tracer, std::string_view name)
{
    std::vector<double> out;
    for (const Span &s : tracer.spans())
        if (s.name == name)
            out.push_back(msBetween(s.start, s.end) * 1000.0);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeReport(const std::string &text, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    out << text << '\n';
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

bool
isMonteCarlo(const AnalysisRequest &request)
{
    return std::holds_alternative<MonteCarloSpec>(request.spec);
}

// ------------------------------------------------------------ check

/**
 * Numbers of a document that already passed `ondemand::validate`:
 * true when every one of them parses to a finite double.
 */
bool
allNumbersFinite(std::string_view text)
{
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
            continue;
        }
        if (c != '-' && (c < '0' || c > '9'))
            continue;
        std::size_t j = i;
        while (j < text.size() &&
               std::string_view("+-.0123456789eE").find(text[j]) !=
                   std::string_view::npos)
            ++j;
        const std::string token(text.substr(i, j - i));
        if (!std::isfinite(std::strtod(token.c_str(), nullptr)))
            return false;
        i = j - 1;
    }
    return true;
}

int
checkCommand(const std::vector<std::string> &files)
{
    int bad = 0;
    for (const std::string &path : files) {
        try {
            const std::string text = readFile(path);
            json::ondemand::validate(text);
            if (!allNumbersFinite(text))
                throw std::runtime_error("non-finite number");
            std::cout << "ok " << path << "\n";
        } catch (const std::exception &e) {
            std::cout << "invalid " << path << ": " << e.what()
                      << "\n";
            ++bad;
        }
    }
    return bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------ batch

int
batchCommand(const std::string &batch_path, int threads,
             const std::string &out_path,
             const std::string &trace_path, bool traced)
{
    Tracer tracer(traced);
    MetricsLine m;
    const auto t0 = Clock::now();
    std::size_t requests = 0;
    std::size_t failed = 0;
    double mc_trials = 0.0;
    std::vector<double> waits;
    double run_ms = 0.0;
    {
        ScopedSpan root(tracer, "run");
        BatchFile batch;
        {
            ScopedSpan s(tracer, "json.parse", root.id());
            batch = loadBatchFile(batch_path);
        }
        EngineOptions options;
        options.threads = threads;
        if (batch.scenarioCatalog) {
            ScopedSpan s(tracer, "session.catalog", root.id());
            options.registry.loadFile(*batch.scenarioCatalog);
        }
        std::optional<AnalysisEngine> engine;
        {
            ScopedSpan s(tracer, "engine.start", root.id());
            engine.emplace(std::move(options));
        }

        // The engine's own runStream task, with a span around each
        // layer call: sessionFor, then runSpec.
        requests = batch.requests.size();
        BatchReport report;
        report.outcomes.resize(requests);
        waits.assign(requests, 0.0);
        {
            ScopedSpan run(tracer, "engine.run", root.id());
            const auto run_start = Clock::now();
            std::atomic<std::size_t> next{0};
            auto worker = [&](int tid) {
                for (std::size_t i; (i = next++) < requests;) {
                    waits[i] = msBetween(run_start, Clock::now());
                    const auto index = static_cast<std::int64_t>(i);
                    ScopedSpan req(tracer, "engine.request", run.id(),
                                   index, tid);
                    RequestOutcome &outcome = report.outcomes[i];
                    outcome.request = batch.requests[i];
                    try {
                        std::optional<AnalysisSession> session;
                        {
                            ScopedSpan s(tracer, "session.context",
                                         req.id(), index, tid);
                            session.emplace(engine->sessionFor(
                                outcome.request.scenario));
                        }
                        ScopedSpan s(tracer,
                                     isMonteCarlo(outcome.request)
                                         ? "kernels.eval_mc"
                                         : "kernels.eval",
                                     req.id(), index, tid);
                        outcome.result =
                            runSpec(*session, outcome.request.spec);
                    } catch (const std::exception &e) {
                        outcome.error = e.what();
                    } catch (...) {
                        outcome.error = "unknown error";
                    }
                }
            };
            std::vector<std::thread> pool;
            for (int t = 0; t < threads; ++t)
                pool.emplace_back(worker, t + 1);
            for (auto &thread : pool)
                thread.join();
            run_ms = msBetween(run_start, Clock::now());
        }

        std::string text;
        {
            ScopedSpan s(tracer, "json.serialize", root.id());
            text = batchReportText(report, true);
        }
        {
            ScopedSpan s(tracer, "io.write", root.id());
            writeReport(text, out_path);
        }
        failed = report.failed();
        for (const auto &request : batch.requests)
            if (isMonteCarlo(request))
                mc_trials +=
                    std::get<MonteCarloSpec>(request.spec).trials;
        m.set("report_mb", static_cast<double>(text.size()) / 1e6);
        m.set("contexts",
              static_cast<double>(engine->contextCount()));
    }
    const double wall_ms = msBetween(t0, Clock::now());
    m.set("requests", static_cast<double>(requests));
    m.set("failed", static_cast<double>(failed));
    m.set("wall_ms", wall_ms);
    m.set("rps", static_cast<double>(requests) / wall_ms * 1000.0);
    if (traced) {
        const double eval = spanTotalMs(tracer, "kernels.eval");
        const double eval_mc = spanTotalMs(tracer, "kernels.eval_mc");
        m.set("mc_trials", mc_trials);
        m.set("eval_ms", eval + eval_mc);
        m.set("eval_mc_ms", eval_mc);
        m.set("queue_wait_ms",
              requests ? median(waits) : 0.0);
        m.set("busy_share", (eval + eval_mc) / (threads * run_ms));
        writeChromeTrace(tracer, trace_path);
    }
    m.print(tracer);
    return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ serve

/**
 * The analysis server's per-line work (`handleLine` then, on a miss,
 * `completeFinishedJobs`), one stage per span, on one thread.
 */
int
serveCommand(const std::string &lines_path,
             const std::string &cache_dir,
             const std::string &socket_path,
             const std::string &trace_path)
{
    Tracer tracer(true);
    MetricsLine m;
    std::string fingerprint;
    {
        ServerOptions options;
        options.socketPath = socket_path;
        AnalysisServer server(std::move(options));
        fingerprint = server.catalogFingerprint();
    }
    ResultCache cache(ResultCacheOptions{cache_dir, 0});
    AnalysisEngine engine(1);

    std::vector<std::string> lines;
    {
        std::istringstream in(readFile(lines_path));
        for (std::string line; std::getline(in, line);)
            if (!line.empty())
                lines.push_back(line);
    }

    std::size_t hits = 0;
    std::size_t failed = 0;
    std::size_t response_bytes = 0;
    std::vector<double> miss_stages_us;
    {
        ScopedSpan root(tracer, "run");
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const auto index = static_cast<std::int64_t>(i);
            ScopedSpan line(tracer, "server.line", root.id(), index);
            double stages_us = 0.0;
            AnalysisRequest request;
            {
                ScopedSpan s(tracer, "server.line_parse", line.id(),
                             index);
                request = requestFromJson(
                    json::parse(lines[i]),
                    "request #" + std::to_string(i));
                stages_us += s.finish();
            }
            std::string key;
            {
                ScopedSpan s(tracer, "server.cache_key", line.id(),
                             index);
                key = resultCacheKey(request, fingerprint);
                stages_us += s.finish();
            }
            std::optional<std::string> stored;
            {
                ScopedSpan s(tracer, "result_cache.lookup_miss",
                             line.id(), index);
                stored = cache.lookupText(key);
                if (stored)
                    s.rename("result_cache.lookup_hit");
                stages_us += s.finish();
            }
            if (stored) {
                ++hits;
                ScopedSpan s(tracer, "server.event_splice", line.id(),
                             index);
                json::StreamWriter echo;
                appendRequest(echo, request);
                response_bytes += ("{\"index\":" + std::to_string(i) +
                                   ",\"request\":" + echo.take() +
                                   ",\"ok\":true,\"result\":" +
                                   *stored + "}")
                                      .size();
                continue;
            }

            RequestOutcome outcome;
            outcome.request = request;
            try {
                std::optional<AnalysisSession> session;
                {
                    ScopedSpan s(tracer, "session.context", line.id(),
                                 index);
                    session.emplace(engine.sessionFor(request.scenario));
                    stages_us += s.finish();
                }
                ScopedSpan s(tracer,
                             isMonteCarlo(request) ? "kernels.eval_mc"
                                                   : "kernels.eval",
                             line.id(), index);
                outcome.result = runSpec(*session, request.spec);
                stages_us += s.finish();
            } catch (const std::exception &e) {
                outcome.error = e.what();
                ++failed;
            }
            {
                ScopedSpan s(tracer, "server.event_serialize",
                             line.id(), index);
                response_bytes += streamEventLine(i, outcome).size();
                stages_us += s.finish();
            }
            if (outcome.ok()) {
                std::string payload;
                {
                    ScopedSpan s(tracer, "server.result_serialize",
                                 line.id(), index);
                    json::StreamWriter writer;
                    appendResult(writer, *outcome.result);
                    payload = writer.take();
                    stages_us += s.finish();
                }
                ScopedSpan s(tracer, "result_cache.store", line.id(),
                             index);
                cache.storeText(key, payload);
                stages_us += s.finish();
            }
            miss_stages_us.push_back(stages_us);
        }
    }
    m.set("requests", static_cast<double>(lines.size()));
    m.set("hits", static_cast<double>(hits));
    m.set("responses_mb", static_cast<double>(response_bytes) / 1e6);
    m.set("failed", static_cast<double>(failed));
    m.set("line_parse_us",
          median(spanLengthsUs(tracer, "server.line_parse")));
    m.set("cache_key_us",
          median(spanLengthsUs(tracer, "server.cache_key")));
    m.set("lookup_hit_us",
          median(spanLengthsUs(tracer, "result_cache.lookup_hit")));
    m.set("lookup_miss_us",
          median(spanLengthsUs(tracer, "result_cache.lookup_miss")));
    m.set("store_us",
          median(spanLengthsUs(tracer, "result_cache.store")));
    m.set("event_serialize_us",
          median(spanLengthsUs(tracer, "server.event_serialize")));
    m.set("miss_stages_us", median(miss_stages_us));
    writeChromeTrace(tracer, trace_path);
    m.print(tracer);
    return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ coordinate

/** What the timing transports observed across all hosts. */
struct CoordinatorObservations
{
    std::size_t dispatches = 0;
    std::size_t polls = 0;
    std::vector<double> spanMs;
    std::vector<double> reapLagMs;
};

double
realtimeSeconds(const timespec &ts)
{
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * `ShardTransport` decorator: counts dispatches and polls, records a
 * span per dispatch from start until the poll that observed its
 * exit, and how long that poll came after the worker's last write to
 * its report or events file.
 */
class TimingTransport : public ShardTransport
{
  public:
    TimingTransport(std::shared_ptr<ShardTransport> inner,
                    Tracer &tracer, std::int64_t parent, int tid,
                    CoordinatorObservations &seen)
        : inner_(std::move(inner)), tracer_(tracer), parent_(parent),
          tid_(tid), seen_(seen)
    {
    }

    void start(const ShardDispatch &dispatch) override
    {
        ++seen_.dispatches;
        live_[dispatch.shard] = {dispatch, Clock::now()};
        inner_->start(dispatch);
    }

    std::optional<int> poll(std::size_t shard) override
    {
        ++seen_.polls;
        const std::optional<int> code = inner_->poll(shard);
        if (code)
            observeExit(shard);
        return code;
    }

    void cancel(std::size_t shard) override
    {
        inner_->cancel(shard);
        live_.erase(shard);
    }

    std::string name() const override { return inner_->name(); }

  private:
    struct Live
    {
        ShardDispatch dispatch;
        Clock::time_point start;
    };

    void observeExit(std::size_t shard)
    {
        const auto it = live_.find(shard);
        if (it == live_.end())
            return;
        const Live &live = it->second;
        const auto now = Clock::now();
        timespec wall{};
        clock_gettime(CLOCK_REALTIME, &wall);
        double last_write = 0.0;
        for (const std::string &path :
             {live.dispatch.reportPath, live.dispatch.eventsPath}) {
            struct stat st{};
            if (!path.empty() && stat(path.c_str(), &st) == 0)
                last_write =
                    std::max(last_write, realtimeSeconds(st.st_mtim));
        }
        if (last_write > 0.0)
            seen_.reapLagMs.push_back(
                (realtimeSeconds(wall) - last_write) * 1000.0);
        seen_.spanMs.push_back(msBetween(live.start, now));
        tracer_.record({"coordinator.chunk", tracer_.newId(), parent_,
                        static_cast<std::int64_t>(shard), tid_,
                        live.start, now});
        live_.erase(it);
    }

    std::shared_ptr<ShardTransport> inner_;
    Tracer &tracer_;
    const std::int64_t parent_;
    const int tid_;
    CoordinatorObservations &seen_;
    std::map<std::size_t, Live> live_;
};

int
coordinateCommand(const std::string &batch_path,
                  const std::string &hosts_path,
                  const std::string &shard_dir,
                  const std::string &worker, int chunk,
                  const std::string &out_path,
                  const std::string &trace_path)
{
    Tracer tracer(true);
    MetricsLine m;
    CoordinatorObservations seen;
    CoordinatedRunResult result;
    {
        ScopedSpan root(tracer, "run");
        CoordinatorOptions options;
        options.batchPath = batch_path;
        options.hosts = loadHostManifest(hosts_path);
        options.shardDir = shard_dir;
        options.workerExe = worker;
        options.chunkTargetRequests = chunk;
        options.engineThreadsPerWorker = 1;
        int next_tid = 1;
        {
            ScopedSpan run(tracer, "coordinator.run", root.id());
            options.transportFactory = [&, run_id = run.id()](
                                           const HostSpec &host) {
                std::shared_ptr<ShardTransport> inner;
                if (host.isLocal())
                    inner = std::make_shared<LocalProcessTransport>();
                else
                    inner = std::make_shared<CommandTransport>(host);
                return std::make_shared<TimingTransport>(
                    inner, tracer, run_id, next_tid++, seen);
            };
            result = runDynamicCoordinatedBatch(options);
        }
        std::string text;
        {
            ScopedSpan s(tracer, "json.serialize", root.id());
            text = json::ondemand::reserialize(result.mergedReportText,
                                               true);
        }
        ScopedSpan s(tracer, "io.write", root.id());
        writeReport(text, out_path);
    }

    // Each chunk's worker loads the chunk file and builds one
    // evaluation context per distinct binding in it; rebuild those
    // contexts here, chunk by chunk, to time that set-up work.
    std::size_t contexts = 0;
    {
        ScopedSpan root(tracer, "session.replay");
        for (const auto &entry :
             std::filesystem::directory_iterator(shard_dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("chunk_", 0) != 0 ||
                entry.path().extension() != ".json")
                continue;
            const BatchFile chunk_file =
                loadBatchFile(entry.path().string());
            EngineOptions options;
            if (chunk_file.scenarioCatalog) {
                ScopedSpan s(tracer, "session.catalog", root.id());
                options.registry.loadFile(*chunk_file.scenarioCatalog);
            }
            AnalysisEngine engine(std::move(options));
            std::set<std::string> bindings;
            for (const auto &request : chunk_file.requests) {
                if (!bindings.insert(request.scenario.label()).second)
                    continue;
                ScopedSpan s(tracer, "session.context", root.id());
                engine.sessionFor(request.scenario);
            }
            contexts += bindings.size();
        }
    }

    m.set("requests",
          static_cast<double>(result.succeeded + result.failed));
    m.set("failed", static_cast<double>(result.failed));
    m.set("chunks", static_cast<double>(result.chunksPlanned));
    m.set("dispatches", static_cast<double>(seen.dispatches));
    m.set("redispatches", static_cast<double>(result.redispatches));
    m.set("polls", static_cast<double>(seen.polls));
    m.set("chunk_span_ms", median(seen.spanMs));
    m.set("reap_lag_ms", median(seen.reapLagMs));
    m.set("journal_mb",
          result.journalPath.empty()
              ? 0.0
              : static_cast<double>(
                    std::filesystem::file_size(result.journalPath)) /
                    1e6);
    m.set("contexts", static_cast<double>(contexts));
    m.set("context_build_ms", spanTotalMs(tracer, "session.context"));
    m.set("coordinate_ms", spanTotalMs(tracer, "coordinator.run"));
    writeChromeTrace(tracer, trace_path);
    m.print(tracer);
    return result.failed == 0 ? 0 : 1;
}

int
runCommand(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t parent = getpid();
    const auto start = Clock::now();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // Die with this process, so killing it stops the program.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        const int null = open("/dev/null", O_WRONLY);
        if (null >= 0)
            dup2(null, STDOUT_FILENO);
        execv(argv[0], argv.data());
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0)
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    const double wall_s = msBetween(start, Clock::now()) / 1000.0;
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };

    json::StreamWriter w;
    w.beginObject();
    w.key("wall_s");
    w.number(wall_s);
    w.key("exit");
    w.number(WIFEXITED(status) ? WEXITSTATUS(status)
                               : 128 + WTERMSIG(status));
    w.key("cpu_s");
    w.number(seconds(usage.ru_utime) + seconds(usage.ru_stime));
    w.key("rss_mb");
    w.number(static_cast<double>(usage.ru_maxrss) / 1024.0);
    w.endObject();
    std::cout << w.take() << std::endl;
    return 0;
}

int
envCommand()
{
    json::StreamWriter w;
    w.beginObject();
    w.key("compiler");
    w.string(PERFBENCH_COMPILER);
    w.key("build_type");
    w.string(PERFBENCH_BUILD_TYPE);
    w.key("ndebug");
#ifdef NDEBUG
    w.boolean(true);
#else
    w.boolean(false);
#endif
    w.endObject();
    std::cout << w.take() << std::endl;
    return 0;
}

int
usage()
{
    std::cerr
        << "usage: layer_trace env\n"
           "       layer_trace run PROGRAM [ARG...]\n"
           "       layer_trace check FILE...\n"
           "       layer_trace batch BATCH THREADS OUT TRACE "
           "[untraced]\n"
           "       layer_trace serve LINES CACHE_DIR SOCKET TRACE\n"
           "       layer_trace coordinate BATCH HOSTS SHARD_DIR "
           "WORKER CHUNK OUT TRACE\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    try {
        const std::string &cmd = args[0];
        if (cmd == "env" && args.size() == 1)
            return envCommand();
        if (cmd == "run" && args.size() >= 2)
            return runCommand({args.begin() + 1, args.end()});
        if (cmd == "check" && args.size() >= 2)
            return checkCommand({args.begin() + 1, args.end()});
        if (cmd == "batch" &&
            (args.size() == 5 ||
             (args.size() == 6 && args[5] == "untraced")))
            return batchCommand(args[1], std::stoi(args[2]), args[3],
                                args[4], args.size() == 5);
        if (cmd == "serve" && args.size() == 5)
            return serveCommand(args[1], args[2], args[3], args[4]);
        if (cmd == "coordinate" && args.size() == 8)
            return coordinateCommand(args[1], args[2], args[3],
                                     args[4], std::stoi(args[5]),
                                     args[6], args[7]);
    } catch (const std::exception &e) {
        std::cerr << "layer_trace: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
