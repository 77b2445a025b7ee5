/**
 * @file
 * Always-on analysis server: `eco_chip --serve --socket PATH`.
 *
 * Everything else in the repo is batch-shaped -- load, run, exit
 * -- so every invocation rebuilds its `EvaluationContext`s and
 * recomputes from scratch. The server is the long-lived
 * counterpart: one process listens on a Unix-domain socket,
 * accepts `AnalysisRequest` documents as NDJSON lines (the same
 * wire shapes as `io/batch_report_io.h` -- one request line in,
 * one outcome line out), and services them on a shared
 * `AnalysisEngine`, so the `sessionFor` context cache and the
 * kernel-plan `EvalCache` stay warm across requests and across
 * clients.
 *
 * On top of the warm in-process caches sits a content-addressed
 * persistent result cache (`server/result_cache.h`): a request
 * whose key (SHA-256 of its canonical text + the catalog
 * fingerprint) is already stored answers in O(lookup), and the
 * cached response is byte-identical to a freshly evaluated one.
 *
 * The accept/dispatch/respond loop is single-threaded, following
 * the event-loop skeleton of `engine/shard_coordinator.h`:
 * connections are polled, complete lines are parsed and either
 * answered from the cache or submitted to the engine pool. The
 * worker that finishes a request serializes it, writes its cache
 * object and wakes the loop through its wake pipe; the loop
 * indexes the object and sends the answer as a stream-event line
 * in completion order (the per-connection
 * `index` maps a line back to its request, exactly like
 * `--batch --stream`); the loop never polls on a timer. A
 * malformed or overlong line yields an error event on its
 * connection and never kills the daemon; a disconnected client's
 * in-flight work still completes and warms the cache.
 *
 * Wire protocol (field-by-field in `docs/serving.md`):
 *
 *  - request line: one `requests.json` request object
 *    (`io/request_io.h`), or a control document
 *    `{"control": "stats"}` / `{"control": "shutdown"}`;
 *  - response line: the NDJSON stream event
 *    `{"index": i, "request": ..., "ok": ..., "result"|"error":
 *    ...}`, or the control verb's reply document.
 *
 * Shutdown is graceful on SIGTERM/SIGINT (when handlers are
 * installed) or the `shutdown` verb: the listener closes,
 * in-flight requests drain, buffered responses flush, and the
 * cache index is written. CLI surface: `docs/cli.md`; operator
 * guide: `docs/serving.md`.
 */

#ifndef ECOCHIP_SERVER_ANALYSIS_SERVER_H
#define ECOCHIP_SERVER_ANALYSIS_SERVER_H

#include <cstdint>
#include <memory>
#include <string>

#include "server/result_cache.h"
#include "session/scenario_registry.h"

namespace ecochip {

/** How `AnalysisServer` listens, evaluates, and caches. */
struct ServerOptions
{
    /** Unix-domain socket path to bind (stale socket files from
     *  a dead server are replaced; a live one is an error). */
    std::string socketPath;

    /** Engine worker threads (>= 1). */
    int engineThreads = 1;

    /** Scenario catalog served requests resolve against. */
    ScenarioRegistry registry = ScenarioRegistry::builtin();

    /** Extra scenario catalog file loaded into the registry and
     *  folded into the catalog fingerprint (may be empty). */
    std::string scenariosPath;

    /** Persistent result cache directory; empty disables the
     *  on-disk cache (every request evaluates). */
    std::string cacheDir;

    /** Cache entries kept before LRU eviction; 0 = unbounded. */
    std::size_t cacheMaxEntries = 0;

    /** Install SIGTERM/SIGINT handlers that trigger the graceful
     *  drain (the CLI path; library users call requestStop). */
    bool installSignalHandlers = false;
};

/** Counters the `stats` control verb reports. */
struct ServerStats
{
    /** Analysis requests answered (cache hits included). */
    std::uint64_t served = 0;

    /** Served requests whose outcome carried an error. */
    std::uint64_t failed = 0;

    /** Request lines that did not parse. */
    std::uint64_t malformed = 0;

    /** Connections accepted over the server's lifetime. */
    std::uint64_t connections = 0;

    /** Result-cache counters (all zero when disabled). */
    ResultCacheStats cache;

    /** Warm evaluation contexts (`AnalysisEngine` bindings). */
    std::uint64_t contexts = 0;
};

/**
 * The long-lived daemon behind `eco_chip --serve`. Construct,
 * then `run()` -- which blocks until a stop is requested and the
 * drain completes. `requestStop()` may be called from any thread
 * (or, via the installed handlers, from a signal context).
 */
class AnalysisServer
{
  public:
    /**
     * Bind the socket, open the cache, and build the engine --
     * everything that can fail on bad configuration fails here,
     * before the caller daemonizes.
     *
     * @throws ConfigError on an unusable socket path, a live
     *         server on it, or a bad catalog/cache directory.
     */
    explicit AnalysisServer(ServerOptions options);

    ~AnalysisServer();

    AnalysisServer(const AnalysisServer &) = delete;
    AnalysisServer &operator=(const AnalysisServer &) = delete;

    /** Serve until stopped; returns after the graceful drain. */
    void run();

    /** Begin the graceful drain (thread- and signal-safe). */
    void requestStop();

    /** The bound socket path. */
    const std::string &socketPath() const;

    /**
     * Fingerprint of everything outside a request that can
     * change its answer: a schema version, the registry's
     * scenario names, and the bytes of the extra catalog file.
     * Half of every cache key (see `resultCacheKey`).
     */
    const std::string &catalogFingerprint() const;

    /** Counters so far (stable between `run()` calls). */
    ServerStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * CLI entry point of `--serve`: construct the server, install
 * the signal handlers when asked, run, and report the drain on
 * stdout. Returns the process exit code.
 */
int runAnalysisServer(ServerOptions options);

} // namespace ecochip

#endif // ECOCHIP_SERVER_ANALYSIS_SERVER_H
