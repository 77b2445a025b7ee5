/**
 * @file
 * Multi-host coordination of a request batch: the one scheduler
 * that runs a batch beyond the calling process.
 *
 * `runDynamicCoordinatedBatch` splits the batch into many more
 * binding-cohesive work chunks than host slots
 * (`engine/work_queue.h`) and dispatches them through a
 * pluggable `ShardTransport` onto the hosts of a `hosts.json`
 * manifest (`io/host_manifest_io.h`):
 *
 *  - `LocalProcessTransport` runs a chunk as a worker process on
 *    the coordinating machine -- fork/exec of `--shard_worker`
 *    (`engine/shard_runner.h`), or plain fork in the library
 *    mode.
 *  - `CommandTransport` runs a user-supplied command template
 *    (e.g. `ssh {host} eco_chip --shard_worker {sub_batch} ...`)
 *    through `/bin/sh -c`. The sub-batch and report files are
 *    staged in the run's shard directory, which must be visible
 *    to the remote host (shared filesystem) -- see
 *    `docs/distributed.md`.
 *  - Custom transports plug in through
 *    `CoordinatorOptions::transportFactory`; the tests'
 *    fault-injecting one lives in `tests/fault_transport.h`.
 *
 * The scheduler is a single-threaded event loop (so the
 * fork-only library mode stays safe to use) over a pull queue:
 * each free slot pulls the next chunk, workers stream outcomes
 * back as NDJSON events the coordinator tails and merges
 * incrementally, every first-delivered outcome is journaled for
 * `--resume`, and `--progress` / early-abort policies consume
 * the live stream. Stragglers are detected against a
 * configurable deadline, cancelled and re-dispatched -- bounded
 * by `CoordinatorOptions::retries` -- preferring hosts the chunk
 * has not failed on yet, and the merged `BatchReport` stays
 * byte-identical to the single-process `--batch` run no matter
 * how many hosts, failures, or re-dispatches were involved
 * (locked by `tests/test_engine.cpp` and the
 * `coordinate_equivalence` / `shard_equivalence` /
 * `coordinate_resume` CTests).
 *
 * CLI: `eco_chip --coordinate FILE --hosts HOSTS.json`
 * (`docs/cli.md`); operator guide: `docs/distributed.md`.
 */

#ifndef ECOCHIP_ENGINE_SHARD_COORDINATOR_H
#define ECOCHIP_ENGINE_SHARD_COORDINATOR_H

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/host_manifest_io.h"

namespace ecochip {

/** One attempt to run one work chunk on one host. */
struct ShardDispatch
{
    /** Chunk index within the plan. */
    std::size_t shard = 0;

    /** 0-based attempt number for this chunk. */
    std::size_t attempt = 0;

    /** Manifest name of the host this dispatch targets. */
    std::string host;

    /** Sub-batch file the worker must run. */
    std::string subBatchPath;

    /** Where the worker must leave its `BatchReport` JSON. */
    std::string reportPath;

    /**
     * Where the worker streams its NDJSON outcome events
     * (`eventsPathFor(reportPath)` by convention -- see
     * `io/event_journal_io.h`). The coordinator tails this
     * file to merge outcomes while the dispatch is still
     * running.
     */
    std::string eventsPath;

    /** Engine threads the worker should run with. */
    int engineThreads = 1;

    /** Extra scenario catalog (may be empty). */
    std::string scenariosPath;

    /** Worker executable for transports that exec one (empty in
     *  the fork-only library mode). */
    std::string workerExe;
};

/**
 * How a dispatch reaches a host. One transport instance serves
 * one manifest host; a chunk has at most one live dispatch at a
 * time, so the chunk index keys `poll`/`cancel`.
 *
 * The exit-code contract matches the shard-worker convention:
 * 0 = every request ok, 1 = some requests failed (the report is
 * written either way); anything else means the dispatch died
 * without a usable report and the coordinator will retry it.
 */
class ShardTransport
{
  public:
    virtual ~ShardTransport() = default;

    /** Launch @p dispatch; must not block on its completion. */
    virtual void start(const ShardDispatch &dispatch) = 0;

    /**
     * Exit code of @p shard's live dispatch once it finished,
     * `std::nullopt` while it is still running.
     */
    virtual std::optional<int> poll(std::size_t shard) = 0;

    /** Abandon @p shard's live dispatch (straggler cancelled by
     *  the deadline), reaping any resources it held. */
    virtual void cancel(std::size_t shard) = 0;

    /** Transport name for logs and dispatch records. */
    virtual std::string name() const = 0;
};

/**
 * Runs a dispatch as a worker process on the coordinating
 * machine: fork/exec of `ShardDispatch::workerExe` when set
 * (`<exe> --shard_worker <sub_batch> --json <report> ...`), else
 * plain fork with `runShardWorker` in the child -- the
 * library/test/bench path. POSIX only; `start` throws elsewhere.
 */
class LocalProcessTransport : public ShardTransport
{
  public:
    void start(const ShardDispatch &dispatch) override;
    std::optional<int> poll(std::size_t shard) override;
    void cancel(std::size_t shard) override;
    std::string name() const override { return "local"; }

  private:
    /** Live child pid per shard. */
    std::map<std::size_t, long> pids_;
};

/**
 * Runs a dispatch through the host's command template: the
 * `{...}` placeholders are expanded
 * (`io/host_manifest_io.h`) and the line runs under
 * `/bin/sh -c`. The command's exit code is the dispatch's exit
 * code, so remote invocations should propagate the worker's
 * (ssh does). POSIX only; `start` throws elsewhere.
 */
class CommandTransport : public ShardTransport
{
  public:
    /** @param host Manifest entry; `host.command` must be a
     *  validated template. */
    explicit CommandTransport(HostSpec host);

    void start(const ShardDispatch &dispatch) override;
    std::optional<int> poll(std::size_t shard) override;
    void cancel(std::size_t shard) override;
    std::string name() const override { return "command"; }

    /** The expanded command line @p dispatch would run. */
    std::string commandFor(const ShardDispatch &dispatch) const;

  private:
    HostSpec host_;
    std::map<std::size_t, long> pids_;
};

/**
 * A progress snapshot of a coordinated run, delivered
 * through `CoordinatorOptions::onProgress` (the `--progress`
 * consumer).
 */
struct CoordinatorProgress
{
    /** Per-host counters, manifest order. */
    struct Host
    {
        std::string name;
        std::size_t inFlightChunks = 0;
        std::size_t doneChunks = 0;
        std::size_t doneRequests = 0;
    };
    std::vector<Host> hosts;

    std::size_t chunksTotal = 0;
    std::size_t chunksDone = 0;
    std::size_t chunksInFlight = 0;

    std::size_t requestsTotal = 0;

    /** Outcomes merged so far, journal-replayed ones included. */
    std::size_t requestsDone = 0;
    std::size_t requestsFailed = 0;

    /** Outcomes replayed from the journal before dispatching. */
    std::size_t resumedOutcomes = 0;

    /** Seconds since the run started. */
    double elapsedSeconds = 0.0;

    /** Freshly-delivered outcomes per second (resumed outcomes
     *  excluded). */
    double requestsPerSecond = 0.0;

    /** True once the early-abort policy stopped dispatching. */
    bool aborted = false;
};

/** How `runDynamicCoordinatedBatch` schedules a batch onto
 *  hosts. */
struct CoordinatorOptions
{
    /** Batch file to split and dispatch. */
    std::string batchPath;

    /** Host manifest; `totalSlots()` bounds how many chunks run
     *  at once. */
    HostManifest hosts;

    /** Re-dispatches allowed per chunk (>= 0): a chunk may run
     *  `retries + 1` times before the run fails. */
    int retries = 2;

    /**
     * Straggler deadline in seconds: a dispatch running longer
     * is cancelled and re-dispatched (it costs one retry).
     * 0 disables the deadline.
     */
    double shardTimeoutSeconds = 0.0;

    /** Engine threads per worker; 0 sizes automatically
     *  (hardware threads / concurrent workers, at least 1). */
    int engineThreadsPerWorker = 0;

    /**
     * Directory for sub-batch and report files. Empty: a
     * pid-scoped temp directory, removed after the run.
     * Non-empty: created if needed and left in place. Command
     * transports stage files here, so for remote hosts it must
     * be on a shared filesystem.
     */
    std::string shardDir;

    /** Worker executable for transports that exec or name one
     *  (`{worker}`); empty = fork-only local workers. */
    std::string workerExe;

    /** Extra scenario catalog passed through to every worker. */
    std::string scenariosPath;

    /**
     * Transport factory override (tests): called once per
     * manifest host. Unset: local hosts get
     * `LocalProcessTransport`, command hosts get
     * `CommandTransport`.
     */
    std::function<std::shared_ptr<ShardTransport>(
        const HostSpec &)>
        transportFactory;

    /**
     * Target requests per work chunk (`--chunk_size`). 0 sizes
     * automatically: about three chunks per manifest slot, so
     * fast hosts keep pulling while a straggler grinds. Chunks
     * stay binding-cohesive either way (`planChunks`).
     */
    int chunkTargetRequests = 0;

    /**
     * Resume from the shard directory's outcome journal
     * (`--resume`): journaled outcomes are replayed (never
     * re-run) and chunks are planned over the remainder.
     * Requires a non-temporary `shardDir`.
     */
    bool resume = false;

    /**
     * Early-abort policy (`--abort_after_failures`): once this
     * many requests have *failed* (not merely slow), stop
     * dispatching, cancel the undispatched chunks, and let the
     * in-flight ones drain. Unrun requests get synthetic
     * `"aborted"` failure outcomes in the merged report but are
     * not journaled, so a later `--resume` can still finish the
     * batch. 0 disables the policy.
     */
    std::size_t abortAfterFailedRequests = 0;

    /**
     * Progress consumer: invoked from the scheduling loop with
     * throttled snapshots (plus one final snapshot). Must not
     * throw.
     */
    std::function<void(const CoordinatorProgress &)> onProgress;
};

/** One row of a coordinated run's dispatch history. */
struct ShardAttempt
{
    std::size_t shard = 0;
    std::size_t attempt = 0;
    std::string host;

    /** True when the dispatch delivered every outcome of its
     *  chunk. */
    bool ok = false;

    /** "ok", "requests failed", or the failure description
     *  ("died with exit code ...", "missed the ... deadline"). */
    std::string reason;
};

/** What a coordinated run produced. */
struct CoordinatedRunResult
{
    /** Merged `BatchReport` document, original request order, as
     *  canonical compact text -- byte-identical (after
     *  `json::ondemand::reserialize(text, true)`) to the
     *  single-process `--batch --json` report. Produced on the
     *  scan-and-splice merge path without a DOM. */
    std::string mergedReportText;

    /** Engine threads each worker ran with. */
    int threadsPerWorker = 0;

    /** Requests that succeeded / failed across all chunks. */
    std::size_t succeeded = 0;
    std::size_t failed = 0;

    /** Chunk dispatches that were retried (failures +
     *  cancelled stragglers). */
    std::size_t redispatches = 0;

    /** Every dispatch, in completion-handling order. */
    std::vector<ShardAttempt> attempts;

    /** Work chunks planned (0 when the journal already answered
     *  every request). */
    std::size_t chunksPlanned = 0;

    /** Outcomes replayed from the journal (`resume`). */
    std::size_t resumedOutcomes = 0;

    /** True when the early-abort policy cut the run short. */
    bool aborted = false;

    /** Outcome journal path (empty when the scratch directory
     *  was temporary and has been removed). */
    std::string journalPath;

    /** True when every request succeeded. */
    bool allOk() const { return failed == 0; }
};

/**
 * Dynamically schedule @p options.batchPath across the
 * manifest's hosts: free slots *pull* binding-cohesive work
 * chunks (`engine/work_queue.h`) from a shared queue, workers
 * stream outcomes back as NDJSON events, and the merge happens
 * incrementally as events arrive -- so a slow host only ever
 * delays the chunks it actually holds. Every first-delivered
 * outcome is journaled (`journal.ndjson` in the shard
 * directory); `options.resume` replays the journal so a killed
 * coordination continues without re-running finished requests.
 *
 * The merged report stays byte-identical to the single-process
 * `--batch` run at any host count, chunk size, failure pattern,
 * or resume point -- unless the early-abort policy fires, in
 * which case the never-dispatched requests carry synthetic
 * `"aborted"` failure outcomes instead.
 *
 * Failure semantics: a dispatch that exits 0 or 1 but delivers
 * fewer outcomes than its chunk holds, dies with any other exit
 * code, or misses the straggler deadline costs one retry and is
 * re-queued, preferring hosts the chunk has not failed on.
 * Outcomes a failed attempt already streamed are kept, and the
 * retry's duplicates are ignored. Request-level failures are
 * data in the merged report, never retries.
 *
 * @throws ConfigError on invalid options, malformed files
 *         (including a malformed worker event line, named by its
 *         events file), or a journal that does not match the
 *         batch.
 * @throws Error when a chunk exhausts its retries.
 */
CoordinatedRunResult
runDynamicCoordinatedBatch(const CoordinatorOptions &options);

} // namespace ecochip

#endif // ECOCHIP_ENGINE_SHARD_COORDINATOR_H
