#include "engine/shard_coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>
#include <utility>

#include "engine/analysis_engine.h"
#include "engine/shard_runner.h"
#include "engine/work_queue.h"
#include "io/event_journal_io.h"
#include "io/request_io.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define ECOCHIP_COORD_HAS_FORK 1
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ECOCHIP_COORD_HAS_FORK 0
#endif

namespace ecochip {

namespace {

#if ECOCHIP_COORD_HAS_FORK

/**
 * Fork one child: exec'ing @p argv_strings when non-empty, else
 * running @p in_child. Returns the child's pid. The child _exits
 * (never exit) so it cannot flush stdio buffers or run atexit
 * handlers inherited from the parent.
 */
long
spawnChild(const std::vector<std::string> &argv_strings,
           const std::function<int()> &in_child)
{
    const pid_t pid = fork();
    if (pid < 0)
        throw ModelError("fork() failed spawning a shard "
                         "dispatch");
    if (pid == 0) {
        // Own process group, so cancelling a straggler can kill
        // the whole tree -- a compound command template keeps
        // /bin/sh alive as the worker's parent, and killing the
        // shell alone would orphan the worker. Both sides call
        // setpgid to close the fork/exec race; failure is
        // harmless (the child stays in the parent's group and
        // the direct kill below still lands).
        setpgid(0, 0);
        if (!argv_strings.empty()) {
            std::vector<char *> argv;
            for (const auto &arg : argv_strings)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            execvp(argv[0], argv.data());
            _exit(127); // exec failed
        }
        int code = 125;
        try {
            code = in_child();
        } catch (...) {
            code = 125;
        }
        _exit(code);
    }
    setpgid(pid, pid); // see the child-side call above
    return pid;
}

/**
 * Non-blocking wait: the child's exit code once it finished
 * (signal-terminated children report 128 + signo, un-waitable
 * ones -1), nullopt while it is still running.
 */
std::optional<int>
pollChild(long pid)
{
    int status = 0;
    pid_t waited;
    do {
        waited = waitpid(static_cast<pid_t>(pid), &status,
                         WNOHANG);
    } while (waited < 0 && errno == EINTR);
    if (waited == 0)
        return std::nullopt;
    if (waited != static_cast<pid_t>(pid))
        return -1; // unaccountable child
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return std::nullopt; // stopped/continued: still running
}

/** Kill and reap a straggler child and its process group. */
void
killChild(long pid)
{
    // Group first (shell wrappers, compound commands), then the
    // direct child in case setpgid lost its race.
    kill(-static_cast<pid_t>(pid), SIGKILL);
    kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    pid_t waited;
    do {
        waited = waitpid(static_cast<pid_t>(pid), &status, 0);
    } while (waited < 0 && errno == EINTR);
}

#else // !ECOCHIP_COORD_HAS_FORK

[[noreturn]] void
throwNoFork()
{
    throw ConfigError(
        "process transports require a POSIX platform "
        "(fork/exec); inject a custom ShardTransport instead");
}

#endif // ECOCHIP_COORD_HAS_FORK

/** Shared poll step for the pid-keyed transports. */
std::optional<int>
pollPidTable(std::map<std::size_t, long> &pids,
             std::size_t shard)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)pids;
    (void)shard;
    throwNoFork();
#else
    const auto it = pids.find(shard);
    requireModel(it != pids.end(),
                 "poll() on a shard with no live dispatch");
    const auto code = pollChild(it->second);
    if (code)
        pids.erase(it);
    return code;
#endif
}

/** Shared cancel step for the pid-keyed transports. */
void
cancelPidTable(std::map<std::size_t, long> &pids,
               std::size_t shard)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)pids;
    (void)shard;
    throwNoFork();
#else
    const auto it = pids.find(shard);
    requireModel(it != pids.end(),
                 "cancel() on a shard with no live dispatch");
    killChild(it->second);
    pids.erase(it);
#endif
}

} // namespace

// ---------------------------------------------- LocalProcessTransport

void
LocalProcessTransport::start(const ShardDispatch &dispatch)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)dispatch;
    throwNoFork();
#else
    std::vector<std::string> argv;
    if (!dispatch.workerExe.empty()) {
        argv = {dispatch.workerExe,
                "--shard_worker",
                dispatch.subBatchPath,
                "--json",
                dispatch.reportPath,
                "--engine_threads",
                std::to_string(dispatch.engineThreads)};
        if (!dispatch.scenariosPath.empty()) {
            argv.push_back("--scenarios");
            argv.push_back(dispatch.scenariosPath);
        }
    }
    // Fork-only mode runs the worker in the child directly; the
    // coordinator's event loop is single-threaded, so the usual
    // POSIX fork-from-one-thread precondition holds (see
    // engine/shard_runner.h).
    pids_[dispatch.shard] = spawnChild(argv, [dispatch] {
        return runShardWorker(
            dispatch.subBatchPath, dispatch.reportPath,
            dispatch.engineThreads, dispatch.scenariosPath,
            dispatch.eventsPath);
    });
#endif
}

std::optional<int>
LocalProcessTransport::poll(std::size_t shard)
{
    return pollPidTable(pids_, shard);
}

void
LocalProcessTransport::cancel(std::size_t shard)
{
    cancelPidTable(pids_, shard);
}

// ---------------------------------------------- CommandTransport

namespace {

/**
 * POSIX-shell-quote one substituted value. Values made only of
 * known-safe characters pass through untouched (keeps the
 * common expanded command readable and ssh-friendly); anything
 * else -- a shard dir with spaces, a quote -- is single-quoted
 * with embedded quotes escaped, so it can never split into
 * extra words or grow shell syntax inside `/bin/sh -c`.
 */
std::string
shellQuote(const std::string &value)
{
    static const char *safe =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "0123456789" "_@%+=:,./-";
    if (!value.empty() &&
        value.find_first_not_of(safe) == std::string::npos)
        return value;
    std::string quoted = "'";
    for (const char c : value) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

} // namespace

CommandTransport::CommandTransport(HostSpec host)
    : host_(std::move(host))
{
    requireConfig(!host_.command.empty(),
                  "host \"" + host_.name +
                      "\" has no command template; use the "
                      "local transport instead");
    validateCommandTemplate(host_.command,
                            "host \"" + host_.name + "\"");
}

std::string
CommandTransport::commandFor(const ShardDispatch &dispatch) const
{
    if (dispatch.workerExe.empty() &&
        host_.command.find("{worker}") != std::string::npos)
        throw ConfigError(
            "host \"" + host_.name +
            "\" names {worker} in its command template but "
            "this run has no worker executable");
    const std::vector<std::pair<std::string, std::string>>
        values = {
        {"host", shellQuote(host_.name)},
        {"worker", shellQuote(dispatch.workerExe)},
        {"sub_batch", shellQuote(dispatch.subBatchPath)},
        {"report", shellQuote(dispatch.reportPath)},
        {"events",
         shellQuote(dispatch.eventsPath.empty()
                        ? eventsPathFor(dispatch.reportPath)
                        : dispatch.eventsPath)},
        {"threads", std::to_string(dispatch.engineThreads)},
        {"scenarios_args",
         dispatch.scenariosPath.empty()
             ? std::string()
             : "--scenarios " +
                   shellQuote(dispatch.scenariosPath)},
    };
    return expandCommandTemplate(host_.command, values);
}

void
CommandTransport::start(const ShardDispatch &dispatch)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)dispatch;
    throwNoFork();
#else
    const std::string command = commandFor(dispatch);
    pids_[dispatch.shard] =
        spawnChild({"/bin/sh", "-c", command}, {});
#endif
}

std::optional<int>
CommandTransport::poll(std::size_t shard)
{
    return pollPidTable(pids_, shard);
}

void
CommandTransport::cancel(std::size_t shard)
{
    cancelPidTable(pids_, shard);
}

// ---------------------------------------------- coordinator

namespace {

using SteadyClock = std::chrono::steady_clock;

void
validateOptions(const CoordinatorOptions &options)
{
    requireConfig(!options.hosts.hosts.empty(),
                  "host manifest names no hosts");
    requireConfig(options.retries >= 0,
                  "--retries must be >= 0");
    requireConfig(options.shardTimeoutSeconds >= 0.0,
                  "--shard_timeout must be positive "
                  "(0 disables the deadline)");
    requireConfig(options.engineThreadsPerWorker >= 0,
                  "engine threads per worker must be >= 1 "
                  "(or 0 for automatic)");
    requireConfig(options.chunkTargetRequests >= 0,
                  "--chunk_size must be positive "
                  "(or 0 for automatic)");
    requireConfig(!options.resume || !options.shardDir.empty(),
                  "--resume replays the outcome journal of a "
                  "previous run; it requires --shard_dir");
}

/** The run's scratch directory: `shardDir` (left in place), or a
 *  pid-scoped temp directory removed however the run ends. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &shard_dir)
        : temporary(shard_dir.empty()),
          path(temporary ? temporaryPath() : shard_dir)
    {
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    ~ScratchDir()
    {
        std::error_code ec;
        if (temporary)
            std::filesystem::remove_all(path, ec);
    }
    static std::string temporaryPath()
    {
#if ECOCHIP_COORD_HAS_FORK
        const long pid = static_cast<long>(getpid());
#else
        const long pid = 0;
#endif
        return (std::filesystem::temp_directory_path() /
                ("ecochip_coordinate_" + std::to_string(pid)))
            .string();
    }
    const bool temporary;
    const std::string path;
};

/**
 * On resume, replay the journal at @p journal_path into @p merger
 * (each entry must answer this batch's request at its index) and
 * return the outcomes replayed. A fresh run unlinks a stale
 * journal, so a reused shard_dir cannot leak old outcomes.
 */
std::size_t
replayJournal(const std::string &journal_path,
              const CoordinatorOptions &options,
              const BatchFile &batch, IncrementalMerger &merger)
{
    if (!options.resume) {
        std::error_code stale_ec;
        std::filesystem::remove(journal_path, stale_ec);
        return 0;
    }
    const std::string foreign =
        "; the journal belongs to a different batch -- remove it "
        "or run without --resume";
    const std::size_t total = batch.requests.size();
    std::size_t resumed = 0;
    for (auto &entry : replayEventJournalText(journal_path)) {
        requireConfig(entry.index < total,
                      journal_path + ": journaled index " +
                          std::to_string(entry.index) +
                          " is out of range for this batch (" +
                          std::to_string(total) + " requests)" +
                          foreign);
        // The journaled outcome is canonical compact text, so its
        // "request" span compares directly against the canonical
        // request serialization -- no DOM on either side.
        json::StreamWriter expected;
        appendRequest(expected, batch.requests[entry.index]);
        const auto echoed =
            json::ondemand::findMember(entry.outcome, "request");
        requireConfig(echoed && *echoed == expected.take(),
                      journal_path +
                          ": the journaled outcome for index " +
                          std::to_string(entry.index) +
                          " does not answer this batch's request "
                          "at that index" +
                          foreign);
        if (merger.add(entry.index, std::move(entry.outcome)))
            ++resumed;
    }
    return resumed;
}

/** Binding-cohesive chunks over the requests still unanswered. */
ChunkPlan
planRemaining(const CoordinatorOptions &options,
              const BatchFile &batch,
              const std::vector<std::size_t> &remaining)
{
    if (remaining.empty())
        return {};
    // Auto target: ~3 chunks per slot, so fast hosts keep pulling
    // while a straggler grinds on one.
    const std::size_t chunks =
        3 * static_cast<std::size_t>(
                std::max(1, options.hosts.totalSlots()));
    const int target =
        options.chunkTargetRequests > 0
            ? options.chunkTargetRequests
            : static_cast<int>(std::max<std::size_t>(
                  1, (remaining.size() + chunks - 1) / chunks));
    return planChunksOver(batch.requests, remaining, target);
}

/** Engine threads per worker: explicit, or the machine divided
 *  between the workers that can actually run at once. */
int
workerThreadsFor(const CoordinatorOptions &options,
                 std::size_t chunk_count)
{
    if (options.engineThreadsPerWorker > 0)
        return options.engineThreadsPerWorker;
    const int concurrent =
        std::max(1, std::min(options.hosts.totalSlots(),
                             static_cast<int>(chunk_count)));
    return std::max(1, Parallelism::hardware().threads / concurrent);
}

/**
 * The outcomes of the `BatchReport` file at @p path, each as
 * canonical compact text, scanned without a DOM; empty when the
 * file is missing or is not a readable report.
 */
std::vector<std::string>
readReportOutcomes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string text(std::istreambuf_iterator<char>(in), {});
    std::vector<std::string> outcomes;
    try {
        json::ondemand::Scanner scanner(text);
        scanner.beginObject();
        std::string key;
        while (scanner.nextMember(key)) {
            if (key != "outcomes") {
                scanner.rawValue();
                continue;
            }
            scanner.beginArray();
            json::StreamWriter writer;
            while (scanner.nextElement()) {
                json::ondemand::reserializeValue(scanner, writer);
                outcomes.push_back(writer.take());
            }
        }
        scanner.expectEnd();
    } catch (const std::exception &) {
        return {};
    }
    return outcomes;
}

/** The synthetic failure an aborted run reports for a request it
 *  never ran: visible in the report, absent from the journal, so
 *  `--resume` can still finish it. */
std::string
abortedOutcome(const AnalysisRequest &request,
               std::size_t failure_threshold)
{
    json::StreamWriter writer;
    writer.beginObject();
    writer.key("request");
    appendRequest(writer, request);
    writer.key("ok");
    writer.boolean(false);
    writer.key("error");
    writer.string("aborted: the early-abort policy stopped "
                  "dispatching after " +
                  std::to_string(failure_threshold) +
                  " failed request(s)");
    writer.endObject();
    return writer.take();
}

/** Scheduling state of one work chunk. */
struct ChunkState
{
    std::size_t attempts = 0; // dispatches started so far
    std::set<std::size_t> excludedHosts; // hosts it failed on
    /** The live dispatch; unset while not in flight. */
    std::optional<ShardDispatch> live;
    /** Host index and start time of the latest dispatch. */
    std::size_t host = 0;
    SteadyClock::time_point started;
    NdjsonTailReader events; // tail of the live event file
    /** Outcomes merged so far, across all attempts. */
    std::size_t deliveredRequests = 0;
};

/**
 * One coordinated run: its state and the steps of its
 * single-threaded loop. Each turn, `dispatchReady` hands every
 * ready chunk to a free slot; then each in-flight chunk, in chunk
 * order, is `drain`ed and then `reap`ed (its dispatch exited) or
 * `expire`d (it missed the deadline). Failures go through
 * `retry`; `release` is the one place a chunk leaves flight.
 */
struct CoordinatorRun
{
    const CoordinatorOptions &options;
    const BatchFile &batch;
    std::vector<std::shared_ptr<ShardTransport>> transports;
    IncrementalMerger merger;
    EventJournalWriter journal;
    ChunkPlan plan;
    std::vector<std::string> chunkFiles;
    std::vector<ChunkState> chunks;
    std::vector<int> freeSlots;
    std::deque<std::size_t> ready;
    std::vector<CoordinatorProgress::Host> hostProgress;
    std::size_t completed = 0;
    std::size_t abandoned = 0;
    std::size_t freshDelivered = 0;
    bool aborted = false;
    SteadyClock::time_point runStart;
    SteadyClock::time_point lastEmit;
    CoordinatedRunResult result;

    /** Setup: journal replay, chunk plan and files, threads. */
    CoordinatorRun(
        const CoordinatorOptions &run_options,
        const BatchFile &run_batch,
        std::vector<std::shared_ptr<ShardTransport>> run_transports,
        const std::string &dir)
        : options(run_options), batch(run_batch),
          transports(std::move(run_transports)),
          merger(run_batch.requests.size())
    {
        std::filesystem::create_directories(dir);
        result.journalPath =
            (std::filesystem::path(dir) / coordinatorJournalName())
                .string();
        result.resumedOutcomes =
            replayJournal(result.journalPath, options, batch, merger);
        journal.open(result.journalPath, options.resume);

        plan = planRemaining(options, batch, merger.missingIndices());
        result.chunksPlanned = plan.chunkCount();
        result.threadsPerWorker =
            workerThreadsFor(options, result.chunksPlanned);
        chunkFiles = writeChunkFiles(batch, plan, dir);

        chunks.resize(result.chunksPlanned);
        for (std::size_t c = 0; c < chunks.size(); ++c)
            ready.push_back(c);
        for (const auto &host : options.hosts.hosts) {
            freeSlots.push_back(host.slots);
            hostProgress.emplace_back().name = host.name;
        }
        runStart = SteadyClock::now();
        lastEmit = runStart - std::chrono::hours(1);
    }

    /** Schedule every chunk to completion (or abort) and merge;
     *  live dispatches are cancelled if the run throws. */
    CoordinatedRunResult run()
    {
        try {
            std::chrono::milliseconds idle_sleep{1};
            constexpr std::chrono::milliseconds max_idle_sleep{50};
            maybeAbort(); // resumed failures may already trip it
            while (!settled()) {
                dispatchReady();
                if (pollInFlight()) {
                    idle_sleep = std::chrono::milliseconds{1};
                } else if (!settled()) {
                    std::this_thread::sleep_for(idle_sleep);
                    idle_sleep =
                        std::min(idle_sleep * 2, max_idle_sleep);
                }
            }
        } catch (...) {
            cancelInFlight();
            throw;
        }
        if (aborted)
            for (std::size_t index : merger.missingIndices())
                merger.add(index,
                           abortedOutcome(
                               batch.requests[index],
                               options.abortAfterFailedRequests));
        result.aborted = aborted;
        result.mergedReportText = merger.reportText(false);
        result.succeeded = merger.doneCount() - merger.failedCount();
        result.failed = merger.failedCount();
        emitProgress(true); // final snapshot
        return std::move(result);
    }

    bool settled() const { return completed + abandoned >= chunks.size(); }

    /** Pull: every free slot takes the next queued chunk; a chunk
     *  no host can take yet goes to the back of the queue. */
    void dispatchReady()
    {
        for (std::size_t n = ready.size(); n > 0; --n) {
            const std::size_t chunk = ready.front();
            ready.pop_front();
            const auto host = pickHost(chunks[chunk]);
            if (!host) {
                ready.push_back(chunk); // wait for a slot
                continue;
            }
            start(chunk, *host);
            emitProgress(false);
        }
    }

    /** The first host (manifest order) with a free slot that @p st
     *  has not failed on; once it failed everywhere, any host will
     *  do -- a one-host manifest must still be able to retry. */
    std::optional<std::size_t> pickHost(const ChunkState &st) const
    {
        const bool failed_everywhere =
            st.excludedHosts.size() >= freeSlots.size();
        for (std::size_t h = 0; h < freeSlots.size(); ++h)
            if (freeSlots[h] > 0 &&
                (failed_everywhere || st.excludedHosts.count(h) == 0))
                return h;
        return std::nullopt;
    }

    void start(std::size_t chunk, std::size_t host)
    {
        ChunkState &st = chunks[chunk];
        ShardDispatch dispatch;
        dispatch.shard = chunk;
        dispatch.attempt = st.attempts;
        dispatch.host = options.hosts.hosts[host].name;
        dispatch.subBatchPath = chunkFiles[chunk];
        // Retries write to a fresh per-attempt path: a cancelled
        // straggler whose worker outlives the kill (an orphan
        // behind ssh or a shell wrapper) may still scribble on
        // *its* files, and must never race the retry's output.
        dispatch.reportPath = chunkFiles[chunk] + ".report";
        if (st.attempts > 0)
            dispatch.reportPath +=
                ".retry" + std::to_string(st.attempts);
        dispatch.eventsPath = eventsPathFor(dispatch.reportPath);
        dispatch.engineThreads = result.threadsPerWorker;
        dispatch.scenariosPath = options.scenariosPath;
        dispatch.workerExe = options.workerExe;

        // Stale outputs (previous run, reused shard_dir) must
        // never merge as this dispatch's.
        std::error_code ec;
        std::filesystem::remove(dispatch.reportPath, ec);
        std::filesystem::remove(dispatch.eventsPath, ec);

        // In flight only once start() returned: a dispatch that
        // never started holds no slot and has nothing to cancel.
        const auto started = SteadyClock::now();
        transports[host]->start(dispatch);
        ++st.attempts;
        st.host = host;
        st.started = started;
        st.events.reset(dispatch.eventsPath);
        st.live = std::move(dispatch);
        --freeSlots[host];
        ++hostProgress[host].inFlightChunks;
    }

    /** Drain, then reap or expire, each in-flight chunk in chunk
     *  order; true when anything happened. */
    bool pollInFlight()
    {
        bool progressed = false;
        for (std::size_t chunk = 0; chunk < chunks.size(); ++chunk) {
            const ChunkState &st = chunks[chunk];
            if (!st.live)
                continue;
            if (drain(chunk))
                progressed = true;
            if (const auto code = transports[st.host]->poll(chunk))
                reap(chunk, *code);
            else if (overdue(st))
                expire(chunk);
            else
                continue;
            progressed = true;
            maybeAbort();
            emitProgress(false);
        }
        return progressed;
    }

    bool overdue(const ChunkState &st) const
    {
        return options.shardTimeoutSeconds > 0.0 &&
               std::chrono::duration<double>(SteadyClock::now() -
                                             st.started)
                       .count() > options.shardTimeoutSeconds;
    }

    /** Deliver the new complete event lines of @p chunk's live
     *  dispatch; true when any arrived. */
    bool drain(std::size_t chunk)
    {
        NdjsonTailReader &events = chunks[chunk].events;
        bool any = false;
        for (const auto &line : events.poll()) {
            // splitEventLine's scan validates the whole line; a
            // parse error must still name the events file.
            JournalEntryText entry;
            try {
                entry = splitEventLine(line, events.path());
            } catch (const std::exception &e) {
                throw ConfigError(events.path() +
                                  ": malformed worker event line: " +
                                  e.what());
            }
            deliver(chunk, entry.index, std::move(entry.outcome));
            any = true;
        }
        return any;
    }

    /** First delivery of a chunk-local outcome: journal, merge,
     *  count. A duplicate (a retry re-streaming what a failed
     *  attempt delivered) is dropped: results are deterministic. */
    void deliver(std::size_t chunk, std::size_t local,
                 std::string outcome_text)
    {
        const auto &indices = plan.chunks[chunk];
        requireConfig(local < indices.size(),
                      "chunk #" + std::to_string(chunk) +
                          " delivered an event for index " +
                          std::to_string(local) +
                          " but holds only " +
                          std::to_string(indices.size()) +
                          " requests");
        const std::size_t original = indices[local];
        if (merger.filled(original))
            return;
        journal.append(original, std::string_view(outcome_text));
        merger.add(original, std::move(outcome_text));
        ChunkState &st = chunks[chunk];
        ++st.deliveredRequests;
        ++hostProgress[st.host].doneRequests;
        ++freshDelivered;
    }

    /** @p chunk's dispatch exited with @p code: take its final
     *  event lines, fall back to its report file when the stream
     *  came up short, then finish the chunk or retry it. */
    void reap(std::size_t chunk, int code)
    {
        drain(chunk); // final lines
        ChunkState &st = chunks[chunk];
        const std::size_t size = plan.chunks[chunk].size();
        const bool exit_ok = code == 0 || code == 1;
        if (exit_ok && st.deliveredRequests < size) {
            // A worker that streams no events (a custom command
            // template) still merges, from its report file.
            auto outcomes = readReportOutcomes(st.live->reportPath);
            if (outcomes.size() == size)
                for (std::size_t j = 0; j < size; ++j)
                    deliver(chunk, j, std::move(outcomes[j]));
        }
        if (!exit_ok) {
            retry(chunk, "died with exit code " +
                             std::to_string(code) +
                             " before completing its chunk");
        } else if (st.deliveredRequests < size) {
            retry(chunk, "exited " + std::to_string(code) +
                             " but delivered only " +
                             std::to_string(st.deliveredRequests) +
                             " of " + std::to_string(size) +
                             " outcomes");
        } else {
            recordAttempt(chunk, true,
                          code == 0 ? "ok" : "requests failed");
            ++hostProgress[st.host].doneChunks;
            ++completed;
            release(chunk);
        }
    }

    /** @p chunk's dispatch missed the deadline: keep what the
     *  straggler already streamed (journaled; the retry's
     *  duplicates are dropped), cancel it, and retry. */
    void expire(std::size_t chunk)
    {
        drain(chunk);
        transports[chunks[chunk].host]->cancel(chunk);
        retry(chunk, "missed the " +
                         std::to_string(options.shardTimeoutSeconds) +
                         " s deadline (straggler cancelled)");
    }

    /** @p chunk's dispatch failed: record it, release the chunk
     *  and re-queue it away from this host -- unless the run is
     *  aborting (abandon it) or it has no retries left (throw). */
    void retry(std::size_t chunk, const std::string &reason)
    {
        recordAttempt(chunk, false, reason);
        release(chunk);
        ChunkState &st = chunks[chunk];
        if (aborted) {
            // Spending retries on a doomed merge helps nobody.
            ++abandoned;
            return;
        }
        if (static_cast<int>(st.attempts) > options.retries) {
            std::string history;
            for (const auto &attempt : result.attempts)
                if (attempt.shard == chunk)
                    history += "\n  attempt #" +
                               std::to_string(attempt.attempt) +
                               " on host '" + attempt.host +
                               "': " + attempt.reason;
            throw Error("chunk #" + std::to_string(chunk) + " (" +
                        chunkFiles[chunk] +
                        ") has no retries left after " +
                        std::to_string(st.attempts) +
                        " attempt(s); dispatch history:" + history);
        }
        st.excludedHosts.insert(st.host);
        ++result.redispatches;
        ready.push_back(chunk);
    }

    /** Take @p chunk out of flight: the one place a slot frees
     *  and a host's in-flight count drops. */
    void release(std::size_t chunk)
    {
        ChunkState &st = chunks[chunk];
        st.live.reset();
        ++freeSlots[st.host];
        --hostProgress[st.host].inFlightChunks;
    }

    void recordAttempt(std::size_t chunk, bool ok,
                       const std::string &reason)
    {
        const ShardDispatch &live = *chunks[chunk].live;
        result.attempts.push_back(
            {chunk, live.attempt, live.host, ok, reason});
    }

    /** Early abort once the failure threshold is met: stop
     *  feeding the queue. Undispatched chunks are abandoned;
     *  in-flight ones drain. */
    void maybeAbort()
    {
        if (aborted || options.abortAfterFailedRequests == 0 ||
            merger.failedCount() < options.abortAfterFailedRequests)
            return;
        aborted = true;
        abandoned += ready.size();
        ready.clear();
    }

    void cancelInFlight()
    {
        for (std::size_t chunk = 0; chunk < chunks.size(); ++chunk)
            if (chunks[chunk].live)
                try {
                    transports[chunks[chunk].host]->cancel(chunk);
                } catch (...) {
                    // Best effort; keep the original error.
                }
    }

    /** A progress snapshot, throttled to ~20 Hz unless @p force. */
    void emitProgress(bool force)
    {
        if (!options.onProgress)
            return;
        const auto now = SteadyClock::now();
        const std::chrono::duration<double> since = now - lastEmit;
        if (!force && since.count() < 0.05)
            return;
        lastEmit = now;
        CoordinatorProgress snapshot;
        snapshot.hosts = hostProgress;
        snapshot.chunksTotal = chunks.size();
        snapshot.chunksDone = completed;
        for (const auto &st : chunks)
            if (st.live)
                ++snapshot.chunksInFlight;
        snapshot.requestsTotal = batch.requests.size();
        snapshot.requestsDone = merger.doneCount();
        snapshot.requestsFailed = merger.failedCount();
        snapshot.resumedOutcomes = result.resumedOutcomes;
        snapshot.elapsedSeconds =
            std::chrono::duration<double>(now - runStart).count();
        snapshot.requestsPerSecond =
            snapshot.elapsedSeconds > 0.0
                ? static_cast<double>(freshDelivered) /
                      snapshot.elapsedSeconds
                : 0.0;
        snapshot.aborted = aborted;
        options.onProgress(snapshot);
    }
};

} // namespace

CoordinatedRunResult
runDynamicCoordinatedBatch(const CoordinatorOptions &options)
{
    validateOptions(options);
    const BatchFile batch = loadBatchFile(options.batchPath);
    std::vector<std::shared_ptr<ShardTransport>> transports;
    for (const auto &host : options.hosts.hosts) {
        if (options.transportFactory)
            transports.push_back(options.transportFactory(host));
        else if (host.isLocal())
            transports.push_back(
                std::make_shared<LocalProcessTransport>());
        else
            transports.push_back(
                std::make_shared<CommandTransport>(host));
    }
    const ScratchDir scratch(options.shardDir);
    CoordinatedRunResult result =
        CoordinatorRun(options, batch, std::move(transports),
                       scratch.path)
            .run();
    if (scratch.temporary)
        result.journalPath.clear();
    return result;
}

} // namespace ecochip
