#include "server/analysis_server.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/file_io.h"
#include "support/sha256.h"

#if defined(__unix__) || defined(__APPLE__)
#define ECOCHIP_SERVER_HAS_SOCKETS 1
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define ECOCHIP_SERVER_HAS_SOCKETS 0
#endif

namespace ecochip {

namespace {

/**
 * Versioned so a future change to the result schema or the
 * evaluation models can invalidate every cached entry by bumping
 * one string instead of asking operators to wipe cache
 * directories.
 */
constexpr const char *kCacheSchemaVersion =
    "ecochip-result-cache-v1";

std::string
computeCatalogFingerprint(const ScenarioRegistry &registry,
                          const std::string &scenarios_path)
{
    Sha256 digest;
    digest.update(kCacheSchemaVersion);
    for (const auto &name : registry.names()) {
        digest.update("\n");
        digest.update(name);
    }
    // Generator templates resolve derived scenario names, so a
    // changed generator set must invalidate cached results too.
    for (const auto &generator : registry.generators()) {
        digest.update("\ngenerator ");
        digest.update(generator.name);
    }
    if (!scenarios_path.empty()) {
        digest.update("\n--scenarios\n");
        digest.update(readFile(scenarios_path, "catalog file"));
    }
    return digest.hexDigest();
}

} // namespace

#if ECOCHIP_SERVER_HAS_SOCKETS

namespace {

/** Wake-pipe write end the signal handlers poke; see run(). */
std::atomic<int> g_signal_wake_fd{-1};

/** Wake byte of a finished request; any other byte means stop. */
constexpr char kCompletionByte = 'J';

/**
 * Longest request line a connection may send (1 MiB): far above
 * any real request, and a bound on what one client can make the
 * daemon buffer. A longer line is answered with one error event
 * and the connection is closed.
 */
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

extern "C" void
ecochipServerSignalHandler(int)
{
    const int fd = g_signal_wake_fd.load();
    if (fd >= 0) {
        const char byte = 'S';
        // Best effort: a full pipe already guarantees a wakeup.
        [[maybe_unused]] const auto n = write(fd, &byte, 1);
    }
}

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * The stream-event document of one outcome, spliced from
 * pre-serialized compact parts through the streaming writer so a
 * cache hit (stored result text) and a fresh evaluation
 * (appendResult) travel through one code path with no DOM --
 * member order matches `appendStreamEvent` exactly. On success
 * @p payload is raw result JSON; on failure it is the error
 * message (emitted as a JSON string).
 */
std::string
eventLine(std::size_t index, std::string_view request_echo,
          bool ok, std::string_view payload)
{
    json::StreamWriter writer;
    writer.beginObject();
    writer.key("index");
    writer.number(static_cast<double>(index));
    writer.key("request");
    writer.raw(request_echo);
    writer.key("ok");
    writer.boolean(ok);
    if (ok) {
        writer.key("result");
        writer.raw(payload);
    } else {
        writer.key("error");
        writer.string(payload);
    }
    writer.endObject();
    return writer.take();
}

/** Error event for a line that never became a request. */
std::string
errorLine(std::size_t index, const std::string &message)
{
    json::StreamWriter writer;
    writer.beginObject();
    writer.key("index");
    writer.number(static_cast<double>(index));
    writer.key("ok");
    writer.boolean(false);
    writer.key("error");
    writer.string(message);
    writer.endObject();
    return writer.take();
}

} // namespace

struct AnalysisServer::Impl
{
    ServerOptions options;
    std::string fingerprint;
    std::optional<ResultCache> cache;
    std::unique_ptr<AnalysisEngine> engine;

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    bool boundSocket = false;

    struct Connection
    {
        std::uint64_t id = 0;
        std::string inbuf;
        std::string outbuf;

        /** Per-connection request counter (the `index` of every
         *  response event, control verbs excluded). */
        std::size_t nextIndex = 0;

        /** Requests submitted to the engine, not yet answered. */
        std::size_t pending = 0;

        /** Peer closed its write side; serve what was read. */
        bool eof = false;
    };
    std::map<int, Connection> conns;
    std::uint64_t nextConnId = 1;

    /** One answered request, serialized by its engine worker. */
    struct Completion
    {
        int fd = -1;
        std::uint64_t connId = 0;
        std::size_t index = 0;
        std::string requestEchoText;
        std::string cacheKey;
        bool ok = false;
        /** The worker wrote the result's cache object. */
        bool stored = false;
        /** Result JSON when ok, else the error message. */
        std::string payload;
    };
    std::mutex completionsMutex;
    std::vector<Completion> completions; // completion order

    /** Undelivered requests of every connection, gone or not. */
    std::size_t inFlight = 0;

    ServerStats stats;
    std::atomic<bool> stopRequested{false};
    bool stopping = false;

    void closeConnection(int fd)
    {
        close(fd);
        conns.erase(fd);
    }

    void readLines(int fd, Connection &conn);
    void handleLine(int fd, Connection &conn,
                    const std::string &line);
    void finish(Completion job, RequestOutcome outcome);
    void onWake();
    void flushConnection(int fd, Connection &conn);
};

AnalysisServer::AnalysisServer(ServerOptions options)
    : impl_(std::make_unique<Impl>())
{
    impl_->options = std::move(options);
    ServerOptions &opts = impl_->options;

    requireConfig(!opts.socketPath.empty(),
                  "--serve needs a --socket path");
    requireConfig(opts.engineThreads >= 1,
                  "engine threads must be >= 1");

    sockaddr_un addr{};
    requireConfig(
        opts.socketPath.size() < sizeof(addr.sun_path),
        "socket path is too long for a Unix-domain socket: " +
            opts.socketPath);

    ScenarioRegistry registry = opts.registry;
    if (!opts.scenariosPath.empty())
        registry.loadFile(opts.scenariosPath);
    impl_->fingerprint = computeCatalogFingerprint(
        registry, opts.scenariosPath);

    if (!opts.cacheDir.empty())
        impl_->cache.emplace(ResultCacheOptions{
            opts.cacheDir, opts.cacheMaxEntries});

    EngineOptions engine_options;
    engine_options.threads = opts.engineThreads;
    engine_options.registry = std::move(registry);
    impl_->engine = std::make_unique<AnalysisEngine>(
        std::move(engine_options));

    // A leftover socket file from a dead server must not block
    // restarts, but a *live* server on the path is an operator
    // error -- probe with a connect before replacing it.
    if (std::filesystem::exists(opts.socketPath)) {
        const int probe = socket(AF_UNIX, SOCK_STREAM, 0);
        requireModel(probe >= 0, "socket() failed");
        sockaddr_un probe_addr{};
        probe_addr.sun_family = AF_UNIX;
        std::strncpy(probe_addr.sun_path,
                     opts.socketPath.c_str(),
                     sizeof(probe_addr.sun_path) - 1);
        const int connected = connect(
            probe,
            reinterpret_cast<const sockaddr *>(&probe_addr),
            sizeof(probe_addr));
        close(probe);
        requireConfig(connected != 0,
                      "a server is already listening on " +
                          opts.socketPath);
        std::error_code ec;
        std::filesystem::remove(opts.socketPath, ec);
    }

    impl_->listenFd = socket(AF_UNIX, SOCK_STREAM, 0);
    requireModel(impl_->listenFd >= 0, "socket() failed");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (bind(impl_->listenFd,
             reinterpret_cast<const sockaddr *>(&addr),
             sizeof(addr)) != 0) {
        const int err = errno;
        close(impl_->listenFd);
        impl_->listenFd = -1;
        throw ConfigError("cannot bind " + opts.socketPath +
                          ": " + std::strerror(err));
    }
    impl_->boundSocket = true;
    if (listen(impl_->listenFd, 64) != 0) {
        const int err = errno;
        throw ConfigError("cannot listen on " +
                          opts.socketPath + ": " +
                          std::strerror(err));
    }
    setNonBlocking(impl_->listenFd);

    int pipe_fds[2];
    requireModel(pipe(pipe_fds) == 0, "pipe() failed");
    impl_->wakeRead = pipe_fds[0];
    impl_->wakeWrite = pipe_fds[1];
    setNonBlocking(impl_->wakeRead);
    setNonBlocking(impl_->wakeWrite);

    if (opts.installSignalHandlers) {
        g_signal_wake_fd.store(impl_->wakeWrite);
        std::signal(SIGTERM, ecochipServerSignalHandler);
        std::signal(SIGINT, ecochipServerSignalHandler);
        // Writes go through send(MSG_NOSIGNAL), but ignore
        // SIGPIPE anyway so no stray stdio write can kill the
        // daemon when a client vanishes.
        std::signal(SIGPIPE, SIG_IGN);
    }
}

AnalysisServer::~AnalysisServer()
{
    if (!impl_)
        return;
    // Drain the pool first: its completion callbacks touch the
    // wake pipe and the completion vector, so the workers must be
    // gone before either is closed or destroyed -- even when
    // run() threw with requests in flight.
    impl_->engine.reset();
    if (impl_->options.installSignalHandlers)
        g_signal_wake_fd.store(-1);
    for (const auto &[fd, conn] : impl_->conns)
        close(fd);
    for (const int fd :
         {impl_->listenFd, impl_->wakeRead, impl_->wakeWrite})
        if (fd >= 0)
            close(fd);
    if (impl_->boundSocket) {
        std::error_code ec;
        std::filesystem::remove(impl_->options.socketPath, ec);
    }
}

const std::string &
AnalysisServer::socketPath() const
{
    return impl_->options.socketPath;
}

const std::string &
AnalysisServer::catalogFingerprint() const
{
    return impl_->fingerprint;
}

ServerStats
AnalysisServer::stats() const
{
    ServerStats stats = impl_->stats;
    if (impl_->cache)
        stats.cache = impl_->cache->stats();
    stats.contexts = impl_->engine->contextCount();
    return stats;
}

void
AnalysisServer::requestStop()
{
    impl_->stopRequested.store(true);
    const char byte = 'Q';
    [[maybe_unused]] const auto n =
        write(impl_->wakeWrite, &byte, 1);
}

void
AnalysisServer::Impl::handleLine(int fd, Connection &conn,
                                 const std::string &line)
{
    if (line.empty())
        return;

    json::Value doc;
    try {
        doc = json::parse(line);
    } catch (const std::exception &e) {
        ++stats.malformed;
        conn.outbuf +=
            errorLine(conn.nextIndex++, e.what()) + "\n";
        return;
    }

    // Control verbs: answered inline, no request index consumed.
    if (doc.isObject() && doc.contains("control")) {
        const json::Value &control = doc.at("control");
        const std::string verb =
            control.isString() ? control.asString() : "";
        json::Value reply = json::Value::makeObject();
        reply.set("control", verb);
        if (verb == "stats") {
            using Counters = std::initializer_list<
                std::pair<const char *, std::uint64_t>>;
            const ResultCacheStats cached =
                cache ? cache->stats() : ResultCacheStats{};
            for (const auto &[name, value] : Counters{
                     {"served", stats.served},
                     {"failed", stats.failed},
                     {"malformed", stats.malformed},
                     {"connections", stats.connections},
                     {"contexts", engine->contextCount()}})
                reply.set(name, static_cast<double>(value));
            reply.set("cache_enabled", static_cast<bool>(cache));
            for (const auto &[name, value] : Counters{
                     {"hits", cached.hits},
                     {"misses", cached.misses},
                     {"evictions", cached.evictions},
                     {"entries", cached.entries},
                     {"store_failures", cached.storeFailures}})
                reply.set(name, static_cast<double>(value));
        } else if (verb == "shutdown") {
            reply.set("draining", true);
            stopRequested.store(true);
        } else {
            ++stats.malformed;
            reply.set("error",
                      "unknown control verb; known verbs: "
                      "stats, shutdown");
        }
        conn.outbuf += reply.dump(false) + "\n";
        return;
    }

    const std::size_t index = conn.nextIndex++;
    AnalysisRequest request;
    try {
        request = requestFromJson(
            doc, "request #" + std::to_string(index));
    } catch (const std::exception &e) {
        ++stats.malformed;
        conn.outbuf += errorLine(index, e.what()) + "\n";
        return;
    }

    json::StreamWriter echo_writer;
    appendRequest(echo_writer, request);
    const std::string echo = echo_writer.take();
    std::string key;
    if (cache) {
        key = resultCacheKey(request, fingerprint);
        if (auto stored = cache->lookupText(key)) {
            ++stats.served;
            conn.outbuf +=
                eventLine(index, echo, true, *stored) + "\n";
            return;
        }
    }

    ++conn.pending;
    ++inFlight;
    engine->submit(
        std::move(request),
        [this, job = Completion{fd, conn.id, index, echo,
                                std::move(key), false, false, {}}](
            RequestOutcome outcome) mutable {
            finish(std::move(job), std::move(outcome));
        });
}

void
AnalysisServer::Impl::finish(Completion job,
                             RequestOutcome outcome)
{
    // Serialize here, on the worker; a result the writer rejects
    // (a non-finite metric) becomes a failed event.
    job.payload = std::move(outcome.error);
    try {
        if (outcome.result) {
            json::StreamWriter writer;
            appendResult(writer, *outcome.result);
            job.payload = writer.take();
            job.ok = true;
        }
    } catch (const std::exception &e) {
        job.payload = e.what();
    }
    // The cache object is written here too, so no file write
    // stalls the loop; the loop only indexes it (onWake).
    if (job.ok && cache && !job.cacheKey.empty()) {
        try {
            cache->writeObject(job.cacheKey, job.payload);
            job.stored = true;
        } catch (const std::exception &) {
            // Counted by the loop; the answer still goes out, and
            // the next ask recomputes it.
        }
    }

    std::lock_guard<std::mutex> lock(completionsMutex);
    completions.push_back(std::move(job));
    // Only the first completion since the last swap wakes the
    // loop; onWake reads the pipe and swaps under this lock, so
    // at most one completion byte waits and a stop byte fits.
    if (completions.size() == 1) {
        [[maybe_unused]] const auto n =
            write(wakeWrite, &kCompletionByte, 1);
    }
}

void
AnalysisServer::Impl::onWake()
{
    std::vector<Completion> finished;
    {
        std::lock_guard<std::mutex> lock(completionsMutex);
        char buf[64];
        for (ssize_t got;
             (got = read(wakeRead, buf, sizeof(buf))) > 0;)
            for (ssize_t i = 0; i < got; ++i)
                if (buf[i] != kCompletionByte)
                    stopRequested.store(true);
        finished.swap(completions);
    }
    std::vector<int> delivered;
    for (const Completion &job : finished) {
        --inFlight;
        ++stats.served;
        if (!job.ok)
            ++stats.failed;
        if (job.ok && cache && !job.cacheKey.empty()) {
            if (job.stored)
                cache->admit(job.cacheKey, job.payload);
            else
                cache->countStoreFailure();
        }

        // Deliver only if the connection that asked is still the
        // one on this fd (ids guard against fd reuse); a gone
        // client's work still warmed the caches above.
        const auto it = conns.find(job.fd);
        if (it == conns.end() || it->second.id != job.connId)
            continue;
        --it->second.pending;
        it->second.outbuf +=
            eventLine(job.index, job.requestEchoText, job.ok,
                      job.payload) +
            "\n";
        delivered.push_back(job.fd);
    }
    // Send now: these connections were polled without POLLOUT, so
    // waiting for the socket would cost another poll() round.
    for (const int fd : delivered) {
        const auto it = conns.find(fd);
        if (it != conns.end())
            flushConnection(fd, it->second);
    }
}

void
AnalysisServer::Impl::readLines(int fd, Connection &conn)
{
    char buf[65536];
    while (!conn.eof) {
        const auto got = read(fd, buf, sizeof(buf));
        if (got <= 0) {
            // EOF and hard errors (ECONNRESET) both end the read
            // side; EAGAIN just means drained.
            if (got == 0 ||
                (errno != EAGAIN && errno != EWOULDBLOCK))
                conn.eof = true;
            return;
        }
        conn.inbuf.append(buf, static_cast<std::size_t>(got));

        // Parse every complete line; the partial tail waits for
        // more bytes. Each line is isolated: a malformed one
        // answers an error event and the loop moves on.
        std::size_t start = 0;
        std::size_t nl;
        while ((nl = conn.inbuf.find('\n', start)) !=
               std::string::npos) {
            std::string line =
                conn.inbuf.substr(start, nl - start);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            start = nl + 1;
            handleLine(fd, conn, line);
        }
        conn.inbuf.erase(0, start);

        // A tail past the cap is never going to be a request:
        // answer once, stop reading, and close once answered.
        if (conn.inbuf.size() > kMaxLineBytes) {
            ++stats.malformed;
            conn.outbuf +=
                errorLine(conn.nextIndex++,
                          "request line exceeds " +
                              std::to_string(kMaxLineBytes) +
                              " bytes; closing the connection") +
                "\n";
            conn.inbuf = std::string();
            conn.eof = true;
        }
    }
}

void
AnalysisServer::Impl::flushConnection(int fd, Connection &conn)
{
    while (!conn.outbuf.empty()) {
        const auto sent =
            send(fd, conn.outbuf.data(), conn.outbuf.size(),
                 MSG_NOSIGNAL);
        if (sent > 0) {
            conn.outbuf.erase(0,
                              static_cast<std::size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN ||
                         errno == EWOULDBLOCK))
            return; // socket full; POLLOUT will retry
        // Peer vanished: drop the connection. Its pending requests
        // finish and warm the cache; delivery is skipped by the
        // id check in onWake.
        closeConnection(fd);
        return;
    }
}

void
AnalysisServer::run()
{
    Impl &impl = *impl_;

    while (true) {
        if (impl.stopRequested.load() && !impl.stopping) {
            impl.stopping = true;
            // Stop accepting; connected clients keep their
            // in-flight answers, new connects fail fast.
            if (impl.listenFd >= 0) {
                close(impl.listenFd);
                impl.listenFd = -1;
            }
        }

        // Drain-time cleanup: a connection with nothing queued
        // and nothing pending has been fully served.
        std::vector<int> done;
        for (auto &[fd, conn] : impl.conns) {
            const bool drained =
                conn.outbuf.empty() && conn.pending == 0;
            if (drained && (impl.stopping || conn.eof))
                done.push_back(fd);
        }
        for (const int fd : done)
            impl.closeConnection(fd);

        if (impl.stopping && impl.inFlight == 0 &&
            impl.conns.empty())
            break;

        std::vector<pollfd> fds;
        fds.push_back({impl.wakeRead, POLLIN, 0});
        if (!impl.stopping && impl.listenFd >= 0)
            fds.push_back({impl.listenFd, POLLIN, 0});
        for (auto &[fd, conn] : impl.conns) {
            short events = 0;
            if (!impl.stopping && !conn.eof)
                events |= POLLIN;
            if (!conn.outbuf.empty())
                events |= POLLOUT;
            if (events != 0)
                fds.push_back({fd, events, 0});
        }

        // Sleep until a socket stirs or the wake pipe carries a
        // finished request or a stop.
        const int ready =
            poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            throw ModelError(std::string("poll() failed: ") +
                             std::strerror(errno));
        }

        for (const pollfd &entry : fds) {
            if (entry.revents == 0)
                continue;

            if (entry.fd == impl.wakeRead) {
                impl.onWake();
                continue;
            }

            if (entry.fd == impl.listenFd) {
                int conn_fd;
                while ((conn_fd = accept(impl.listenFd, nullptr,
                                         nullptr)) >= 0) {
                    setNonBlocking(conn_fd);
                    impl.conns[conn_fd].id = impl.nextConnId++;
                    ++impl.stats.connections;
                }
                continue;
            }

            auto it = impl.conns.find(entry.fd);
            if (it == impl.conns.end())
                continue;
            Impl::Connection &conn = it->second;

            if (entry.revents & (POLLIN | POLLHUP | POLLERR))
                impl.readLines(entry.fd, conn);

            if (!conn.outbuf.empty())
                impl.flushConnection(entry.fd, conn);
        }
    }

    // Every answer is out: an index that cannot be saved costs
    // only the next start's LRU order (see ResultCache).
    try {
        if (impl.cache)
            impl.cache->flushIndex();
    } catch (const ConfigError &e) {
        std::cerr << "warning: cache index not saved: "
                  << e.what() << "\n";
    }
}

int
runAnalysisServer(ServerOptions options)
{
    AnalysisServer server(std::move(options));
    std::cout << "serving on " << server.socketPath()
              << std::endl;
    server.run();
    const ServerStats stats = server.stats();
    std::cout << "drained: " << stats.served
              << " request(s) served (" << stats.failed
              << " failed, " << stats.malformed
              << " malformed) across " << stats.connections
              << " connection(s); cache " << stats.cache.hits
              << " hit(s) / " << stats.cache.misses
              << " miss(es) / " << stats.cache.evictions
              << " eviction(s); " << stats.contexts
              << " warm context(s)" << std::endl;
    return 0;
}

#else // !ECOCHIP_SERVER_HAS_SOCKETS

struct AnalysisServer::Impl
{
    ServerOptions options;
    std::string fingerprint;
};

namespace {

[[noreturn]] void
throwNoSockets()
{
    throw ConfigError(
        "the analysis server requires a POSIX platform "
        "(Unix-domain sockets)");
}

} // namespace

AnalysisServer::AnalysisServer(ServerOptions)
{
    throwNoSockets();
}

AnalysisServer::~AnalysisServer() = default;

void
AnalysisServer::run()
{
    throwNoSockets();
}

void
AnalysisServer::requestStop()
{
    throwNoSockets();
}

const std::string &
AnalysisServer::socketPath() const
{
    throwNoSockets();
}

const std::string &
AnalysisServer::catalogFingerprint() const
{
    throwNoSockets();
}

ServerStats
AnalysisServer::stats() const
{
    throwNoSockets();
}

int
runAnalysisServer(ServerOptions)
{
    throwNoSockets();
}

#endif // ECOCHIP_SERVER_HAS_SOCKETS

} // namespace ecochip
