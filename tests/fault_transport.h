/**
 * @file
 * Fault-injecting `ShardTransport` for the coordinator tests:
 * dispatches run in-process through `runShardWorker` (no fork),
 * and each chunk has a schedule of faults -- failed, hanging,
 * slow, killed mid-stream, or report-only workers -- plus a
 * dispatch-order trace the fault-matrix tests assert against.
 *
 * Built only on the public transport hook
 * (`CoordinatorOptions::transportFactory`), so it is the same
 * kind of custom transport a library user could write.
 */

#ifndef ECOCHIP_TESTS_FAULT_TRANSPORT_H
#define ECOCHIP_TESTS_FAULT_TRANSPORT_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "engine/shard_coordinator.h"
#include "engine/shard_runner.h"
#include "io/event_journal_io.h"
#include "io/request_io.h"
#include "support/error.h"

namespace ecochip {

/**
 * One scheduled fault of a `TestTransport`: what the nth
 * dispatch of a chunk does instead of (or around) running the
 * worker.
 */
struct TransportFault
{
    enum class Kind
    {
        /** Never completes; polls nullopt until cancelled. */
        Hang,
        /** Reports `exitCode` without writing report/events. */
        Fail,
        /** Runs the worker, but completion is delayed by
         *  `delaySeconds` (a slow host / straggler). */
        Slow,
        /** Kill-mid-stream: the worker's first `eventLines`
         *  event lines reach the events file, no report is
         *  written, and the dispatch reports exit 137 -- a
         *  worker SIGKILLed partway through its chunk. */
        KillMidStream,
        /** Runs the worker with no events stream, only the
         *  report file (cut to its first `reportBytes` bytes) --
         *  a third-party command that never streams events. */
        ReportOnly,
    };

    Kind kind = Kind::Fail;

    /** Exit code a `Fail` dispatch reports. */
    int exitCode = 134;

    /** Completion delay of a `Slow` dispatch, seconds. */
    double delaySeconds = 0.0;

    /** Event lines a `KillMidStream` dispatch delivers before
     *  dying. */
    std::size_t eventLines = 0;

    /** Report bytes a `ReportOnly` dispatch leaves on disk. */
    std::size_t reportBytes =
        std::numeric_limits<std::size_t>::max();
};

/**
 * Fault-injecting transport: runs dispatches in-process through
 * `runShardWorker` at the first poll past their readiness point.
 * Each chunk's nth dispatch consumes the nth scheduled
 * `TransportFault` (in injection order); dispatches beyond the
 * schedule run healthy. Every dispatch (including injected ones)
 * is recorded in `history()`.
 */
class TestTransport : public ShardTransport
{
  public:
    /** Append @p fault to @p shard's schedule. */
    void injectFault(std::size_t shard, TransportFault fault)
    {
        schedule_[shard].push_back(fault);
    }

    /** Append @p count hangs to @p shard's schedule: each hangs
     *  until the coordinator cancels it. */
    void injectHangs(std::size_t shard, std::size_t count)
    {
        TransportFault fault;
        fault.kind = TransportFault::Kind::Hang;
        for (std::size_t i = 0; i < count; ++i)
            injectFault(shard, fault);
    }

    /** Append @p count failures to @p shard's schedule: each
     *  fails (exit 134) without writing a report. */
    void injectFailures(std::size_t shard, std::size_t count)
    {
        TransportFault fault;
        fault.kind = TransportFault::Kind::Fail;
        for (std::size_t i = 0; i < count; ++i)
            injectFault(shard, fault);
    }

    /**
     * Delay every healthy completion on this transport by
     * @p seconds plus @p per_request_seconds per sub-batch
     * request -- an uneven-speed host whose throughput, not just
     * latency, lags the rest of the fleet.
     */
    void setSpeed(double seconds, double per_request_seconds)
    {
        delaySeconds_ = seconds;
        perRequestDelaySeconds_ = per_request_seconds;
    }

    void start(const ShardDispatch &dispatch) override
    {
        history_.push_back(dispatch);
        const std::size_t nth = dispatches_[dispatch.shard]++;

        LiveDispatch live;
        live.dispatch = dispatch;
        const auto it = schedule_.find(dispatch.shard);
        if (it != schedule_.end() && nth < it->second.size())
            live.fault = it->second[nth];

        const auto kind = live.fault
                              ? live.fault->kind
                              : TransportFault::Kind::Slow;
        if (kind == TransportFault::Kind::Hang ||
            kind == TransportFault::Kind::Fail) {
            live_[dispatch.shard] = std::move(live);
            return;
        }

        // The worker runs in-process at the first poll past the
        // readiness point, so an uneven-speed host is modeled as
        // completions that simply take longer to surface.
        double delay = delaySeconds_;
        if (perRequestDelaySeconds_ > 0.0)
            delay += perRequestDelaySeconds_ *
                     static_cast<double>(
                         loadBatchFile(dispatch.subBatchPath)
                             .requests.size());
        if (kind == TransportFault::Kind::Slow && live.fault)
            delay += live.fault->delaySeconds;
        live.readyAt =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(delay));
        live_[dispatch.shard] = std::move(live);
    }

    std::optional<int> poll(std::size_t shard) override
    {
        const auto it = live_.find(shard);
        requireModel(it != live_.end(),
                     "poll() on a shard with no live dispatch");
        const auto kind = it->second.fault
                              ? it->second.fault->kind
                              : TransportFault::Kind::Slow;
        if (kind == TransportFault::Kind::Hang)
            return std::nullopt; // hung until cancelled
        if (kind != TransportFault::Kind::Fail &&
            std::chrono::steady_clock::now() < it->second.readyAt)
            return std::nullopt; // still "running"
        const LiveDispatch live = std::move(it->second);
        live_.erase(it);

        const ShardDispatch &dispatch = live.dispatch;
        switch (kind) {
        case TransportFault::Kind::Fail:
            return live.fault->exitCode; // died, no report
        case TransportFault::Kind::KillMidStream:
            return killMidStream(dispatch,
                                 live.fault->eventLines);
        case TransportFault::Kind::ReportOnly:
            return reportOnly(dispatch, live.fault->reportBytes);
        default:
            return runShardWorker(
                dispatch.subBatchPath, dispatch.reportPath,
                dispatch.engineThreads, dispatch.scenariosPath,
                eventsPathOf(dispatch));
        }
    }

    void cancel(std::size_t shard) override
    {
        const auto it = live_.find(shard);
        requireModel(it != live_.end(),
                     "cancel() on a shard with no live dispatch");
        live_.erase(it);
        ++cancelled_;
    }

    std::string name() const override { return "test"; }

    /** Every dispatch started, in start order. */
    const std::vector<ShardDispatch> &history() const
    {
        return history_;
    }

    /** Dispatches the coordinator cancelled. */
    std::size_t cancelled() const { return cancelled_; }

  private:
    struct LiveDispatch
    {
        ShardDispatch dispatch;

        /** The scheduled fault; unset = a healthy dispatch. */
        std::optional<TransportFault> fault;

        /** The worker runs at the first poll past this point. */
        std::chrono::steady_clock::time_point readyAt;
    };

    static std::string eventsPathOf(const ShardDispatch &dispatch)
    {
        return dispatch.eventsPath.empty()
                   ? eventsPathFor(dispatch.reportPath)
                   : dispatch.eventsPath;
    }

    /** Run the worker against scratch paths, deliver only its
     *  first @p lines event lines, and report a SIGKILL exit --
     *  no report file, a partial stream. */
    static int killMidStream(const ShardDispatch &dispatch,
                             std::size_t lines)
    {
        const std::string events_path = eventsPathOf(dispatch);
        const std::string scratch_report =
            dispatch.reportPath + ".killtmp";
        const std::string scratch_events =
            events_path + ".killtmp";
        runShardWorker(dispatch.subBatchPath, scratch_report,
                       dispatch.engineThreads,
                       dispatch.scenariosPath, scratch_events);
        {
            std::ifstream in(scratch_events);
            std::ofstream out(events_path,
                              std::ios::out | std::ios::trunc);
            std::string line;
            for (std::size_t n = 0;
                 n < lines && std::getline(in, line); ++n)
                out << line << '\n';
        }
        std::error_code ec;
        std::filesystem::remove(scratch_report, ec);
        std::filesystem::remove(scratch_events, ec);
        return 128 + 9; // SIGKILLed worker
    }

    /** Run the worker with no events path and cut its report to
     *  its first @p bytes bytes; the worker's own exit code. */
    static int reportOnly(const ShardDispatch &dispatch,
                          std::size_t bytes)
    {
        const int code = runShardWorker(
            dispatch.subBatchPath, dispatch.reportPath,
            dispatch.engineThreads, dispatch.scenariosPath, "");
        std::error_code ec;
        if (bytes < std::filesystem::file_size(dispatch.reportPath,
                                               ec) &&
            !ec)
            std::filesystem::resize_file(dispatch.reportPath,
                                         bytes, ec);
        return code;
    }

    std::map<std::size_t, std::deque<TransportFault>> schedule_;
    std::map<std::size_t, std::size_t> dispatches_;
    std::map<std::size_t, LiveDispatch> live_;
    std::vector<ShardDispatch> history_;
    std::size_t cancelled_ = 0;
    double delaySeconds_ = 0.0;
    double perRequestDelaySeconds_ = 0.0;
};

} // namespace ecochip

#endif // ECOCHIP_TESTS_FAULT_TRANSPORT_H
