#include "engine/analysis_engine.h"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "support/error.h"

namespace ecochip {

std::size_t
BatchReport::succeeded() const
{
    std::size_t count = 0;
    for (const auto &outcome : outcomes)
        count += outcome.ok() ? 1 : 0;
    return count;
}

std::size_t
BatchReport::failed() const
{
    return outcomes.size() - succeeded();
}

namespace {

EngineOptions
optionsWithThreads(int threads)
{
    EngineOptions options;
    options.threads = threads;
    return options;
}

} // namespace

AnalysisEngine::AnalysisEngine(EngineOptions options)
    : options_(std::move(options)), pool_(options_.threads)
{}

AnalysisEngine::AnalysisEngine(int threads)
    : AnalysisEngine(optionsWithThreads(threads))
{}

namespace {

/**
 * ConfigError prefixes its message; strip it so re-throwing a
 * stored failure as a fresh ConfigError does not double it.
 */
std::string
withoutConfigPrefix(std::string what)
{
    constexpr const char *prefix = "config error: ";
    if (what.rfind(prefix, 0) == 0)
        what.erase(0, std::string(prefix).size());
    return what;
}

} // namespace

AnalysisSession
AnalysisEngine::sessionFor(const ScenarioRef &ref)
{
    const std::string key = ref.label();

    std::promise<SessionBuild> promise;
    std::shared_future<SessionBuild> future;
    bool building = false;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        const auto it = sessions_.find(key);
        if (it != sessions_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            sessions_.emplace(key, future);
            building = true;
        }
    }

    if (building) {
        SessionBuild built;
        try {
            ScenarioBuilder builder;
            builder.tech(options_.tech);
            if (ref.kind == ScenarioRef::Kind::Registry)
                builder.registry(options_.registry)
                    .scenario(ref.value);
            else
                builder.designDirectory(ref.value);
            built.session = builder.build();
        } catch (const ConfigError &e) {
            built.error = withoutConfigPrefix(e.what());
            built.isConfigError = true;
        } catch (const std::exception &e) {
            built.error = e.what();
        } catch (...) {
            built.error = "unknown error building scenario "
                          "context";
        }
        if (!built.session) {
            // Forget the entry so a later request retries (the
            // failure may be transient, e.g. a design directory
            // that appears later); waiters already holding the
            // future still see this failure.
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.erase(key);
        }
        promise.set_value(std::move(built));
    }

    const SessionBuild &built = future.get();
    if (built.session)
        return *built.session;
    // Every waiter throws its own exception object; see
    // SessionBuild for why the error travels as data.
    if (built.isConfigError)
        throw ConfigError(built.error);
    throw Error(built.error);
}

void
AnalysisEngine::submit(
    AnalysisRequest request,
    std::function<void(RequestOutcome)> on_done)
{
    pool_.post([this, request = std::move(request),
                on_done = std::move(on_done)]() mutable {
        RequestOutcome outcome;
        outcome.request = std::move(request);
        try {
            // Binding resolution happens inside the task so a bad
            // scenario name fails *its* outcome, not the caller.
            const AnalysisSession session =
                sessionFor(outcome.request.scenario);
            outcome.result =
                runSpec(session, outcome.request.spec);
        } catch (const std::exception &e) {
            outcome.error = e.what();
        } catch (...) {
            outcome.error = "unknown error";
        }
        on_done(std::move(outcome));
    });
}

void
AnalysisEngine::runStream(
    const std::vector<AnalysisRequest> &requests,
    const StreamCallback &on_complete)
{
    if (requests.empty())
        return;

    // Shared by every task; runStream outlives them all (it
    // blocks on `remaining`), so the callback reference stays
    // valid for the tasks' whole lifetime.
    struct StreamState
    {
        std::mutex mutex;
        std::condition_variable drained;
        std::size_t remaining;
        std::exception_ptr callbackError; // the first one
    };
    auto state = std::make_shared<StreamState>();
    state->remaining = requests.size();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        submit(requests[i], [state, &on_complete,
                             i](RequestOutcome outcome) {
            // Deliver under the state lock: events are serialized
            // and the decrement happens only after the callback
            // returned, so runStream cannot unblock mid-delivery.
            std::lock_guard<std::mutex> lock(state->mutex);
            try {
                on_complete(i, outcome);
            } catch (...) {
                // Pool tasks must not throw: runStream rethrows.
                if (!state->callbackError)
                    state->callbackError =
                        std::current_exception();
            }
            if (--state->remaining == 0)
                state->drained.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(state->mutex);
    state->drained.wait(
        lock, [&state] { return state->remaining == 0; });
    // Taken out of the state: a task's copy of `state` may be the
    // last, and the exception must not die on that thread while
    // the caller reads it.
    if (state->callbackError)
        std::rethrow_exception(
            std::exchange(state->callbackError, nullptr));
}

BatchReport
AnalysisEngine::runBatch(
    const std::vector<AnalysisRequest> &requests)
{
    BatchReport report;
    report.outcomes.resize(requests.size());
    runStream(requests,
              [&report](std::size_t index,
                        const RequestOutcome &outcome) {
                  report.outcomes[index] = outcome;
              });
    return report;
}

std::size_t
AnalysisEngine::contextCount() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    return sessions_.size();
}

} // namespace ecochip
