#include "io/batch_report_io.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "io/request_io.h"
#include "io/result_writer.h"
#include "support/error.h"
#include "support/file_io.h"

namespace ecochip {

namespace {

/** The members shared by outcome documents and stream events. */
void
appendOutcomeMembers(json::StreamWriter &writer,
                     const RequestOutcome &outcome)
{
    writer.key("request");
    appendRequest(writer, outcome.request);
    writer.key("ok");
    writer.boolean(outcome.ok());
    if (outcome.ok()) {
        writer.key("result");
        appendResult(writer, *outcome.result);
    } else {
        writer.key("error");
        writer.string(outcome.error);
    }
}

/**
 * Nesting depth of one outcome in the report: inside the report
 * object and its "outcomes" array.
 */
constexpr std::size_t kOutcomeDepth = 2;

/**
 * The report up to and including the outcomes array's '[':
 * `{"succeeded": N, "failed": M, "outcomes": [`.
 */
void
appendReportHead(std::string &out, const BatchReport &report,
                 bool pretty)
{
    json::StreamWriter writer(pretty);
    writer.beginObject();
    writer.key("succeeded");
    writer.number(static_cast<double>(report.succeeded()));
    writer.key("failed");
    writer.number(static_cast<double>(report.failed()));
    writer.key("outcomes");
    out += writer.str();
    out += '[';
}

/**
 * Outcomes [@p begin, @p end) as elements of the report's
 * outcomes array, each with its separator: the one outcome
 * serializer of `batchReportText` and the block-parallel file
 * writer. Consecutive blocks between the head and the tail
 * concatenate to exactly the whole-report bytes.
 */
void
appendOutcomeBlock(std::string &out,
                   const std::vector<RequestOutcome> &outcomes,
                   std::size_t begin, std::size_t end, bool pretty)
{
    for (std::size_t i = begin; i < end; ++i) {
        if (i > 0)
            out += ',';
        if (pretty) {
            out += '\n';
            out.append(4 * kOutcomeDepth, ' ');
        }
        json::StreamWriter writer(pretty, kOutcomeDepth,
                                  std::move(out));
        appendOutcome(writer, outcomes[i]);
        out = writer.take();
    }
}

/** Close the outcomes array and the report object. */
void
appendReportTail(std::string &out, const BatchReport &report,
                 bool pretty)
{
    if (pretty && !report.outcomes.empty()) {
        out += '\n';
        out.append(4 * (kOutcomeDepth - 1), ' ');
    }
    out += ']';
    if (pretty)
        out += '\n';
    out += '}';
}

/**
 * Shared state of one block-parallel report write. Blocks are
 * claimed in order and serialized by whichever thread claimed
 * them -- pool workers and the writing caller alike -- into a
 * ring of `slots`; the caller writes them to the file strictly in
 * order. A block can only be claimed while it lies fewer than
 * `slots.size()` blocks past the next one to write, which bounds
 * the text in flight. Held through a shared_ptr: a pool task that
 * starts after the write is over finds nothing to claim.
 */
struct BlockWrite
{
    struct Slot
    {
        std::string text; // kept across uses: capacity is reused
        std::exception_ptr error;
        bool done = false;
    };

    BlockWrite(const std::vector<RequestOutcome> &outcomes,
               int workers)
        : outcomes(outcomes),
          blocks((outcomes.size() + kReportBlockOutcomes - 1) /
                 kReportBlockOutcomes),
          slots(2 * static_cast<std::size_t>(workers + 1))
    {}

    const std::vector<RequestOutcome> &outcomes;
    const std::size_t blocks;
    std::vector<Slot> slots;

    std::mutex mutex;
    std::condition_variable changed;
    std::size_t claimed = 0; // blocks handed out
    std::size_t written = 0; // blocks in the file
    std::size_t running = 0; // claimed, not yet serialized
    bool cancelled = false;

    bool
    claimable() const
    {
        return !cancelled && claimed < blocks &&
               claimed < written + slots.size();
    }

    /** Serialize block @p b into its slot, then mark it done. */
    void
    serialize(std::size_t b)
    {
        Slot &slot = slots[b % slots.size()];
        slot.text.clear();
        const std::size_t begin = b * kReportBlockOutcomes;
        const std::size_t end =
            std::min(begin + kReportBlockOutcomes, outcomes.size());
        std::exception_ptr error;
        try {
            appendOutcomeBlock(slot.text, outcomes, begin, end,
                               true);
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        slot.error = std::move(error);
        slot.done = true;
        --running;
        changed.notify_all();
    }

    /** Claim and serialize one block; requires @p lock held. */
    void
    serializeNext(std::unique_lock<std::mutex> &lock)
    {
        const std::size_t b = claimed++;
        ++running;
        lock.unlock();
        serialize(b);
        lock.lock();
    }

    /** Pool task: serialize blocks until none is left to claim. */
    void
    work()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            changed.wait(lock, [this] {
                return claimable() || cancelled || claimed == blocks;
            });
            if (!claimable())
                return;
            serializeNext(lock);
        }
    }

    /**
     * Write every block to @p out in order. While the next block
     * is still being serialized the caller claims blocks itself,
     * so the write finishes however busy the pool is.
     * @throws whatever serializing a block threw.
     */
    void
    writeTo(std::ostream &out)
    {
        std::unique_lock<std::mutex> lock(mutex);
        while (written < blocks) {
            Slot &next = slots[written % slots.size()];
            if (next.done) {
                // Take the error out of the slot: the caller alone
                // must own it, as a pool task may be the one that
                // destroys this state.
                if (next.error)
                    std::rethrow_exception(
                        std::exchange(next.error, nullptr));
                lock.unlock();
                out.write(next.text.data(),
                          static_cast<std::streamsize>(
                              next.text.size()));
                lock.lock();
                next.done = false;
                ++written;
                changed.notify_all();
            } else if (claimable()) {
                serializeNext(lock);
            } else {
                changed.wait(lock);
            }
        }
    }

    /** Stop claiming and wait out the blocks being serialized:
     *  they read the report. */
    void
    cancel()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cancelled = true;
        changed.notify_all();
        changed.wait(lock, [this] { return running == 0; });
    }
};

} // namespace

void
appendOutcome(json::StreamWriter &writer,
              const RequestOutcome &outcome)
{
    writer.beginObject();
    appendOutcomeMembers(writer, outcome);
    writer.endObject();
}

void
appendStreamEvent(json::StreamWriter &writer, std::size_t index,
                  const RequestOutcome &outcome)
{
    writer.beginObject();
    writer.key("index");
    writer.number(static_cast<double>(index));
    appendOutcomeMembers(writer, outcome);
    writer.endObject();
}

std::string
batchReportText(const BatchReport &report, bool pretty)
{
    std::string out;
    appendReportHead(out, report, pretty);
    appendOutcomeBlock(out, report.outcomes, 0,
                       report.outcomes.size(), pretty);
    appendReportTail(out, report, pretty);
    return out;
}

void
writeBatchReportFile(const BatchReport &report,
                     const std::string &path, ThreadPool &pool)
{
    replaceFile(path, "JSON file", [&](std::ostream &out) {
        std::string edge;
        appendReportHead(edge, report, true);
        out << edge;

        const int workers = pool.threadCount();
        const auto state =
            std::make_shared<BlockWrite>(report.outcomes, workers);
        try {
            // The caller takes one block itself, so one block
            // needs no pool task at all.
            for (std::size_t w = 0;
                 w < static_cast<std::size_t>(workers) &&
                 w + 1 < state->blocks;
                 ++w)
                pool.post([state] { state->work(); });
            state->writeTo(out);
        } catch (...) {
            state->cancel();
            throw;
        }
        edge.clear();
        appendReportTail(edge, report, true);
        edge += '\n';
        out << edge;
    });
}

std::string
streamEventLine(std::size_t index, const RequestOutcome &outcome)
{
    json::StreamWriter writer;
    appendStreamEvent(writer, index, outcome);
    return writer.take();
}

} // namespace ecochip
