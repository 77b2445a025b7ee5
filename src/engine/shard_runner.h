/**
 * @file
 * One coordinator worker: run a sub-batch file in-process and
 * write its report.
 *
 * `runShardWorker` is one worker's whole job -- load a sub-batch
 * file (`writeChunkFiles` output, `engine/work_queue.h`), run it
 * on an in-process `AnalysisEngine`, stream one outcome event per
 * finished request, and write the `BatchReport` JSON to disk.
 * `eco_chip --shard_worker` is a thin wrapper around it, and it is
 * what the coordinator (`engine/shard_coordinator.h`) runs per
 * dispatch: fork/exec'd through `--shard_worker` on the CLI path,
 * or called directly in a forked child in the fork-only
 * library/test/bench mode.
 *
 * Fork-only mode carries the usual POSIX precondition: fork from
 * an effectively single-threaded process (no live
 * `AnalysisEngine`/`ThreadPool` workers). The child starts as a
 * clone of the calling thread only, so a lock held by any other
 * parent thread at fork time -- allocator, iostream -- stays
 * locked forever in the child and deadlocks it. The fork/exec
 * mode has no such restriction.
 *
 * Determinism: workers inherit the engine's bit-identity
 * guarantee (any thread count, same results), so the coordinator's
 * merged report is byte-identical to `--batch` output (see
 * `tests/test_engine.cpp` and the `coordinate_equivalence` /
 * `shard_equivalence` CTests).
 *
 * Formats in `docs/file_formats.md`, CLI in `docs/cli.md`.
 */

#ifndef ECOCHIP_ENGINE_SHARD_RUNNER_H
#define ECOCHIP_ENGINE_SHARD_RUNNER_H

#include <string>

namespace ecochip {

/**
 * Run one sub-batch: load the sub-batch at @p sub_batch_path
 * (including its optional `"scenarios"` catalog), run it on an
 * `AnalysisEngine`, and write the `BatchReport` JSON to
 * @p report_path.
 *
 * @param sub_batch_path Sub-batch file (`writeChunkFiles`
 *        output, or any batch file).
 * @param report_path Destination for the `BatchReport` JSON.
 * @param engine_threads Worker threads for this worker's engine
 *        (results are bit-identical at any count).
 * @param scenarios_path Optional extra scenario catalog to load
 *        before the sub-batch's own.
 * @param events_path When non-empty, stream one NDJSON event
 *        line per outcome (sub-batch-local `index`, completion
 *        order, flushed per line) to this path while the batch
 *        runs -- what the coordinator tails for its
 *        incremental merge (`io/event_journal_io.h`). The final
 *        report is still written; events are a live preview of
 *        it, never a replacement.
 * @return 0 when every request succeeded, 1 when any failed (the
 *         report is written either way) -- the worker process
 *         exit convention.
 */
int runShardWorker(const std::string &sub_batch_path,
                   const std::string &report_path,
                   int engine_threads,
                   const std::string &scenarios_path = "",
                   const std::string &events_path = "");

} // namespace ecochip

#endif // ECOCHIP_ENGINE_SHARD_RUNNER_H
