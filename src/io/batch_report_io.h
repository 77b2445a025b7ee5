/**
 * @file
 * JSON serialization of `BatchReport` and the NDJSON stream
 * format -- the wire formats of the batch engine's output side,
 * mirroring `io/request_io.h` on the input side.
 *
 * Two formats live here (field-by-field reference in
 * `docs/file_formats.md`):
 *
 *  - **BatchReport JSON** (`--batch --json`, `--shard_worker`
 *    reports, `--coordinate` merged output): one object
 *    `{"succeeded": N, "failed": M, "outcomes": [...]}` whose
 *    outcomes sit in request order. Coordinator workers write
 *    this format to disk, and the coordinator's merge reassembles
 *    their outcomes into one report that is byte-identical to the
 *    single-process run.
 *
 *  - **NDJSON stream events** (`--batch --stream`): one compact
 *    JSON object per line, emitted in completion order as worker
 *    threads finish. Each line carries the outcome plus the
 *    request's original batch `index`, so consumers can reorder
 *    or join against the input file.
 */

#ifndef ECOCHIP_IO_BATCH_REPORT_IO_H
#define ECOCHIP_IO_BATCH_REPORT_IO_H

#include <cstddef>
#include <string>

#include "engine/analysis_engine.h"
#include "json/stream_writer.h"

namespace ecochip {

/**
 * Emit one outcome through the streaming writer (shard workers
 * and the server stream every completion through it, no DOM):
 * `{"request": ..., "ok": bool, "result": ...}` on success,
 * `{"request": ..., "ok": false, "error": "..."}` on failure.
 */
void appendOutcome(json::StreamWriter &writer,
                   const RequestOutcome &outcome);

/**
 * Emit one NDJSON stream event -- the outcome document with the
 * request's batch `index` prepended -- through the writer.
 */
void appendStreamEvent(json::StreamWriter &writer,
                       std::size_t index,
                       const RequestOutcome &outcome);

/**
 * The whole report as one document, compact or pretty:
 * `{"succeeded": N, "failed": M, "outcomes": [...]}` with the
 * outcomes in request order, emitted with no intermediate DOM.
 */
std::string batchReportText(const BatchReport &report,
                            bool pretty);

/** Outcomes per block of the block-parallel report write. */
inline constexpr std::size_t kReportBlockOutcomes = 64;

/**
 * Write `batchReportText(report, true)` plus a newline to
 * @p path -- the same bytes, written block by block.
 *
 * Blocks of `kReportBlockOutcomes` consecutive outcomes are
 * serialized in parallel on @p pool's workers and on the calling
 * thread, and streamed to the file in request order as they
 * finish. At most 2 x (workers + 1) blocks are held at once, so
 * memory stays bounded whatever the report's size; the whole
 * report never exists as one string. @p pool is typically the
 * idle pool of the engine that produced the report
 * (`AnalysisEngine::pool()`); the caller's thread keeps the write
 * moving even when the pool is busy with other work.
 *
 * @throws ConfigError when @p path cannot be opened or a write to
 *         it fails (disk full, file size limit), and whatever
 *         serializing an outcome throws (ModelError for a
 *         non-finite number); the file is replaced through
 *         `replaceFile`, so the previous report is then kept.
 */
void writeBatchReportFile(const BatchReport &report,
                          const std::string &path,
                          ThreadPool &pool);

/**
 * One NDJSON stream event (`appendStreamEvent`) as one compact
 * line (no trailing newline -- the stream writer owns the line
 * discipline).
 */
std::string streamEventLine(std::size_t index,
                            const RequestOutcome &outcome);

} // namespace ecochip

#endif // ECOCHIP_IO_BATCH_REPORT_IO_H
