#include "engine/shard_runner.h"

#include <fstream>
#include <string>
#include <utility>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "support/error.h"

namespace ecochip {

int
runShardWorker(const std::string &sub_batch_path,
               const std::string &report_path,
               int engine_threads,
               const std::string &scenarios_path,
               const std::string &events_path)
{
    const BatchFile batch = loadBatchFile(sub_batch_path);

    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (!scenarios_path.empty())
        registry.loadFile(scenarios_path);
    if (batch.scenarioCatalog)
        registry.loadFile(*batch.scenarioCatalog);

    EngineOptions options;
    options.threads = engine_threads;
    options.registry = std::move(registry);
    AnalysisEngine engine(std::move(options));

    BatchReport report;
    if (events_path.empty()) {
        report = engine.runBatch(batch.requests);
    } else {
        // Stream each outcome the moment it completes, flushed
        // per line so a tailing coordinator only ever reads
        // whole lines; then assemble the report by index --
        // `runBatch` does exactly this internally, so the
        // written report stays bit-identical to the
        // non-streaming path.
        std::ofstream events(events_path,
                             std::ios::out | std::ios::trunc);
        requireConfig(events.good(),
                      "cannot open the worker event stream for "
                      "writing: " +
                          events_path);
        report.outcomes.resize(batch.requests.size());
        engine.runStream(
            batch.requests,
            [&](std::size_t index,
                const RequestOutcome &outcome) {
                events << streamEventLine(index, outcome)
                       << '\n';
                events.flush();
                report.outcomes[index] = outcome;
            });
    }
    writeBatchReportFile(report, report_path, engine.pool());
    return report.allOk() ? 0 : 1;
}

} // namespace ecochip
