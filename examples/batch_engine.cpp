/**
 * @file
 * Batch engine walkthrough: declarative `AnalysisRequest`s
 * scheduled asynchronously across a thread pool, with scenario
 * deduplication, per-request failure isolation, and the JSON wire
 * format (`eco_chip --batch` uses exactly this path).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/batch_engine
 */

#include <future>
#include <iostream>

#include "engine/analysis_engine.h"
#include "io/request_io.h"

int
main()
{
    using namespace ecochip;

    // 1. Declare *what* to compute: one request per question.
    //    Requests are plain values -- the same ones eco_chip
    //    reads from requests.json.
    std::vector<AnalysisRequest> requests;
    for (const char *name : {"ga102", "ga102-mono", "emr",
                             "server-4die", "hbm-accel"})
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});

    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0, 14.0};
    requests.push_back({ScenarioRef::scenario("ga102"), sweep});

    MonteCarloSpec mc;
    mc.trials = 256;
    mc.seed = 42;
    requests.push_back({ScenarioRef::scenario("ga102"), mc});

    // A deliberately broken request: it fails alone, the batch
    // completes.
    requests.push_back({ScenarioRef::scenario("typo-scenario"),
                        EstimateSpec{}});

    std::cout << "wire format of request #5:\n"
              << requestToJson(requests[5]).dump(true) << "\n\n";

    // 2. Hand the batch to the engine, which owns *how* it runs:
    //    4 workers, one shared evaluation context per distinct
    //    scenario. Results are bit-identical at any thread count.
    AnalysisEngine engine(4);
    const BatchReport report = engine.runBatch(requests);

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const RequestOutcome &outcome = report.outcomes[i];
        std::cout << "#" << i << " "
                  << toString(outcome.request.kind()) << " "
                  << outcome.request.scenario.label() << ": ";
        if (!outcome.ok()) {
            std::cout << "FAILED (" << outcome.error << ")\n";
            continue;
        }
        if (outcome.result->report)
            std::cout << outcome.result->report->totalCo2Kg()
                      << " kg CO2 total";
        else if (!outcome.result->points.empty())
            std::cout << outcome.result->points.size()
                      << " sweep points";
        else if (outcome.result->uncertainty)
            std::cout << "embodied p50 "
                      << outcome.result->uncertainty->embodied
                             .percentile(50.0)
                      << " kg CO2";
        std::cout << "\n";
    }

    std::cout << "\n" << report.succeeded() << "/"
              << report.outcomes.size() << " ok across "
              << engine.contextCount()
              << " deduplicated evaluation contexts\n";

    // 3. Callbacks, for event-driven consumers: submit() returns
    //    immediately and hands the outcome to a callback on the
    //    worker that finished it (the path --serve answers
    //    through). Here a promise carries it back to main.
    std::promise<RequestOutcome> a15;
    std::future<RequestOutcome> a15_done = a15.get_future();
    engine.submit({ScenarioRef::scenario("a15"), EstimateSpec{}},
                  [&a15](RequestOutcome outcome) {
                      a15.set_value(std::move(outcome));
                  });
    std::cout << "a15 total: "
              << a15_done.get().result->report->totalCo2Kg()
              << " kg CO2\n";

    // The demo intentionally included one failing request; the
    // example itself succeeds when isolation held.
    return report.failed() == 1 ? 0 : 1;
}
