/**
 * @file
 * Golden bit-identity tests for the data-oriented batch kernels
 * (`src/kernels/`). The kernels restructure the hot loops of the
 * tech-space sweep, the Monte-Carlo analyzer, and the sensitivity
 * sweep into compile-once/evaluate-many form; their contract is
 * that every number they produce is *byte-identical* to the
 * scalar `EcoChip::estimate()` path. These tests pin that
 * contract against test-local reimplementations of the legacy
 * scalar loops (per-point / per-trial model construction), across
 * every built-in scenario and every packaging architecture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/sensitivity.h"
#include "core/explorer.h"
#include "core/testcases.h"
#include "session/scenario_registry.h"
#include "support/rng.h"

namespace ecochip {
namespace {

// ------------------------------------------------ bit equality

::testing::AssertionResult
bitEqual(const char *a_expr, const char *b_expr, double a, double b)
{
    std::uint64_t a_bits = 0, b_bits = 0;
    std::memcpy(&a_bits, &a, sizeof a);
    std::memcpy(&b_bits, &b, sizeof b);
    if (a_bits == b_bits)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a_expr << " and " << b_expr
           << " differ in bits: " << a << " vs " << b
           << " (delta " << (b - a) << ")";
}

#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bitEqual, a, b)

void
expectReportBitIdentical(const CarbonReport &expected,
                         const CarbonReport &actual)
{
    EXPECT_BITEQ(expected.mfgCo2Kg, actual.mfgCo2Kg);
    EXPECT_BITEQ(expected.designCo2Kg, actual.designCo2Kg);
    EXPECT_BITEQ(expected.nreCo2Kg, actual.nreCo2Kg);
    EXPECT_BITEQ(expected.hi.packageCo2Kg, actual.hi.packageCo2Kg);
    EXPECT_BITEQ(expected.hi.routingCo2Kg, actual.hi.routingCo2Kg);
    EXPECT_BITEQ(expected.hi.packageAreaMm2,
                 actual.hi.packageAreaMm2);
    EXPECT_BITEQ(expected.hi.whitespaceAreaMm2,
                 actual.hi.whitespaceAreaMm2);
    EXPECT_BITEQ(expected.hi.packageYield, actual.hi.packageYield);
    EXPECT_EQ(expected.hi.bridgeCount, actual.hi.bridgeCount);
    EXPECT_BITEQ(expected.hi.bondCount, actual.hi.bondCount);
    EXPECT_BITEQ(expected.hi.stackBondCo2Kg,
                 actual.hi.stackBondCo2Kg);
    EXPECT_BITEQ(expected.hi.commAreaMm2, actual.hi.commAreaMm2);
    EXPECT_BITEQ(expected.hi.nocPowerW, actual.hi.nocPowerW);
    EXPECT_BITEQ(expected.operation.avgPowerW,
                 actual.operation.avgPowerW);
    EXPECT_BITEQ(expected.operation.lifetimeEnergyKwh,
                 actual.operation.lifetimeEnergyKwh);
    EXPECT_BITEQ(expected.operation.co2Kg, actual.operation.co2Kg);
    EXPECT_BITEQ(expected.embodiedCo2Kg(), actual.embodiedCo2Kg());
    EXPECT_BITEQ(expected.totalCo2Kg(), actual.totalCo2Kg());
    ASSERT_EQ(expected.chiplets.size(), actual.chiplets.size());
    for (std::size_t i = 0; i < expected.chiplets.size(); ++i) {
        EXPECT_EQ(expected.chiplets[i].name,
                  actual.chiplets[i].name);
        EXPECT_BITEQ(expected.chiplets[i].nodeNm,
                     actual.chiplets[i].nodeNm);
        EXPECT_BITEQ(expected.chiplets[i].areaMm2,
                     actual.chiplets[i].areaMm2);
        EXPECT_BITEQ(expected.chiplets[i].yield,
                     actual.chiplets[i].yield);
        EXPECT_BITEQ(expected.chiplets[i].mfgCo2Kg,
                     actual.chiplets[i].mfgCo2Kg);
        EXPECT_BITEQ(expected.chiplets[i].designCo2Kg,
                     actual.chiplets[i].designCo2Kg);
    }
}

// ------------------------------------------------ scalar oracles

/**
 * Per-chiplet candidate lists that keep the cross product small:
 * the first two chiplets get two candidates each, the rest keep a
 * single node, so every scenario sweeps at most four points while
 * still exercising per-chiplet lists and mixed-node assignments.
 */
std::vector<std::vector<double>>
smallCandidateGrid(const SystemSpec &system)
{
    std::vector<std::vector<double>> grid;
    for (std::size_t i = 0; i < system.chiplets.size(); ++i) {
        // A monolithic die's blocks must share one node, so its
        // "sweep" collapses to a single assignment.
        if (system.singleDie)
            grid.push_back({10.0});
        else if (i < 2)
            grid.push_back({7.0, 14.0});
        else
            grid.push_back({10.0});
    }
    return grid;
}

/**
 * The legacy sweep loop: cartesian odometer over the candidate
 * lists, one `estimate()` per point on a *fresh* estimator (no
 * shared caches), mirroring the pre-kernel scalar evaluation.
 */
std::vector<ExplorationPoint>
scalarSweep(const EcoChipConfig &config, const TechDb &tech,
            const SystemSpec &system,
            const std::vector<std::vector<double>> &candidates)
{
    std::vector<ExplorationPoint> points;
    std::vector<std::size_t> index(candidates.size(), 0);
    while (true) {
        std::vector<double> assignment;
        assignment.reserve(index.size());
        for (std::size_t i = 0; i < index.size(); ++i)
            assignment.push_back(candidates[i][index[i]]);

        ExplorationPoint point;
        point.nodesNm = assignment;
        point.system = system.withNodes(assignment);
        const EcoChip fresh(config, tech);
        point.report = fresh.estimate(point.system);
        points.push_back(std::move(point));

        std::size_t pos = index.size();
        while (pos > 0) {
            --pos;
            if (++index[pos] < candidates[pos].size())
                break;
            index[pos] = 0;
            if (pos == 0)
                return points;
        }
    }
}

/**
 * The legacy Monte-Carlo trial: draw scales serially from the
 * seed, then rebuild the technology tables and configuration per
 * trial and evaluate on a throwaway estimator. Copied from the
 * pre-kernel analyzer; the batch path must reproduce its sample
 * vectors exactly.
 */
UncertaintyReport
scalarMonteCarlo(const EcoChipConfig &base_config,
                 const TechDb &base_tech,
                 const UncertaintyBands &bands,
                 const SystemSpec &system, int trials,
                 std::uint64_t seed)
{
    struct Scales
    {
        double defectDensity = 1.0;
        double epa = 1.0;
        double intensity = 1.0;
        double designTime = 1.0;
        double dutyCycle = 1.0;
    };

    Rng rng(seed);
    auto scale_band = [&rng](double half_width) {
        return rng.uniform(1.0 - half_width, 1.0 + half_width);
    };
    std::vector<Scales> scales;
    scales.reserve(trials);
    for (int trial = 0; trial < trials; ++trial) {
        Scales s;
        s.defectDensity = scale_band(bands.defectDensity);
        s.epa = scale_band(bands.epa);
        s.intensity = scale_band(bands.intensity);
        s.designTime = scale_band(bands.designTime);
        s.dutyCycle = scale_band(bands.dutyCycle);
        scales.push_back(s);
    }

    std::vector<double> embodied(trials), operational(trials),
        total(trials);
    for (int trial = 0; trial < trials; ++trial) {
        EcoChipConfig config = base_config;
        TechDb tech = base_tech;

        std::vector<std::pair<double, double>> d0_points;
        std::vector<std::pair<double, double>> epa_points;
        for (double node : TechDb::standardNodesNm()) {
            d0_points.emplace_back(
                node, scales[trial].defectDensity *
                          base_tech.defectDensityPerCm2(node));
            epa_points.emplace_back(
                node, scales[trial].epa *
                          base_tech.epaKwhPerCm2(node));
        }
        tech.setDefectDensityTable(PiecewiseLinear(d0_points));
        tech.setEpaTable(PiecewiseLinear(epa_points));

        config.fabIntensityGPerKwh *= scales[trial].intensity;
        config.package.intensityGPerKwh *= scales[trial].intensity;
        config.design.intensityGPerKwh *= scales[trial].intensity;
        config.design.sprHoursPerMgate *= scales[trial].designTime;
        config.operating.dutyCycle =
            std::min(1.0, config.operating.dutyCycle *
                              scales[trial].dutyCycle);

        const EcoChip estimator(std::move(config),
                                std::move(tech));
        const CarbonReport report = estimator.estimate(system);
        embodied[trial] = report.embodiedCo2Kg();
        operational[trial] = report.operation.co2Kg;
        total[trial] = report.totalCo2Kg();
    }
    return UncertaintyReport{SampleStats(std::move(embodied)),
                             SampleStats(std::move(operational)),
                             SampleStats(std::move(total))};
}

void
expectStatsBitIdentical(const SampleStats &expected,
                        const SampleStats &actual)
{
    ASSERT_EQ(expected.count(), actual.count());
    EXPECT_BITEQ(expected.mean(), actual.mean());
    EXPECT_BITEQ(expected.stddev(), actual.stddev());
    EXPECT_BITEQ(expected.min(), actual.min());
    EXPECT_BITEQ(expected.max(), actual.max());
    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0})
        EXPECT_BITEQ(expected.percentile(p),
                     actual.percentile(p));
}

/** Configuration variants covering every packaging architecture. */
std::vector<EcoChipConfig>
architectureConfigs()
{
    std::vector<EcoChipConfig> configs;
    for (PackagingArch arch :
         {PackagingArch::RdlFanout, PackagingArch::SiliconBridge,
          PackagingArch::PassiveInterposer,
          PackagingArch::ActiveInterposer,
          PackagingArch::Stack3d}) {
        EcoChipConfig config;
        config.package.arch = arch;
        config.operating = testcases::ga102Operating();
        configs.push_back(config);
    }
    // NRE extension on top of an interposer package.
    EcoChipConfig nre;
    nre.package.arch = PackagingArch::ActiveInterposer;
    nre.operating = testcases::ga102Operating();
    nre.includeMaskNre = true;
    configs.push_back(nre);
    // The other die-yield statistics, each on a different package:
    // dieYieldFast switches on the model in the Monte Carlo loop.
    const std::pair<YieldModelKind, PackagingArch> yields[] = {
        {YieldModelKind::Poisson, PackagingArch::RdlFanout},
        {YieldModelKind::Murphy, PackagingArch::SiliconBridge},
        {YieldModelKind::Seeds, PackagingArch::Stack3d},
    };
    for (const auto &[kind, arch] : yields) {
        EcoChipConfig config;
        config.package.arch = arch;
        config.operating = testcases::ga102Operating();
        config.yieldModel = kind;
        configs.push_back(config);
    }
    return configs;
}

/** Trace label of one architectureConfigs() entry. */
std::string
configLabel(const EcoChipConfig &config)
{
    return std::string("arch ") + toString(config.package.arch) +
           " yield " + toString(config.yieldModel) +
           (config.includeMaskNre ? " +nre" : "");
}

// ------------------------------------------------ sweep goldens

TEST(KernelSweepGolden, BitIdenticalAcrossBuiltinScenarios)
{
    const TechDb tech;
    for (const std::string &name :
         ScenarioRegistry::builtin().names()) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);
        const auto grid =
            smallCandidateGrid(bundle.system);

        const std::vector<ExplorationPoint> expected =
            scalarSweep(bundle.config, tech, bundle.system, grid);

        const EcoChip estimator(bundle.config, tech);
        const TechSpaceExplorer explorer(estimator);
        const std::vector<ExplorationPoint> actual =
            explorer.sweep(bundle.system, grid);

        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            SCOPED_TRACE("point " + expected[i].label());
            ASSERT_EQ(expected[i].nodesNm, actual[i].nodesNm);
            expectReportBitIdentical(expected[i].report,
                                     actual[i].report);
        }
    }
}

TEST(KernelSweepGolden, BitIdenticalAcrossArchitectures)
{
    const TechDb tech;
    for (const EcoChipConfig &config : architectureConfigs()) {
        SCOPED_TRACE(configLabel(config));
        const SystemSpec system = testcases::ga102ThreeChiplet(
            tech, 7.0, 10.0, 14.0);
        const std::vector<std::vector<double>> grid(
            system.chiplets.size(),
            std::vector<double>{7.0, 14.0});

        const std::vector<ExplorationPoint> expected =
            scalarSweep(config, tech, system, grid);

        const EcoChip estimator(config, tech);
        const std::vector<ExplorationPoint> actual =
            TechSpaceExplorer(estimator).sweep(system, grid);

        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            SCOPED_TRACE("point " + expected[i].label());
            expectReportBitIdentical(expected[i].report,
                                     actual[i].report);
        }
    }
}

TEST(KernelSweepGolden, StackedGroupsBitIdentical)
{
    // Partial 3D stacking (stack groups on a 2.5D base) walks the
    // group-bond branch of the kernel.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::PassiveInterposer;
    config.operating = testcases::hbmAcceleratorOperating();
    const SystemSpec system = testcases::hbmAccelerator(tech);

    const auto grid = smallCandidateGrid(system);
    const std::vector<ExplorationPoint> expected =
        scalarSweep(config, tech, system, grid);

    const EcoChip estimator(config, tech);
    const std::vector<ExplorationPoint> actual =
        TechSpaceExplorer(estimator).sweep(system, grid);

    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectReportBitIdentical(expected[i].report,
                                 actual[i].report);
}

TEST(KernelSweepGolden, RepeatedSweepServedFromSharedCache)
{
    // Second sweep on the same estimator must hit the shared
    // report cache and reproduce the first run exactly.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);

    const EcoChip estimator(config, tech);
    const TechSpaceExplorer explorer(estimator);
    const std::vector<double> nodes = {7.0, 10.0, 14.0};
    const auto first = explorer.sweep(system, nodes);
    const auto second = explorer.sweep(system, nodes);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectReportBitIdentical(first[i].report,
                                 second[i].report);
}

TEST(KernelSweepGolden, SweptPointMatchesDirectEstimate)
{
    // A point pulled out of the sweep equals a direct scalar
    // estimate() of the same assignment on the same estimator.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::SiliconBridge;
    config.operating = testcases::emrOperating();
    const SystemSpec system = testcases::emrTwoChiplet(tech);

    const EcoChip estimator(config, tech);
    const auto points = TechSpaceExplorer(estimator)
                            .sweep(system, {7.0, 10.0});
    ASSERT_FALSE(points.empty());
    for (const auto &point : points) {
        const CarbonReport direct =
            estimator.estimate(point.system);
        expectReportBitIdentical(direct, point.report);
    }
}

// ------------------------------------------- Monte-Carlo goldens

TEST(KernelMonteCarloGolden, BitIdenticalToScalarTrials)
{
    // Every builtin: the repeated dies and tiers (server-4die,
    // hbm-accel, emr, ga102-hbm, riscv-manycore64, arvr-2k) share
    // interned die entries, and the -mono scenarios take the
    // single-die path.
    const TechDb tech;
    const UncertaintyBands bands;
    for (const std::string &name :
         ScenarioRegistry::builtin().names()) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);

        for (std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            const UncertaintyReport expected = scalarMonteCarlo(
                bundle.config, tech, bands, bundle.system, 16,
                seed);

            const MonteCarloAnalyzer analyzer(bundle.config, tech,
                                              bands);
            const UncertaintyReport actual = analyzer.run(
                bundle.system, 16, seed, Parallelism{1});

            expectStatsBitIdentical(expected.embodied,
                                    actual.embodied);
            expectStatsBitIdentical(expected.operational,
                                    actual.operational);
            expectStatsBitIdentical(expected.total, actual.total);
        }
    }
}

TEST(KernelMonteCarloGolden, BitIdenticalAcrossArchitectures)
{
    // Every packaging architecture and die-yield model, on a flat
    // system and on one with stack groups, with every band open.
    const TechDb tech;
    UncertaintyBands bands;
    bands.defectDensity = 0.3;
    bands.epa = 0.2;
    bands.intensity = 0.2;
    bands.designTime = 0.3;
    bands.dutyCycle = 0.2;
    const SystemSpec systems[] = {
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0),
        testcases::ga102Hbm(tech, 2, 2),
    };
    for (const EcoChipConfig &config : architectureConfigs()) {
        SCOPED_TRACE(configLabel(config));
        for (const SystemSpec &system : systems) {
            SCOPED_TRACE("system " + system.name);
            const UncertaintyReport expected = scalarMonteCarlo(
                config, tech, bands, system, 16, 99);
            const UncertaintyReport actual =
                MonteCarloAnalyzer(config, tech, bands)
                    .run(system, 16, 99, Parallelism{1});
            expectStatsBitIdentical(expected.embodied,
                                    actual.embodied);
            expectStatsBitIdentical(expected.operational,
                                    actual.operational);
            expectStatsBitIdentical(expected.total, actual.total);
        }
    }
}

TEST(KernelMonteCarloGolden, EqualAreaDiesAtDifferentNodesStayDistinct)
{
    // Dies that agree in area but not in node must not share an
    // interned entry: the die table compares every field. The
    // first and last dies are identical and do share one.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    SystemSpec system;
    system.name = "equal-area";
    for (double node_nm : {7.0, 10.0, 14.0, 7.0})
        system.chiplets.push_back(Chiplet::fromArea(
            "die", DesignType::Logic, node_nm, 100.0, tech));
    ASSERT_EQ(system.chiplets[0].areaMm2(tech),
              system.chiplets[2].areaMm2(tech));

    const UncertaintyBands bands;
    const UncertaintyReport expected =
        scalarMonteCarlo(config, tech, bands, system, 16, 7);
    const UncertaintyReport actual =
        MonteCarloAnalyzer(config, tech, bands)
            .run(system, 16, 7, Parallelism{1});
    expectStatsBitIdentical(expected.embodied, actual.embodied);
    expectStatsBitIdentical(expected.operational,
                            actual.operational);
    expectStatsBitIdentical(expected.total, actual.total);
}

TEST(KernelMonteCarloGolden, ThreadCountNeverChangesTheReport)
{
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::ActiveInterposer;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);

    const MonteCarloAnalyzer analyzer(config, tech);
    const UncertaintyReport serial =
        analyzer.run(system, 24, 42, Parallelism{1});
    for (int threads : {2, 4, 7}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const UncertaintyReport threaded =
            analyzer.run(system, 24, 42, Parallelism{threads});
        expectStatsBitIdentical(serial.embodied,
                                threaded.embodied);
        expectStatsBitIdentical(serial.operational,
                                threaded.operational);
        expectStatsBitIdentical(serial.total, threaded.total);
    }
}

// ------------------------------------------- sensitivity goldens

TEST(KernelSensitivityGolden, BatchMatchesScalarFallback)
{
    // Clearing every parameter's batch target forces the scalar
    // per-perturbation path; with targets set, the batch kernel
    // runs. Both must produce byte-identical rows.
    const TechDb tech;
    for (const std::string &name :
         {std::string("ga102"), std::string("emr"),
          std::string("hbm-accel")}) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);
        const SensitivityAnalyzer analyzer(bundle.config, tech);

        const auto batched =
            SensitivityAnalyzer::standardParameters();
        auto scalar = batched;
        for (auto &param : scalar)
            param.target.reset();

        for (CarbonMetric metric :
             {CarbonMetric::Embodied, CarbonMetric::Operational,
              CarbonMetric::Total}) {
            SCOPED_TRACE("metric " + std::to_string(
                                         static_cast<int>(metric)));
            const auto expected = analyzer.analyze(
                bundle.system, scalar, metric, 0.10);
            const auto actual = analyzer.analyze(
                bundle.system, batched, metric, 0.10);
            ASSERT_EQ(expected.size(), actual.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                SCOPED_TRACE("parameter " + expected[i].name);
                EXPECT_EQ(expected[i].name, actual[i].name);
                EXPECT_BITEQ(expected[i].baseValue,
                             actual[i].baseValue);
                EXPECT_BITEQ(expected[i].lowValue,
                             actual[i].lowValue);
                EXPECT_BITEQ(expected[i].highValue,
                             actual[i].highValue);
                EXPECT_BITEQ(expected[i].elasticity,
                             actual[i].elasticity);
            }
        }
    }
}

TEST(KernelSensitivityGolden, MixedCustomParametersStillScalar)
{
    // A custom parameter without a batch target sends the whole
    // sweep down the scalar path; rows must match the all-scalar
    // run bit for bit.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);
    const SensitivityAnalyzer analyzer(config, tech);

    auto params = SensitivityAnalyzer::standardParameters();
    params.push_back(
        {"wafer-area intensity (custom)",
         [](EcoChipConfig &cfg, TechDb &, double scale) {
             cfg.fabIntensityGPerKwh *= scale;
         },
         std::nullopt});

    auto all_scalar = params;
    for (auto &param : all_scalar)
        param.target.reset();

    const auto expected = analyzer.analyze(
        system, all_scalar, CarbonMetric::Total, 0.05);
    const auto actual = analyzer.analyze(
        system, params, CarbonMetric::Total, 0.05);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].name, actual[i].name);
        EXPECT_BITEQ(expected[i].lowValue, actual[i].lowValue);
        EXPECT_BITEQ(expected[i].highValue, actual[i].highValue);
        EXPECT_BITEQ(expected[i].elasticity,
                     actual[i].elasticity);
    }
}

} // namespace
} // namespace ecochip
