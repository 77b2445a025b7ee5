/**
 * @file
 * Tests for the analysis module: RNG, statistics, sensitivity,
 * and Monte-Carlo uncertainty.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/sensitivity.h"
#include "core/testcases.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stats.h"

namespace ecochip {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(7);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, Uniform01InRangeAndWellSpread)
{
    Rng rng(123);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(0.7, 1.3);
        ASSERT_GE(v, 0.7);
        ASSERT_LT(v, 1.3);
    }
}

TEST(SampleStats, HandComputedMoments)
{
    SampleStats stats({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
    EXPECT_NEAR(stats.stddev(), 1.2909944, 1e-6);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_EQ(stats.count(), 4u);
}

TEST(SampleStats, Percentiles)
{
    SampleStats stats({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 50.0);
    EXPECT_DOUBLE_EQ(stats.percentile(25.0), 20.0);
    EXPECT_DOUBLE_EQ(stats.percentile(87.5), 45.0);
    EXPECT_THROW(stats.percentile(-1.0), ConfigError);
    EXPECT_THROW(stats.percentile(101.0), ConfigError);
}

TEST(SampleStats, SingleSampleDegenerates)
{
    SampleStats stats({7.0});
    EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 7.0);
    EXPECT_THROW(SampleStats({}), ConfigError);
}

// ---------------------------------------------- sort equivalence

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
           << " differ in bits: " << a << " vs " << b;
}

#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bitEqual, a, b)

/**
 * SampleStats' figures computed the way it computes them, but
 * over a std::sort of the samples.
 */
void
expectMatchesStdSort(const std::vector<double> &samples)
{
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    const double mean = sum / n;
    double ss = 0.0;
    for (double v : sorted)
        ss += (v - mean) * (v - mean);
    const double stddev = std::sqrt(ss / (n - 1.0));
    auto percentile = [&](double p) {
        const double rank = p / 100.0 * (n - 1.0);
        const auto lo = static_cast<std::size_t>(rank);
        if (lo + 1 >= sorted.size())
            return sorted.back();
        const double frac = rank - static_cast<double>(lo);
        return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
    };

    const SampleStats stats(samples);
    ASSERT_EQ(stats.count(), sorted.size());
    EXPECT_BITEQ(stats.min(), sorted.front());
    EXPECT_BITEQ(stats.max(), sorted.back());
    EXPECT_BITEQ(stats.mean(), mean);
    EXPECT_BITEQ(stats.stddev(), stddev);
    for (double p : {0.0, 5.0, 50.0, 95.0, 100.0}) {
        SCOPED_TRACE(::testing::Message() << "p" << p);
        EXPECT_BITEQ(stats.percentile(p), percentile(p));
    }
}

/** Sizes around the radix threshold, plus Monte Carlo sizes. */
std::vector<std::size_t>
sortSizes()
{
    const std::size_t t = SampleStats::kRadixSortMinSamples;
    return {2, t - 1, t, t + 1, 512, 2048};
}

TEST(SampleStatsSort, MatchesStdSortOnSeededInputs)
{
    struct Shape
    {
        const char *name;
        double (*draw)(Rng &);
    };
    const Shape shapes[] = {
        // Monte Carlo shaped: one magnitude, a narrow band.
        {"narrow", [](Rng &r) { return 1234.5 * r.uniform(0.9, 1.1); }},
        {"negative", [](Rng &r) { return -r.uniform(1e-3, 1e6); }},
        {"mixed-sign",
         [](Rng &r) {
             return std::ldexp(r.uniform(-1.0, 1.0),
                               static_cast<int>(r.uniform(-60, 60)));
         }},
        // Few distinct values: long runs of duplicates.
        {"duplicates",
         [](Rng &r) {
             return std::floor(r.uniform(-4.0, 4.0)) * 0.5 + 0.25;
         }},
        // One value dominates every key byte, but not all samples.
        {"skewed",
         [](Rng &r) {
             return r.uniform(0.0, 1.0) < 0.9 ? 3.0
                                              : r.uniform(-5.0, 5.0);
         }},
    };
    for (const Shape &shape : shapes) {
        for (std::size_t n : sortSizes()) {
            SCOPED_TRACE(std::string(shape.name) + " n=" +
                         std::to_string(n));
            Rng rng(n * 7919 + 17);
            std::vector<double> samples(n);
            for (double &v : samples)
                v = shape.draw(rng);
            expectMatchesStdSort(samples);
        }
    }
}

TEST(SampleStatsSort, ZerosAndInfinitiesMatchStdSort)
{
    const double inf = std::numeric_limits<double>::infinity();
    // The samples are positive, so the zeros sort first and min()
    // shows which one leads.
    const std::vector<std::vector<double>> specials = {
        {0.0, -0.0}, {-0.0, 0.0}, {inf},       {-inf},
        {inf, -inf}, {-0.0, inf}, {0.0, -inf}};
    for (std::size_t k = 0; k < specials.size(); ++k) {
        for (std::size_t n : sortSizes()) {
            SCOPED_TRACE("special set " + std::to_string(k) +
                         " n=" + std::to_string(n));
            Rng rng(n + k);
            std::vector<double> samples(n);
            for (double &v : samples)
                v = rng.uniform(0.5, 10.0);
            for (std::size_t j = 0; j < specials[k].size(); ++j)
                samples[(j * 37) % n] = specials[k][j];
            expectMatchesStdSort(samples);
        }
    }
}

class SensitivityTest : public ::testing::Test
{
  protected:
    EcoChipConfig
    config() const
    {
        EcoChipConfig c;
        c.operating = testcases::ga102Operating();
        return c;
    }

    SystemSpec
    system(const TechDb &tech) const
    {
        return testcases::ga102ThreeChiplet(tech, 7.0, 14.0,
                                            10.0);
    }
};

TEST_F(SensitivityTest, FabIntensityNearUnitElasticityOfMfg)
{
    // Embodied carbon is dominated by fab energy whose carbon
    // scales linearly with intensity -> elasticity close to but
    // below 1 (gas/material terms don't scale).
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "fab carbon intensity")
            params.push_back(p);
    ASSERT_EQ(params.size(), 1u);

    const auto results = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].elasticity, 0.3);
    EXPECT_LT(results[0].elasticity, 1.0);
    EXPECT_LT(results[0].lowValue, results[0].baseValue);
    EXPECT_GT(results[0].highValue, results[0].baseValue);
}

TEST_F(SensitivityTest, LifetimeOnlyMovesOperationalCarbon)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "lifetime")
            params.push_back(p);

    const auto emb = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    EXPECT_NEAR(emb[0].elasticity, 0.0, 1e-9);

    const auto op = analyzer.analyze(
        system(tech), params, CarbonMetric::Operational);
    EXPECT_NEAR(op[0].elasticity, 1.0, 1e-6);
}

TEST_F(SensitivityTest, ChipletVolumeHasNegativeElasticity)
{
    // More parts -> better design amortization -> lower Cemb.
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "chiplet volume NMi")
            params.push_back(p);
    const auto results = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    EXPECT_LT(results[0].elasticity, 0.0);
}

TEST_F(SensitivityTest, StandardParametersAllEvaluate)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    const auto results = analyzer.analyze(
        system(tech), SensitivityAnalyzer::standardParameters(),
        CarbonMetric::Total);
    EXPECT_EQ(results.size(),
              SensitivityAnalyzer::standardParameters().size());
    for (const auto &row : results) {
        EXPECT_GT(row.lowValue, 0.0) << row.name;
        EXPECT_GT(row.highValue, 0.0) << row.name;
    }
}

TEST_F(SensitivityTest, DeltaValidation)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    EXPECT_THROW(
        analyzer.analyze(system(tech),
                         SensitivityAnalyzer::standardParameters(),
                         CarbonMetric::Total, 0.0),
        ConfigError);
    EXPECT_THROW(
        analyzer.analyze(system(tech),
                         SensitivityAnalyzer::standardParameters(),
                         CarbonMetric::Total, 1.0),
        ConfigError);
}

class MonteCarloTest : public ::testing::Test
{
  protected:
    EcoChipConfig
    config() const
    {
        EcoChipConfig c;
        c.operating = testcases::ga102Operating();
        return c;
    }
};

TEST_F(MonteCarloTest, DeterministicForEqualSeeds)
{
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);
    const UncertaintyReport a = analyzer.run(system, 50, 99);
    const UncertaintyReport b = analyzer.run(system, 50, 99);
    EXPECT_DOUBLE_EQ(a.embodied.mean(), b.embodied.mean());
    EXPECT_DOUBLE_EQ(a.total.percentile(90.0),
                     b.total.percentile(90.0));
}

TEST_F(MonteCarloTest, IndependentAnalyzersIdenticalForEqualSeeds)
{
    // Two analyzers constructed from scratch must reproduce the
    // exact same distribution for the same seed: CTest runs suites
    // in parallel (`ctest -j`), so any hidden global RNG state
    // would surface as flaky cross-run differences here.
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    const MonteCarloAnalyzer first(config());
    const MonteCarloAnalyzer second(config());
    const UncertaintyReport a = first.run(system, 64, 2024);
    const UncertaintyReport b = second.run(system, 64, 2024);

    const auto expect_identical = [](const SampleStats &x,
                                     const SampleStats &y) {
        EXPECT_EQ(x.count(), y.count());
        EXPECT_DOUBLE_EQ(x.mean(), y.mean());
        EXPECT_DOUBLE_EQ(x.stddev(), y.stddev());
        EXPECT_DOUBLE_EQ(x.min(), y.min());
        EXPECT_DOUBLE_EQ(x.max(), y.max());
        for (double p : {5.0, 50.0, 95.0})
            EXPECT_DOUBLE_EQ(x.percentile(p), y.percentile(p));
    };
    expect_identical(a.embodied, b.embodied);
    expect_identical(a.operational, b.operational);
    expect_identical(a.total, b.total);

    // A different seed must actually move the distribution.
    const UncertaintyReport c = first.run(system, 64, 2025);
    EXPECT_NE(a.total.mean(), c.total.mean());
}

TEST_F(MonteCarloTest, DistributionBracketsDeterministicValue)
{
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    EcoChip point_estimator(config());
    const double point =
        point_estimator.estimate(system).embodiedCo2Kg();

    const UncertaintyReport report =
        analyzer.run(system, 200, 7);
    EXPECT_LT(report.embodied.min(), point);
    EXPECT_GT(report.embodied.max(), point);
    EXPECT_NEAR(report.embodied.mean(), point,
                0.15 * point);
    // Spread is real but bounded.
    EXPECT_GT(report.embodied.stddev(), 0.0);
    EXPECT_LT(report.embodied.stddev(), 0.5 * point);
}

TEST_F(MonteCarloTest, ZeroBandsCollapseToPointEstimate)
{
    UncertaintyBands none;
    none.defectDensity = 0.0;
    none.epa = 0.0;
    none.intensity = 0.0;
    none.designTime = 0.0;
    none.dutyCycle = 0.0;
    MonteCarloAnalyzer analyzer(config(), TechDb(), none);
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    const UncertaintyReport report =
        analyzer.run(system, 10, 1);
    EXPECT_NEAR(report.total.stddev(), 0.0, 1e-9);

    EcoChip point_estimator(config());
    EXPECT_NEAR(report.total.mean(),
                point_estimator.estimate(system).totalCo2Kg(),
                1e-9);
}

TEST_F(MonteCarloTest, Validation)
{
    UncertaintyBands bad;
    bad.defectDensity = 1.5;
    EXPECT_THROW(MonteCarloAnalyzer(config(), TechDb(), bad),
                 ConfigError);
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    EXPECT_THROW(
        analyzer.run(
            testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0),
            1),
        ConfigError);
}

} // namespace
} // namespace ecochip
