/**
 * @file
 * Tests for mixed 2.5D/3D integration: vertical stack groups on a
 * planar package (HBM-style towers).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecochip.h"
#include "core/testcases.h"
#include "json/json.h"
#include "package/package_model.h"
#include "session/analysis_session.h"
#include "support/error.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip {
namespace {

class StackGroupTest : public ::testing::Test
{
  protected:
    /** compute die + one tower of `tiers` memory dies. */
    SystemSpec
    makeStacked(int tiers, double mem_die_area = 25.0) const
    {
        SystemSpec system;
        system.name = "stacked";
        system.chiplets.push_back(Chiplet::fromArea(
            "compute", DesignType::Logic, 7.0, 150.0, tech_));
        for (int i = 0; i < tiers; ++i) {
            Chiplet die = Chiplet::fromArea(
                "mem" + std::to_string(i), DesignType::Memory,
                10.0, mem_die_area, tech_);
            die.stackGroup = "tower";
            system.chiplets.push_back(die);
        }
        return system;
    }

    HiResult
    evaluate(const SystemSpec &system,
             PackagingArch arch =
                 PackagingArch::PassiveInterposer) const
    {
        PackageParams pkg;
        pkg.arch = arch;
        return PackageModel(tech_, mfg_, pkg).evaluate(system);
    }

    TechDb tech_;
    ManufacturingModel mfg_{tech_};
};

TEST_F(StackGroupTest, TowerOccupiesOneFootprint)
{
    const SystemSpec stacked = makeStacked(4);
    PackageParams pkg;
    pkg.arch = PackagingArch::PassiveInterposer;
    PackageModel model(tech_, mfg_, pkg);

    const FloorplanResult fp = model.floorplan(stacked);
    // Two boxes: compute + the tower.
    EXPECT_EQ(fp.placements.size(), 2u);
    EXPECT_NO_THROW(fp.placement("tower"));
    EXPECT_NO_THROW(fp.placement("compute"));
    // Tower footprint = one die's area (equal tiers).
    EXPECT_NEAR(fp.placement("tower").widthMm *
                    fp.placement("tower").heightMm,
                25.0, 1e-6);
}

TEST_F(StackGroupTest, StackingShrinksThePackage)
{
    const SystemSpec stacked = makeStacked(4);
    SystemSpec planar = stacked;
    for (auto &chiplet : planar.chiplets)
        chiplet.stackGroup.clear();

    const HiResult hi_stacked = evaluate(stacked);
    const HiResult hi_planar = evaluate(planar);
    EXPECT_LT(hi_stacked.packageAreaMm2,
              hi_planar.packageAreaMm2);
}

TEST_F(StackGroupTest, StackBondsAreChargedAndYieldCompounds)
{
    const HiResult hi = evaluate(makeStacked(4));
    EXPECT_GT(hi.stackBondCo2Kg, 0.0);
    EXPECT_GT(hi.bondCount, 0.0);
    EXPECT_LT(hi.packageYield, 1.0);

    // More tiers -> more bond events -> more bond carbon.
    const HiResult taller = evaluate(makeStacked(8));
    EXPECT_GT(taller.stackBondCo2Kg, hi.stackBondCo2Kg);
}

TEST_F(StackGroupTest, WorksOnEveryPlanarArchitecture)
{
    for (PackagingArch arch :
         {PackagingArch::RdlFanout, PackagingArch::SiliconBridge,
          PackagingArch::PassiveInterposer,
          PackagingArch::ActiveInterposer}) {
        const HiResult hi = evaluate(makeStacked(2), arch);
        EXPECT_GT(hi.stackBondCo2Kg, 0.0) << toString(arch);
        EXPECT_GT(hi.packageCo2Kg, hi.stackBondCo2Kg)
            << toString(arch);
    }
}

TEST_F(StackGroupTest, SingleTierGroupRejected)
{
    SystemSpec system;
    system.chiplets.push_back(Chiplet::fromArea(
        "compute", DesignType::Logic, 7.0, 100.0, tech_));
    Chiplet lonely = Chiplet::fromArea(
        "mem", DesignType::Memory, 10.0, 25.0, tech_);
    lonely.stackGroup = "tower";
    system.chiplets.push_back(lonely);
    EXPECT_THROW(evaluate(system), ConfigError);
}

TEST_F(StackGroupTest, Pure3dIgnoresGroups)
{
    // Stack3d treats the whole system as one tower regardless of
    // group labels.
    const HiResult hi =
        evaluate(makeStacked(3), PackagingArch::Stack3d);
    EXPECT_GT(hi.stackBondCo2Kg, 0.0);
    EXPECT_DOUBLE_EQ(hi.whitespaceAreaMm2, 0.0);
}

TEST_F(StackGroupTest, Ga102HbmTestcaseShape)
{
    const SystemSpec hbm = testcases::ga102Hbm(tech_, 2, 4);
    EXPECT_EQ(hbm.chiplets.size(), 10u); // digital+analog+8 dies
    // Memory content preserved vs. the 3-chiplet split.
    const SystemSpec three =
        testcases::ga102ThreeChiplet(tech_, 7.0, 10.0, 14.0);
    EXPECT_NEAR(hbm.totalTransistorsMtr(),
                three.totalTransistorsMtr(), 1e-6);
    // One fresh memory-die design, rest reused.
    int fresh_mem = 0;
    for (const auto &chiplet : hbm.chiplets)
        if (!chiplet.stackGroup.empty() && !chiplet.reused)
            ++fresh_mem;
    EXPECT_EQ(fresh_mem, 1);
    EXPECT_THROW(testcases::ga102Hbm(tech_, 0, 4), ConfigError);
    EXPECT_THROW(testcases::ga102Hbm(tech_, 2, 1), ConfigError);
}

TEST_F(StackGroupTest, Ga102HbmEndToEnd)
{
    EcoChipConfig config;
    config.package.arch = PackagingArch::PassiveInterposer;
    config.operating = testcases::ga102Operating();
    EcoChip estimator(config);

    const CarbonReport hbm = estimator.estimate(
        testcases::ga102Hbm(estimator.tech(), 2, 4));
    const CarbonReport planar = estimator.estimate(
        testcases::ga102ThreeChiplet(estimator.tech(), 7.0, 10.0,
                                     14.0));
    EXPECT_GT(hbm.hi.stackBondCo2Kg, 0.0);
    // The HBM package is smaller in 2D.
    EXPECT_LT(hbm.hi.packageAreaMm2, planar.hi.packageAreaMm2);
    // Smaller memory dies also yield better -> mfg carbon of the
    // HBM config does not exceed the planar split's.
    EXPECT_LE(hbm.mfgCo2Kg, planar.mfgCo2Kg + 1e-9);
}

/** Scenario @p name of `data/scenarios/carbon_golden_catalog.json`
 *  with its architecture passed through @p edit, registered as
 *  @p name (the catalog's other scenarios are left out). */
template <typename Edit>
AnalysisSession
goldenVariant(const std::string &name, Edit edit)
{
    const json::Value catalog =
        json::parseFile(std::string(ECOCHIP_DATA_DIR) +
                        "/scenarios/carbon_golden_catalog.json");
    for (json::Value scenario : catalog.at("scenarios").asArray()) {
        if (scenario.at("name").asString() != name)
            continue;
        json::Value architecture = scenario.at("architecture");
        edit(architecture);
        scenario.set("architecture", std::move(architecture));
        json::Value doc = json::Value::makeObject();
        doc.set("scenarios", json::Value::makeArray({scenario}));
        ScenarioRegistry registry;
        registry.loadJson(doc, "golden variant");
        return ScenarioBuilder().registry(registry).scenario(name).build();
    }
    throw ConfigError("no golden scenario " + name);
}

/** The ConfigError message @p run throws, or "" when it succeeds. */
template <typename Run>
std::string
configErrorOf(Run run)
{
    try {
        run();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(StackGroupRequests, OneTierGroupFailsEstimateAndCost)
{
    // ga102-hbm-bridge with its hbm0 tower cut to one tier. The cost
    // model once floorplanned it and answered.
    const AnalysisSession session =
        goldenVariant("ga102-hbm-bridge", [](json::Value &arch) {
            std::vector<json::Value> kept;
            for (const json::Value &chiplet :
                 arch.at("chiplets").asArray())
                if (chiplet.at("name").asString().find("hbm0-t") ==
                        std::string::npos ||
                    chiplet.at("name").asString() == "hbm0-t0")
                    kept.push_back(chiplet);
            arch.set("chiplets", json::Value::makeArray(kept));
        });
    const std::string expected =
        "stack group \"hbm0\" needs at least two tiers";
    EXPECT_NE(configErrorOf([&] { session.estimate(); }).find(expected),
              std::string::npos);
    EXPECT_NE(configErrorOf([&] { session.cost(); }).find(expected),
              std::string::npos);
}

TEST(StackGroupRequests, YieldModelSetsChipletYieldsOnly)
{
    // `yield_model` reaches the chiplet dies of the carbon model;
    // the active interposer keeps the negative binomial yield.
    std::vector<double> digital_yields;
    for (const char *model : {"murphy", "negative_binomial", "poisson"}) {
        SCOPED_TRACE(model);
        const AnalysisSession session = goldenVariant(
            "ga102-hbm-active", [model](json::Value &arch) {
                arch.set("yield_model", std::string(model));
            });
        const CarbonReport report = *session.estimate().report;
        EXPECT_EQ(report.hi.packageYield, 0.6101091014087885);
        digital_yields.push_back(report.chiplets.front().yield);
    }
    EXPECT_NE(digital_yields[0], digital_yields[1]);
    EXPECT_NE(digital_yields[1], digital_yields[2]);
}

} // namespace
} // namespace ecochip
