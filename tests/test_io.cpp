/**
 * @file
 * Unit tests for JSON configuration loading, report emission and
 * whole-file replacement.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/config_loader.h"
#include "io/event_journal_io.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/file_io.h"

namespace ecochip {
namespace {

TEST(ConfigLoader, SystemFromJsonWithAreas)
{
    TechDb tech;
    const json::Value doc = json::parse(R"({
        "name": "soc",
        "monolithic": false,
        "chiplets": [
            {"name": "digital", "type": "logic", "node_nm": 7,
             "area_mm2": 500.0},
            {"name": "memory", "type": "memory", "node_nm": 10,
             "area_mm2": 68.0, "reused": true}
        ]
    })");
    const SystemSpec system = systemFromJson(doc, tech);
    EXPECT_EQ(system.name, "soc");
    EXPECT_FALSE(system.singleDie);
    ASSERT_EQ(system.chiplets.size(), 2u);
    EXPECT_NEAR(system.chiplets[0].areaMm2(tech), 500.0, 1e-9);
    EXPECT_EQ(system.chiplets[1].type, DesignType::Memory);
    EXPECT_TRUE(system.chiplets[1].reused);
}

TEST(ConfigLoader, SystemFromJsonWithTransistors)
{
    TechDb tech;
    const json::Value doc = json::parse(R"({
        "name": "soc",
        "chiplets": [
            {"name": "c", "type": "logic", "node_nm": 7,
             "transistors_mtr": 9100.0}
        ]
    })");
    const SystemSpec system = systemFromJson(doc, tech);
    EXPECT_NEAR(system.chiplets[0].areaMm2(tech), 100.0, 1e-9);
}

TEST(ConfigLoader, SystemJsonValidation)
{
    TechDb tech;
    // Both area and transistors given.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7, "area_mm2": 10,
             "transistors_mtr": 100}]})"),
                       tech),
        ConfigError);
    // Neither given.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7}]})"),
                       tech),
        ConfigError);
    // Empty chiplet list.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": []})"), tech),
        ConfigError);
    // Bad node.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": -7, "area_mm2": 10}]})"),
                       tech),
        ConfigError);
}

TEST(ConfigLoader, SystemRoundTrip)
{
    TechDb tech;
    SystemSpec system;
    system.name = "rt";
    system.singleDie = true;
    system.chiplets.push_back(Chiplet::fromArea(
        "logic", DesignType::Logic, 7.0, 120.0, tech));
    system.chiplets.push_back(Chiplet::fromArea(
        "mem", DesignType::Memory, 7.0, 60.0, tech));
    system.chiplets[1].reused = true;

    const SystemSpec loaded =
        systemFromJson(systemToJson(system), tech);
    EXPECT_EQ(loaded.name, system.name);
    EXPECT_EQ(loaded.singleDie, system.singleDie);
    ASSERT_EQ(loaded.chiplets.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(loaded.chiplets[i].name,
                  system.chiplets[i].name);
        EXPECT_EQ(loaded.chiplets[i].type,
                  system.chiplets[i].type);
        EXPECT_DOUBLE_EQ(loaded.chiplets[i].transistorsMtr,
                         system.chiplets[i].transistorsMtr);
        EXPECT_EQ(loaded.chiplets[i].reused,
                  system.chiplets[i].reused);
    }
}

TEST(ConfigLoader, PackageParamsRoundTrip)
{
    PackageParams params;
    params.arch = PackagingArch::Stack3d;
    params.bondType = BondType::HybridBond;
    params.hybridBondPitchUm = 2.0;
    params.rdlLayers = 8;
    params.router.flitWidthBits = 256;
    params.bridgeRangeMm = 3.0;

    const PackageParams loaded =
        packageParamsFromJson(packageParamsToJson(params));
    EXPECT_EQ(loaded.arch, params.arch);
    EXPECT_EQ(loaded.bondType, params.bondType);
    EXPECT_DOUBLE_EQ(loaded.hybridBondPitchUm, 2.0);
    EXPECT_EQ(loaded.rdlLayers, 8);
    EXPECT_EQ(loaded.router.flitWidthBits, 256);
    EXPECT_DOUBLE_EQ(loaded.bridgeRangeMm, 3.0);
}

TEST(ConfigLoader, PackageParamsDefaultsWhenKeysMissing)
{
    const PackageParams loaded =
        packageParamsFromJson(json::parse("{}"));
    const PackageParams defaults;
    EXPECT_EQ(loaded.arch, defaults.arch);
    EXPECT_EQ(loaded.rdlLayers, defaults.rdlLayers);
    EXPECT_DOUBLE_EQ(loaded.spacingMm, defaults.spacingMm);
}

TEST(ConfigLoader, DesignParamsRoundTrip)
{
    DesignParams params;
    params.designIterations = 42;
    params.chipletVolume = 5e5;
    const DesignParams loaded =
        designParamsFromJson(designParamsToJson(params));
    EXPECT_EQ(loaded.designIterations, 42);
    EXPECT_DOUBLE_EQ(loaded.chipletVolume, 5e5);
}

TEST(ConfigLoader, OperatingSpecRoundTripWithOptionals)
{
    OperatingSpec spec;
    spec.lifetimeYears = 4.0;
    spec.annualEnergyKwh = 1.5;
    const OperatingSpec loaded =
        operatingSpecFromJson(operatingSpecToJson(spec));
    EXPECT_DOUBLE_EQ(loaded.lifetimeYears, 4.0);
    ASSERT_TRUE(loaded.annualEnergyKwh.has_value());
    EXPECT_DOUBLE_EQ(*loaded.annualEnergyKwh, 1.5);
    EXPECT_FALSE(loaded.avgPowerW.has_value());

    OperatingSpec with_power;
    with_power.avgPowerW = 130.0;
    const OperatingSpec loaded2 =
        operatingSpecFromJson(operatingSpecToJson(with_power));
    ASSERT_TRUE(loaded2.avgPowerW.has_value());
    EXPECT_DOUBLE_EQ(*loaded2.avgPowerW, 130.0);
}

class DesignDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test: gtest_discover_tests runs each case as
        // its own process, so a shared directory name races under
        // `ctest -j`.
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = std::filesystem::path(::testing::TempDir()) /
               (std::string("ecochip_design_dir_") +
                info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    void
    writeFile(const std::string &name, const std::string &text)
    {
        std::ofstream out(dir_ / name);
        out << text;
    }

    std::filesystem::path dir_;
};

TEST_F(DesignDirTest, LoadsAllConfigFiles)
{
    writeFile("architecture.json", R"({
        "name": "dircase",
        "packaging": "passive_interposer",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0},
            {"name": "b", "type": "memory", "node_nm": 10,
             "area_mm2": 40.0}
        ]})");
    writeFile("packageC.json",
              R"({"interposer_node_nm": 40,
                  "interposer_beol_layers": 6})");
    writeFile("designC.json", R"({"design_iterations": 50})");
    writeFile("operationalC.json", R"({"lifetime_years": 5})");

    TechDb tech;
    const DesignBundle bundle =
        loadDesignDirectory(dir_.string(), tech);
    EXPECT_EQ(bundle.system.name, "dircase");
    EXPECT_EQ(bundle.config.package.arch,
              PackagingArch::PassiveInterposer);
    EXPECT_DOUBLE_EQ(bundle.config.package.interposerNodeNm,
                     40.0);
    EXPECT_EQ(bundle.config.package.interposerBeolLayers, 6);
    EXPECT_EQ(bundle.config.design.designIterations, 50);
    EXPECT_DOUBLE_EQ(bundle.config.operating.lifetimeYears, 5.0);
}

TEST_F(DesignDirTest, ArchitectureOnlyUsesDefaults)
{
    writeFile("architecture.json", R"({
        "name": "minimal",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0}
        ]})");
    TechDb tech;
    const DesignBundle bundle =
        loadDesignDirectory(dir_.string(), tech);
    EXPECT_EQ(bundle.config.package.arch,
              PackageParams().arch);
}

TEST(ConfigLoader, UnknownKeysAreRejectedWithKeyName)
{
    TechDb tech;
    // Top-level architecture typo.
    try {
        systemFromJson(json::parse(R"({
            "nmae": "soc",
            "chiplets": [{"name": "c", "node_nm": 7,
                          "area_mm2": 10.0}]})"),
                       tech);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("\"nmae\""),
                  std::string::npos)
            << e.what();
    }

    // Chiplet-level typo.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7, "area_mm2": 10,
             "resued": true}]})"),
                       tech),
        ConfigError);

    // Knob-file typos: every loader rejects, naming the key.
    EXPECT_THROW(
        packageParamsFromJson(json::parse(R"({"rdl_layer": 4})")),
        ConfigError);
    EXPECT_THROW(packageParamsFromJson(json::parse(
                     R"({"router": {"prots": 5}})")),
                 ConfigError);
    EXPECT_THROW(designParamsFromJson(
                     json::parse(R"({"design_iters": 50})")),
                 ConfigError);
    EXPECT_THROW(operatingSpecFromJson(
                     json::parse(R"({"lifetime_yrs": 3})")),
                 ConfigError);
}

TEST_F(DesignDirTest, TypoedKeyReportsFileAndKey)
{
    writeFile("architecture.json", R"({
        "name": "typocase",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0}
        ]})");
    writeFile("operationalC.json", R"({"liftime_years": 5})");

    TechDb tech;
    try {
        loadDesignDirectory(dir_.string(), tech);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("operationalC.json"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("\"liftime_years\""),
                  std::string::npos)
            << what;
    }
}

TEST_F(DesignDirTest, MissingArchitectureThrows)
{
    TechDb tech;
    EXPECT_THROW(loadDesignDirectory(dir_.string(), tech),
                 ConfigError);
    EXPECT_THROW(loadDesignDirectory("/no/such/dir", tech),
                 ConfigError);
}

TEST(ReportJson, CarriesAllSections)
{
    EcoChip estimator;
    SystemSpec system;
    system.chiplets.push_back(Chiplet::fromArea(
        "a", DesignType::Logic, 7.0, 100.0, estimator.tech()));
    system.chiplets.push_back(Chiplet::fromArea(
        "b", DesignType::Memory, 10.0, 50.0, estimator.tech()));
    const CarbonReport report = estimator.estimate(system);
    json::StreamWriter writer;
    appendReport(writer, report);
    const json::Value doc = json::parse(writer.take());

    EXPECT_NEAR(doc.at("mfg_co2_kg").asNumber(), report.mfgCo2Kg,
                1e-12);
    EXPECT_NEAR(doc.at("embodied_co2_kg").asNumber(),
                report.embodiedCo2Kg(), 1e-12);
    EXPECT_NEAR(doc.at("total_co2_kg").asNumber(),
                report.totalCo2Kg(), 1e-12);
    EXPECT_EQ(doc.at("chiplets").size(), 2u);
    EXPECT_TRUE(doc.at("hi").contains("package_co2_kg"));
    EXPECT_TRUE(doc.at("operational").contains("co2_kg"));
    // Serialized report parses back.
    EXPECT_NO_THROW(json::parse(doc.dump(true)));
}

// ----------------------------------------------- wire identity

/** A small batch with success and failure outcomes -- the two
 *  shapes every wire serializer must handle. */
BatchReport
sampleBatchReport()
{
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    requests.push_back({ScenarioRef::scenario("no-such-scenario"),
                        EstimateSpec{}});
    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0};
    requests.push_back({ScenarioRef::scenario("emr"), sweep});
    AnalysisEngine engine(2);
    return engine.runBatch(requests);
}

TEST(WireIdentity, WriterEmittersMatchDomDumpsByteForByte)
{
    const BatchReport report = sampleBatchReport();
    ASSERT_EQ(report.outcomes.size(), 3u);
    ASSERT_EQ(report.failed(), 1u);

    // Whole-report text equals the DOM dump in both modes.
    const std::string compact = batchReportText(report, false);
    EXPECT_EQ(json::parse(compact).dump(false), compact);
    EXPECT_EQ(batchReportText(report, true),
              json::parse(compact).dump(true));

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const RequestOutcome &outcome = report.outcomes[i];
        json::StreamWriter writer;
        appendOutcome(writer, outcome);
        const std::string text = writer.take();
        EXPECT_EQ(json::parse(text).dump(false), text) << i;

        json::StreamWriter event_writer;
        appendStreamEvent(event_writer, i, outcome);
        const std::string line = event_writer.take();
        EXPECT_EQ(json::parse(line).dump(false), line) << i;
        EXPECT_EQ(streamEventLine(i, outcome), line) << i;
    }
}

TEST(WireIdentity, JournalRoundTripPreservesCanonicalBytes)
{
    const BatchReport report = sampleBatchReport();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "ecochip_wire_identity_journal.ndjson")
            .string();
    std::filesystem::remove(path);

    EventJournalWriter journal;
    journal.open(path, false);
    std::vector<std::string> outcomes;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        json::StreamWriter writer;
        appendOutcome(writer, report.outcomes[i]);
        outcomes.push_back(writer.take());
        journal.append(i, outcomes.back());
    }

    const auto entries = replayEventJournalText(path);
    ASSERT_EQ(entries.size(), report.outcomes.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].index, i);
        // Replay yields canonical compact text: the exact bytes
        // of the outcome writer, spliceable without a reparse.
        EXPECT_EQ(entries[i].outcome, outcomes[i]) << i;
        EXPECT_NO_THROW(
            json::ondemand::validate(entries[i].outcome));
    }

    // splitEventLine agrees with the replay on every line.
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        const auto entry = splitEventLine(line, path);
        EXPECT_EQ(entry.index, entries[n].index);
        EXPECT_EQ(entry.outcome, entries[n].outcome);
        ++n;
    }
    EXPECT_EQ(n, entries.size());
    std::filesystem::remove(path);
}

// ------------------------------------------------ file module

/** A fresh, empty directory under the test temp dir. */
std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     (name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
replaceWith(const std::filesystem::path &path,
            const std::string &text)
{
    replaceFile(path.string(), "test file",
                [&](std::ostream &out) { out << text; });
}

std::string
bytesOf(const std::filesystem::path &path)
{
    return readFile(path.string(), "test file");
}

/** Directory entries other than @p keep. */
std::vector<std::string>
othersIn(const std::filesystem::path &dir,
         const std::vector<std::string> &keep)
{
    std::vector<std::string> others;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (std::find(keep.begin(), keep.end(), name) == keep.end())
            others.push_back(name);
    }
    return others;
}

TEST(FileIo, ThrowingWriterKeepsThePreviousFile)
{
    const auto dir = freshDir("ecochip_file_throwing");
    const auto path = dir / "report.json";
    replaceWith(path, "old\n");
    EXPECT_THROW(replaceFile(path.string(), "test file",
                             [](std::ostream &out) {
                                 out << std::string(100000, 'x');
                                 throw ModelError("mid-write");
                             }),
                 ModelError);
    EXPECT_EQ(bytesOf(path), "old\n");
    EXPECT_TRUE(othersIn(dir, {"report.json"}).empty());
    std::filesystem::remove_all(dir);
}

TEST(FileIo, ConcurrentReplacesInOneDirectoryDoNotCollide)
{
    const auto dir = freshDir("ecochip_file_concurrent");
    const int rounds = 200;
    // Each round's text has its own length, so a mix-up between
    // the writers or rounds shows in the final bytes.
    auto text = [](const std::string &name, int round) {
        return name + std::string(static_cast<std::size_t>(round) * 37,
                                  '.');
    };
    auto writer = [&](const std::string &name) {
        for (int i = 0; i < rounds; ++i)
            replaceWith(dir / name, text(name, i));
    };
    std::thread a(writer, "a.json");
    std::thread b(writer, "b.json");
    a.join();
    b.join();
    for (const std::string name : {"a.json", "b.json"})
        EXPECT_EQ(bytesOf(dir / name), text(name, rounds - 1));
    EXPECT_TRUE(othersIn(dir, {"a.json", "b.json"}).empty());
    std::filesystem::remove_all(dir);
}

TEST(FileIo, FollowsSymlinksButNotHardLinks)
{
    // A chain of symlinks (like /dev/stdout -> /proc/self/fd/1 ->
    // a redirected file) is followed: the file at its end is
    // replaced and every link stays. Another hard link to that
    // file keeps the old bytes.
    const auto dir = freshDir("ecochip_file_links");
    replaceWith(dir / "target.json", "target\n");
    std::filesystem::create_hard_link(dir / "target.json",
                                      dir / "hard.json");
    std::filesystem::create_symlink(dir / "target.json",
                                    dir / "link.json");
    std::filesystem::create_symlink("link.json", dir / "chain.json");
    replaceWith(dir / "chain.json", "new\n");
    EXPECT_EQ(std::filesystem::read_symlink(dir / "chain.json"),
              "link.json");
    EXPECT_EQ(std::filesystem::read_symlink(dir / "link.json"),
              dir / "target.json");
    EXPECT_EQ(bytesOf(dir / "target.json"), "new\n");
    EXPECT_EQ(bytesOf(dir / "hard.json"), "target\n");
    EXPECT_TRUE(othersIn(dir, {"target.json", "link.json",
                               "chain.json", "hard.json"})
                    .empty());
    std::filesystem::remove_all(dir);
}

TEST(FileIo, RefusesADirectoryOrFifoAtThePath)
{
    // A symlink to either is refused too (`/dev/stdout` is one),
    // and the link is left in place.
    const auto dir = freshDir("ecochip_file_special");
    std::filesystem::create_directory(dir / "sub");
    ASSERT_EQ(::mkfifo((dir / "fifo").c_str(), 0600), 0);
    std::filesystem::create_directory_symlink(dir / "sub",
                                              dir / "sub_link");
    std::filesystem::create_symlink(dir / "fifo", dir / "fifo_link");
    for (const std::string name :
         {"sub", "fifo", "sub_link", "fifo_link"}) {
        try {
            replaceWith(dir / name, "never\n");
            ADD_FAILURE() << name << " was replaced";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "cannot write test file: " +
                          (dir / name).string()),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_TRUE(std::filesystem::is_directory(dir / "sub"));
    EXPECT_TRUE(std::filesystem::is_fifo(dir / "fifo"));
    for (const std::string name : {"sub_link", "fifo_link"}) {
        EXPECT_TRUE(std::filesystem::is_symlink(dir / name)) << name;
    }
    EXPECT_EQ(std::filesystem::read_symlink(dir / "fifo_link"),
              dir / "fifo");
    EXPECT_TRUE(
        othersIn(dir, {"sub", "fifo", "sub_link", "fifo_link"})
            .empty());
    std::filesystem::remove_all(dir);
}

TEST(FileIo, ReadFileOfAMissingPathNamesIt)
{
    const auto path = freshDir("ecochip_file_missing") / "none.json";
    try {
        readFile(path.string(), "JSON file");
        ADD_FAILURE() << "a missing file was read";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot read JSON file: " +
                                             path.string()),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(path.parent_path());
}

} // namespace
} // namespace ecochip
