#include "io/config_loader.h"

#include <filesystem>
#include <optional>
#include <sstream>

#include "support/error.h"
#include "support/file_io.h"

namespace ecochip {

void
rejectUnknownKeys(const json::Value &doc,
                  std::initializer_list<const char *> known,
                  const std::string &context)
{
    if (!doc.isObject())
        return;
    for (const auto &[key, value] : doc.members()) {
        bool recognized = false;
        for (const char *candidate : known)
            recognized |= key == candidate;
        if (!recognized) {
            std::string expected;
            for (const char *candidate : known) {
                if (!expected.empty())
                    expected += ", ";
                expected += candidate;
            }
            throw ConfigError(context + ": unknown key \"" + key +
                              "\" (expected one of: " + expected +
                              ")");
        }
    }
}

SystemSpec
systemFromJson(const json::Value &doc, const TechDb &tech,
               const std::string &context)
{
    // `packaging` / `yield_model` are config shortcuts consumed by
    // designBundleFromJson on the same document.
    rejectUnknownKeys(doc,
                      {"name", "monolithic", "chiplets",
                       "packaging", "yield_model"},
                      context);

    SystemSpec system;
    system.name = doc.stringOr("name", "unnamed");
    system.singleDie = doc.booleanOr("monolithic", false);

    const auto &chiplets = doc.at("chiplets").asArray();
    requireConfig(!chiplets.empty(),
                  "architecture has no chiplets");
    for (const auto &entry : chiplets) {
        rejectUnknownKeys(entry,
                          {"name", "type", "node_nm", "area_mm2",
                           "transistors_mtr", "reused",
                           "stack_group"},
                          context + ": chiplet");
        Chiplet chiplet;
        chiplet.name = entry.at("name").asString();
        chiplet.type =
            designTypeFromString(entry.stringOr("type", "logic"));
        chiplet.nodeNm = entry.at("node_nm").asNumber();
        requireConfig(chiplet.nodeNm > 0.0,
                      "chiplet node must be positive");
        chiplet.reused = entry.booleanOr("reused", false);
        chiplet.stackGroup = entry.stringOr("stack_group", "");

        const bool has_area = entry.contains("area_mm2");
        const bool has_transistors =
            entry.contains("transistors_mtr");
        requireConfig(has_area != has_transistors,
                      "chiplet \"" + chiplet.name +
                          "\" needs exactly one of area_mm2 / "
                          "transistors_mtr");
        if (has_area) {
            chiplet.transistorsMtr = tech.transistorsMtr(
                chiplet.type, chiplet.nodeNm,
                entry.at("area_mm2").asNumber());
        } else {
            chiplet.transistorsMtr =
                entry.at("transistors_mtr").asNumber();
            requireConfig(chiplet.transistorsMtr > 0.0,
                          "transistor count must be positive");
        }
        system.chiplets.push_back(std::move(chiplet));
    }
    return system;
}

json::Value
systemToJson(const SystemSpec &system)
{
    json::Value doc = json::Value::makeObject();
    doc.set("name", system.name);
    doc.set("monolithic", system.singleDie);
    json::Value chiplets = json::Value::makeArray();
    for (const auto &chiplet : system.chiplets) {
        json::Value entry = json::Value::makeObject();
        entry.set("name", chiplet.name);
        entry.set("type", toString(chiplet.type));
        entry.set("node_nm", chiplet.nodeNm);
        entry.set("transistors_mtr", chiplet.transistorsMtr);
        entry.set("reused", chiplet.reused);
        if (!chiplet.stackGroup.empty())
            entry.set("stack_group", chiplet.stackGroup);
        chiplets.append(std::move(entry));
    }
    doc.set("chiplets", std::move(chiplets));
    return doc;
}

PackageParams
packageParamsFromJson(const json::Value &doc,
                      const std::string &context)
{
    rejectUnknownKeys(
        doc,
        {"arch", "intensity_g_per_kwh", "spacing_mm",
         "rdl_layers", "rdl_node_nm", "substrate_base_layers",
         "bridge_layers", "bridge_node_nm", "bridge_range_mm",
         "bridge_area_mm2", "bridge_embed_yield",
         "interposer_node_nm", "interposer_beol_layers",
         "repeater_area_fraction", "bond_type", "tsv_pitch_um",
         "microbump_pitch_um", "hybrid_bond_pitch_um",
         "tsv_fail_probability", "microbump_fail_probability",
         "hybrid_bond_fail_probability", "tier_assembly_yield",
         "bond_process_node_nm", "router", "noc_flit_rate_hz"},
        context);

    PackageParams params;
    if (doc.contains("arch"))
        params.arch =
            packagingArchFromString(doc.at("arch").asString());
    params.intensityGPerKwh =
        doc.numberOr("intensity_g_per_kwh", params.intensityGPerKwh);
    params.spacingMm = doc.numberOr("spacing_mm", params.spacingMm);
    params.rdlLayers = static_cast<int>(
        doc.numberOr("rdl_layers", params.rdlLayers));
    params.rdlNodeNm = doc.numberOr("rdl_node_nm", params.rdlNodeNm);
    params.substrateBaseLayers = static_cast<int>(doc.numberOr(
        "substrate_base_layers", params.substrateBaseLayers));
    params.bridgeLayers = static_cast<int>(
        doc.numberOr("bridge_layers", params.bridgeLayers));
    params.bridgeNodeNm =
        doc.numberOr("bridge_node_nm", params.bridgeNodeNm);
    params.bridgeRangeMm =
        doc.numberOr("bridge_range_mm", params.bridgeRangeMm);
    params.bridgeAreaMm2 =
        doc.numberOr("bridge_area_mm2", params.bridgeAreaMm2);
    params.bridgeEmbedYield =
        doc.numberOr("bridge_embed_yield", params.bridgeEmbedYield);
    params.interposerNodeNm =
        doc.numberOr("interposer_node_nm", params.interposerNodeNm);
    params.interposerBeolLayers = static_cast<int>(doc.numberOr(
        "interposer_beol_layers", params.interposerBeolLayers));
    params.repeaterAreaFraction = doc.numberOr(
        "repeater_area_fraction", params.repeaterAreaFraction);
    if (doc.contains("bond_type"))
        params.bondType =
            bondTypeFromString(doc.at("bond_type").asString());
    params.tsvPitchUm =
        doc.numberOr("tsv_pitch_um", params.tsvPitchUm);
    params.microbumpPitchUm =
        doc.numberOr("microbump_pitch_um", params.microbumpPitchUm);
    params.hybridBondPitchUm = doc.numberOr(
        "hybrid_bond_pitch_um", params.hybridBondPitchUm);
    params.tsvFailProbability = doc.numberOr(
        "tsv_fail_probability", params.tsvFailProbability);
    params.microbumpFailProbability =
        doc.numberOr("microbump_fail_probability",
                     params.microbumpFailProbability);
    params.hybridBondFailProbability =
        doc.numberOr("hybrid_bond_fail_probability",
                     params.hybridBondFailProbability);
    params.tierAssemblyYield = doc.numberOr(
        "tier_assembly_yield", params.tierAssemblyYield);
    params.bondProcessNodeNm = doc.numberOr(
        "bond_process_node_nm", params.bondProcessNodeNm);
    if (doc.contains("router")) {
        const auto &router = doc.at("router");
        rejectUnknownKeys(router,
                          {"ports", "flit_width_bits",
                           "buffers_per_vc", "virtual_channels"},
                          context + ": router");
        params.router.ports = static_cast<int>(
            router.numberOr("ports", params.router.ports));
        params.router.flitWidthBits =
            static_cast<int>(router.numberOr(
                "flit_width_bits", params.router.flitWidthBits));
        params.router.buffersPerVc =
            static_cast<int>(router.numberOr(
                "buffers_per_vc", params.router.buffersPerVc));
        params.router.virtualChannels =
            static_cast<int>(router.numberOr(
                "virtual_channels",
                params.router.virtualChannels));
    }
    params.nocFlitRateHz =
        doc.numberOr("noc_flit_rate_hz", params.nocFlitRateHz);
    return params;
}

json::Value
packageParamsToJson(const PackageParams &params)
{
    json::Value doc = json::Value::makeObject();
    doc.set("arch", toString(params.arch));
    doc.set("intensity_g_per_kwh", params.intensityGPerKwh);
    doc.set("spacing_mm", params.spacingMm);
    doc.set("rdl_layers", params.rdlLayers);
    doc.set("rdl_node_nm", params.rdlNodeNm);
    doc.set("substrate_base_layers", params.substrateBaseLayers);
    doc.set("bridge_layers", params.bridgeLayers);
    doc.set("bridge_node_nm", params.bridgeNodeNm);
    doc.set("bridge_range_mm", params.bridgeRangeMm);
    doc.set("bridge_area_mm2", params.bridgeAreaMm2);
    doc.set("bridge_embed_yield", params.bridgeEmbedYield);
    doc.set("interposer_node_nm", params.interposerNodeNm);
    doc.set("interposer_beol_layers", params.interposerBeolLayers);
    doc.set("repeater_area_fraction", params.repeaterAreaFraction);
    doc.set("bond_type", toString(params.bondType));
    doc.set("tsv_pitch_um", params.tsvPitchUm);
    doc.set("microbump_pitch_um", params.microbumpPitchUm);
    doc.set("hybrid_bond_pitch_um", params.hybridBondPitchUm);
    doc.set("tsv_fail_probability", params.tsvFailProbability);
    doc.set("microbump_fail_probability",
            params.microbumpFailProbability);
    doc.set("hybrid_bond_fail_probability",
            params.hybridBondFailProbability);
    doc.set("tier_assembly_yield", params.tierAssemblyYield);
    doc.set("bond_process_node_nm", params.bondProcessNodeNm);
    json::Value router = json::Value::makeObject();
    router.set("ports", params.router.ports);
    router.set("flit_width_bits", params.router.flitWidthBits);
    router.set("buffers_per_vc", params.router.buffersPerVc);
    router.set("virtual_channels", params.router.virtualChannels);
    doc.set("router", std::move(router));
    doc.set("noc_flit_rate_hz", params.nocFlitRateHz);
    return doc;
}

DesignParams
designParamsFromJson(const json::Value &doc,
                     const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"pdes_w", "design_iterations",
                       "intensity_g_per_kwh",
                       "spr_hours_per_mgate", "analyze_fraction",
                       "verif_multiple", "gates_per_transistor",
                       "chiplet_volume", "system_volume"},
                      context);

    DesignParams params;
    params.pdesW = doc.numberOr("pdes_w", params.pdesW);
    params.designIterations = static_cast<int>(doc.numberOr(
        "design_iterations", params.designIterations));
    params.intensityGPerKwh =
        doc.numberOr("intensity_g_per_kwh", params.intensityGPerKwh);
    params.sprHoursPerMgate = doc.numberOr(
        "spr_hours_per_mgate", params.sprHoursPerMgate);
    params.analyzeFraction =
        doc.numberOr("analyze_fraction", params.analyzeFraction);
    params.verifMultiple =
        doc.numberOr("verif_multiple", params.verifMultiple);
    params.gatesPerTransistor = doc.numberOr(
        "gates_per_transistor", params.gatesPerTransistor);
    params.chipletVolume =
        doc.numberOr("chiplet_volume", params.chipletVolume);
    params.systemVolume =
        doc.numberOr("system_volume", params.systemVolume);
    return params;
}

json::Value
designParamsToJson(const DesignParams &params)
{
    json::Value doc = json::Value::makeObject();
    doc.set("pdes_w", params.pdesW);
    doc.set("design_iterations", params.designIterations);
    doc.set("intensity_g_per_kwh", params.intensityGPerKwh);
    doc.set("spr_hours_per_mgate", params.sprHoursPerMgate);
    doc.set("analyze_fraction", params.analyzeFraction);
    doc.set("verif_multiple", params.verifMultiple);
    doc.set("gates_per_transistor", params.gatesPerTransistor);
    doc.set("chiplet_volume", params.chipletVolume);
    doc.set("system_volume", params.systemVolume);
    return doc;
}

OperatingSpec
operatingSpecFromJson(const json::Value &doc,
                      const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"lifetime_years", "duty_cycle",
                       "avg_frequency_hz", "switching_activity",
                       "intensity_g_per_kwh", "avg_power_w",
                       "annual_energy_kwh"},
                      context);

    OperatingSpec spec;
    spec.lifetimeYears =
        doc.numberOr("lifetime_years", spec.lifetimeYears);
    spec.dutyCycle = doc.numberOr("duty_cycle", spec.dutyCycle);
    spec.avgFrequencyHz =
        doc.numberOr("avg_frequency_hz", spec.avgFrequencyHz);
    spec.switchingActivity = doc.numberOr("switching_activity",
                                          spec.switchingActivity);
    spec.useIntensityGPerKwh = doc.numberOr(
        "intensity_g_per_kwh", spec.useIntensityGPerKwh);
    if (doc.contains("avg_power_w"))
        spec.avgPowerW = doc.at("avg_power_w").asNumber();
    if (doc.contains("annual_energy_kwh"))
        spec.annualEnergyKwh =
            doc.at("annual_energy_kwh").asNumber();
    return spec;
}

json::Value
operatingSpecToJson(const OperatingSpec &spec)
{
    json::Value doc = json::Value::makeObject();
    doc.set("lifetime_years", spec.lifetimeYears);
    doc.set("duty_cycle", spec.dutyCycle);
    doc.set("avg_frequency_hz", spec.avgFrequencyHz);
    doc.set("switching_activity", spec.switchingActivity);
    doc.set("intensity_g_per_kwh", spec.useIntensityGPerKwh);
    if (spec.avgPowerW)
        doc.set("avg_power_w", *spec.avgPowerW);
    if (spec.annualEnergyKwh)
        doc.set("annual_energy_kwh", *spec.annualEnergyKwh);
    return doc;
}

DesignBundle
designBundleFromJson(const json::Value &arch,
                     const json::Value *package,
                     const json::Value *design,
                     const json::Value *operational,
                     const TechDb &tech,
                     const std::string &context,
                     const std::string &package_context,
                     const std::string &design_context,
                     const std::string &operational_context)
{
    DesignBundle bundle;
    bundle.system = systemFromJson(arch, tech, context);

    if (arch.contains("packaging")) {
        bundle.config.package.arch = packagingArchFromString(
            arch.at("packaging").asString());
    }
    if (arch.contains("yield_model")) {
        bundle.config.yieldModel = yieldModelKindFromString(
            arch.at("yield_model").asString());
    }

    if (package) {
        PackageParams params = packageParamsFromJson(
            *package, package_context.empty()
                          ? context + ": package"
                          : package_context);
        // The architecture's packaging choice wins over the knob
        // file's `arch`, matching the reference tool.
        if (arch.contains("packaging"))
            params.arch = bundle.config.package.arch;
        bundle.config.package = params;
    }

    if (design)
        bundle.config.design = designParamsFromJson(
            *design, design_context.empty()
                         ? context + ": design"
                         : design_context);

    if (operational)
        bundle.config.operating = operatingSpecFromJson(
            *operational, operational_context.empty()
                              ? context + ": operational"
                              : operational_context);

    return bundle;
}

DesignBundle
loadDesignDirectory(const std::string &dir, const TechDb &tech)
{
    namespace fs = std::filesystem;
    const fs::path root(dir);
    requireConfig(fs::is_directory(root),
                  "not a design directory: " + dir);

    const fs::path arch_path = root / "architecture.json";
    requireConfig(fs::exists(arch_path),
                  "missing architecture.json in " + dir);

    const json::Value arch_doc =
        json::parseFile(arch_path.string());

    auto optional_doc =
        [&](const char *name) -> std::optional<json::Value> {
        const fs::path path = root / name;
        if (!fs::exists(path))
            return std::nullopt;
        return json::parseFile(path.string());
    };
    const auto pkg_doc = optional_doc("packageC.json");
    const auto design_doc = optional_doc("designC.json");
    const auto op_doc = optional_doc("operationalC.json");

    // Exact file paths as contexts, so a typo'd key names the
    // file that holds it.
    return designBundleFromJson(
        arch_doc, pkg_doc ? &*pkg_doc : nullptr,
        design_doc ? &*design_doc : nullptr,
        op_doc ? &*op_doc : nullptr, tech, arch_path.string(),
        (root / "packageC.json").string(),
        (root / "designC.json").string(),
        (root / "operationalC.json").string());
}

void
appendReport(json::StreamWriter &writer,
             const CarbonReport &report)
{
    writer.beginObject();
    writer.key("mfg_co2_kg");
    writer.number(report.mfgCo2Kg);
    writer.key("design_co2_kg");
    writer.number(report.designCo2Kg);
    writer.key("nre_co2_kg");
    writer.number(report.nreCo2Kg);

    writer.key("hi");
    writer.beginObject();
    writer.key("package_co2_kg");
    writer.number(report.hi.packageCo2Kg);
    writer.key("routing_co2_kg");
    writer.number(report.hi.routingCo2Kg);
    writer.key("package_area_mm2");
    writer.number(report.hi.packageAreaMm2);
    writer.key("whitespace_area_mm2");
    writer.number(report.hi.whitespaceAreaMm2);
    writer.key("package_yield");
    writer.number(report.hi.packageYield);
    writer.key("bridge_count");
    writer.number(report.hi.bridgeCount);
    writer.key("bond_count");
    writer.number(report.hi.bondCount);
    writer.key("noc_power_w");
    writer.number(report.hi.nocPowerW);
    writer.endObject();

    writer.key("operational");
    writer.beginObject();
    writer.key("avg_power_w");
    writer.number(report.operation.avgPowerW);
    writer.key("lifetime_energy_kwh");
    writer.number(report.operation.lifetimeEnergyKwh);
    writer.key("co2_kg");
    writer.number(report.operation.co2Kg);
    writer.endObject();

    writer.key("embodied_co2_kg");
    writer.number(report.embodiedCo2Kg());
    writer.key("total_co2_kg");
    writer.number(report.totalCo2Kg());

    writer.key("chiplets");
    writer.beginArray();
    for (const auto &cr : report.chiplets) {
        writer.beginObject();
        writer.key("name");
        writer.string(cr.name);
        writer.key("node_nm");
        writer.number(cr.nodeNm);
        writer.key("area_mm2");
        writer.number(cr.areaMm2);
        writer.key("yield");
        writer.number(cr.yield);
        writer.key("mfg_co2_kg");
        writer.number(cr.mfgCo2Kg);
        writer.key("design_co2_kg");
        writer.number(cr.designCo2Kg);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
}

std::vector<double>
loadNodeList(const std::string &path)
{
    std::istringstream in(readFile(path, "node list"));

    std::vector<double> nodes;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and whitespace.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos)
            continue;
        std::size_t end = line.find_last_not_of(" \t\r");
        std::string token = line.substr(begin, end - begin + 1);
        // Optional "nm" suffix.
        if (token.size() > 2 &&
            token.compare(token.size() - 2, 2, "nm") == 0)
            token.resize(token.size() - 2);
        try {
            std::size_t consumed = 0;
            const double node = std::stod(token, &consumed);
            requireConfig(consumed == token.size() && node > 0.0,
                          "invalid node");
            nodes.push_back(node);
        } catch (const std::exception &) {
            throw ConfigError("node list " + path + " line " +
                              std::to_string(line_no) +
                              ": invalid node \"" + token + "\"");
        }
    }
    requireConfig(!nodes.empty(),
                  "node list " + path + " is empty");
    return nodes;
}

} // namespace ecochip
