#include "package/package_model.h"

#include "support/error.h"
#include "support/units.h"

namespace ecochip {

PackageModel::PackageModel(const TechDb &tech,
                           const ManufacturingModel &mfg,
                           PackageParams params)
    : tech_(&tech), mfg_(&mfg), yieldModel_(tech),
      params_(std::move(params)), router_(tech, params_.router),
      phy_(tech, params_.router.flitWidthBits)
{
    requireConfig(params_.intensityGPerKwh > 0.0,
                  "package carbon intensity must be positive");
    requireConfig(params_.rdlLayers > 0,
                  "RDL layer count must be positive");
    requireConfig(params_.bridgeLayers > 0,
                  "bridge layer count must be positive");
    requireConfig(params_.bridgeRangeMm > 0.0,
                  "bridge range must be positive");
    requireConfig(params_.bridgeAreaMm2 > 0.0,
                  "bridge area must be positive");
    requireConfig(params_.bridgeEmbedYield > 0.0 &&
                      params_.bridgeEmbedYield <= 1.0,
                  "bridge embed yield must be in (0, 1]");
    requireConfig(params_.interposerBeolLayers > 0,
                  "interposer BEOL layer count must be positive");
    requireConfig(params_.repeaterAreaFraction >= 0.0 &&
                      params_.repeaterAreaFraction < 1.0,
                  "repeater area fraction must be in [0, 1)");
    requireConfig(params_.bondPitchUm() > 0.0,
                  "bond pitch must be positive");
    requireConfig(params_.tierAssemblyYield > 0.0 &&
                      params_.tierAssemblyYield <= 1.0,
                  "tier assembly yield must be in (0, 1]");
}

FloorplanResult
PackageModel::floorplan(const SystemSpec &system) const
{
    return Floorplanner(params_.spacingMm)
        .plan(planarBoxes(system, *tech_));
}

double
PackageModel::layeredPatterningCo2Kg(int layers,
                                     double epla_kwh_per_cm2,
                                     double area_mm2,
                                     double yield) const
{
    requireModel(yield > 0.0 && yield <= 1.0,
                 "package layer yield out of range");
    return packagingCo2Kg(
        params_.intensityGPerKwh,
        patterningEnergyKwh(layers, epla_kwh_per_cm2,
                            area_mm2 * units::kCm2PerMm2),
        yield);
}

double
PackageModel::baseSubstrateCo2Kg(double area_mm2) const
{
    const double yield =
        yieldModel_.rdlYield(area_mm2, params_.rdlNodeNm);
    return layeredPatterningCo2Kg(
        params_.substrateBaseLayers,
        tech_->eplaRdlKwhPerCm2(params_.rdlNodeNm), area_mm2, yield);
}

double
PackageModel::addedAreaCo2Kg(const Chiplet &chiplet,
                             double added_area_mm2) const
{
    if (added_area_mm2 <= 0.0)
        return 0.0;
    const double base_area = chiplet.areaMm2(*tech_);
    const double grown =
        mfg_->dieMfg(base_area + added_area_mm2, chiplet.nodeNm)
            .totalCo2Kg();
    const double bare =
        mfg_->dieMfg(base_area, chiplet.nodeNm).totalCo2Kg();
    return grown - bare;
}

CommOverhead
PackageModel::chipletComm(double node_nm) const
{
    if (params_.arch == PackagingArch::RdlFanout ||
        params_.arch == PackagingArch::SiliconBridge)
        return {phy_.areaMm2(node_nm),
                phy_.powerW(node_nm, params_.nocFlitRateHz *
                                         params_.router.flitWidthBits)};
    return {router_.areaMm2(node_nm),
            router_.powerW(node_nm, params_.nocFlitRateHz)};
}

CommOverhead
PackageModel::interposerComm(std::size_t chiplets) const
{
    // Routers move into the interposer: legacy node, larger area
    // than the chiplet-resident routers of the passive flavor.
    const double node = params_.interposerNodeNm;
    const double nc = static_cast<double>(chiplets);
    return {router_.areaMm2(node) * nc,
            router_.powerW(node, params_.nocFlitRateHz) * nc};
}

CommIp
PackageModel::commIp(std::size_t chiplets, double lead_node_nm) const
{
    return ecochip::commIp(params_.arch, chiplets,
                           phy_.transistorsMtr(),
                           router_.transistorsMtr(), lead_node_nm,
                           params_.interposerNodeNm);
}

void
PackageModel::addChipletCommOverheads(const SystemSpec &system,
                                      HiResult &out) const
{
    for (const auto &chiplet : system.chiplets) {
        const CommOverhead comm = chipletComm(chiplet.nodeNm);
        out.routingCo2Kg += addedAreaCo2Kg(chiplet, comm.areaMm2);
        out.commAreaMm2 += comm.areaMm2;
        out.nocPowerW += comm.powerW;
    }
}

void
PackageModel::evaluateRdl(double area_mm2, HiResult &out) const
{
    const double yield =
        yieldModel_.rdlYield(area_mm2, params_.rdlNodeNm);
    out.packageCo2Kg = layeredPatterningCo2Kg(
        params_.rdlLayers,
        tech_->eplaRdlKwhPerCm2(params_.rdlNodeNm), area_mm2, yield);
    out.packageYield = yield;
}

void
PackageModel::evaluateBridge(const SystemSpec &system,
                             const FloorplanResult &fp,
                             HiResult &out) const
{
    const int bridges =
        bridgeCount(fp.adjacencies, params_.bridgeRangeMm,
                    system.chiplets.size());
    out.bridgeCount = bridges;

    const double bridge_yield = yieldModel_.bridgeYield(
        params_.bridgeAreaMm2, params_.bridgeNodeNm);
    const double per_bridge = layeredPatterningCo2Kg(
        params_.bridgeLayers,
        tech_->eplaBridgeKwhPerCm2(params_.bridgeNodeNm),
        params_.bridgeAreaMm2, bridge_yield);
    const double embed_yield =
        bridgeEmbedYield(params_.bridgeEmbedYield, bridges);
    out.packageCo2Kg = bridgePackageCo2Kg(
        baseSubstrateCo2Kg(fp.areaMm2()), bridges, per_bridge,
        embed_yield);
    out.packageYield =
        bridgePackageYield(embed_yield, bridge_yield, bridges);
}

void
PackageModel::evaluateInterposer(const SystemSpec &system,
                                 double area_mm2, bool active,
                                 HiResult &out) const
{
    const double node = params_.interposerNodeNm;

    // The interposer is an additional large silicon die: its BEOL
    // spans the whole outline, and the die consumes real wafer area
    // (periphery wastage included when the mfg model charges it).
    const double beol_yield =
        active ? yieldModel_.dieYield(area_mm2, node)
               : yieldModel_.interposerYield(area_mm2, node);
    const double beol = layeredPatterningCo2Kg(
        params_.interposerBeolLayers,
        tech_->eplaInterposerKwhPerCm2(node), area_mm2, beol_yield);
    const double wasted_mm2 =
        mfg_->includeWastage()
            ? mfg_->wafer().wastedAreaPerDieMm2(area_mm2)
            : 0.0;
    out.packageCo2Kg =
        beol + wastageCo2Kg(tech_->cfpaSiKgPerCm2(node), wasted_mm2) +
        baseSubstrateCo2Kg(area_mm2);
    out.packageYield = beol_yield;

    if (active) {
        // The routers' and repeaters' FEOL is real logic silicon.
        const CommOverhead comm =
            interposerComm(system.chiplets.size());
        const ActiveFeol feol = activeFeolCo2Kg(
            mfg_->grossCfpaKgPerCm2(node), beol_yield, comm.areaMm2,
            params_.repeaterAreaFraction, area_mm2);
        out.routingCo2Kg = feol.routerCo2Kg;
        out.packageCo2Kg += feol.repeaterCo2Kg;
        out.commAreaMm2 = comm.areaMm2;
        out.nocPowerW = comm.powerW;
    }
}

HiResult
PackageModel::evaluate(const SystemSpec &system) const
{
    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");
    HiResult out;
    if (system.isMonolithic()) {
        // Monolithic baselines carry no HI-related packaging
        // overheads (Sec. V-A(1)).
        return out;
    }

    const std::vector<PlanarUnit> stacks =
        bondedStacks(params_.arch, system);
    auto area_of = [&](std::size_t i) {
        return system.chiplets[i].areaMm2(*tech_);
    };

    if (params_.arch == PackagingArch::Stack3d) {
        // One tower on an organic substrate, its footprint set by
        // the largest tier (Sec. III-D(1e)).
        const double footprint_mm2 =
            footprintMm2(stacks.front(), area_of);
        out.packageCo2Kg = baseSubstrateCo2Kg(footprint_mm2);
        out.packageAreaMm2 = footprint_mm2;
    } else {
        const FloorplanResult fp = floorplan(system);
        out.packageAreaMm2 = fp.areaMm2();
        out.whitespaceAreaMm2 = fp.whitespaceAreaMm2;
        switch (params_.arch) {
          case PackagingArch::RdlFanout:
            evaluateRdl(fp.areaMm2(), out);
            break;
          case PackagingArch::SiliconBridge:
            evaluateBridge(system, fp, out);
            break;
          case PackagingArch::PassiveInterposer:
          case PackagingArch::ActiveInterposer:
            evaluateInterposer(
                system, fp.areaMm2(),
                params_.arch == PackagingArch::ActiveInterposer, out);
            break;
          case PackagingArch::Stack3d:
            break; // handled above
        }
    }

    // PHYs (RDL/EMIB) or routers in the chiplets' own nodes; an
    // active interposer hosts its routers itself (Sec. III-D(2)).
    if (params_.arch != PackagingArch::ActiveInterposer)
        addChipletCommOverheads(system, out);

    for (const PlanarUnit &stack : stacks)
        out.stackBondCo2Kg += out.addStackBond(
            stackBond(footprintMm2(stack, area_of),
                      static_cast<int>(stack.members.size()),
                      bondParams(params_, *tech_)),
            params_.intensityGPerKwh);
    out.packageCo2Kg += out.stackBondCo2Kg;
    return out;
}

} // namespace ecochip
