#include "cost/cost_model.h"

#include <algorithm>

#include "package/carbon_terms.h"
#include "support/error.h"
#include "support/units.h"

namespace ecochip {

CostModel::CostModel(const TechDb &tech, WaferModel wafer,
                     CostParams params)
    : tech_(&tech), wafer_(wafer), yieldModel_(tech),
      params_(params)
{
    requireConfig(params.volume >= 1.0,
                  "production volume must be at least 1");
}

double
CostModel::dieCostUsd(const Chiplet &chiplet) const
{
    return dieCostUsd(chiplet.areaMm2(*tech_), chiplet.nodeNm);
}

double
CostModel::dieCostUsd(double area_mm2, double node_nm) const
{
    const long dpw = wafer_.diesPerWafer(area_mm2);
    requireConfig(dpw > 0, "die does not fit the wafer");
    const double yield = yieldModel_.dieYield(area_mm2, node_nm);
    return tech_->waferCostUsd(node_nm) /
           (static_cast<double>(dpw) * yield);
}

double
CostModel::nreCostUsd(const Chiplet &chiplet) const
{
    if (chiplet.reused)
        return 0.0; // mask set paid for by previous products
    return tech_->maskSetCostUsd(chiplet.nodeNm) / params_.volume;
}

CostBreakdown
CostModel::systemCost(const SystemSpec &system,
                      const PackageParams &pkg) const
{
    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");

    CostBreakdown out;
    if (system.isMonolithic()) {
        // One die: silicon cost over the combined area, standard
        // flip-chip substrate, single attach, one mask set.
        double area_mm2 = 0.0;
        for (const auto &block : system.chiplets)
            area_mm2 += block.areaMm2(*tech_);
        const double node = system.monolithicNodeNm();
        const long dpw = wafer_.diesPerWafer(area_mm2);
        requireConfig(dpw > 0, "die does not fit the wafer");
        out.dieUsd = tech_->waferCostUsd(node) /
                     (static_cast<double>(dpw) *
                      yieldModel_.dieYield(area_mm2, node));
        if (params_.includeNre)
            out.nreUsd =
                tech_->maskSetCostUsd(node) / params_.volume;
        out.packageUsd = params_.substrateCostPerCm2Usd * area_mm2 *
                         units::kCm2PerMm2;
        out.assemblyUsd = params_.attachCostPerChipletUsd;
        return out;
    }

    // A stack group of one tier is refused here as in the carbon
    // model, before anything is floorplanned.
    bondedStacks(pkg.arch, system);

    // One logic-density lookup per chiplet; every consumer below
    // (die costs, 3D footprint) reads the hoisted area.
    std::vector<double> areas_mm2;
    areas_mm2.reserve(system.chiplets.size());
    for (const auto &chiplet : system.chiplets)
        areas_mm2.push_back(chiplet.areaMm2(*tech_));

    for (std::size_t i = 0; i < system.chiplets.size(); ++i) {
        const Chiplet &chiplet = system.chiplets[i];
        out.dieUsd += dieCostUsd(areas_mm2[i], chiplet.nodeNm);
        if (params_.includeNre)
            out.nreUsd += nreCostUsd(chiplet);
    }

    const double nc = static_cast<double>(system.chiplets.size());

    out.assemblyUsd = nc * (params_.attachCostPerChipletUsd +
                            params_.testCostPerChipletUsd);

    if (pkg.arch == PackagingArch::Stack3d) {
        double footprint_mm2 = 0.0;
        for (double area_mm2 : areas_mm2)
            footprint_mm2 = std::max(footprint_mm2, area_mm2);
        const double vias =
            bondVias(footprint_mm2, pkg.bondPitchUm());
        out.packageUsd =
            params_.substrateCostPerCm2Usd * footprint_mm2 *
                units::kCm2PerMm2 +
            vias * (nc - 1.0) * params_.costPerBondUsd;
        return out;
    }

    const FloorplanResult fp =
        Floorplanner(pkg.spacingMm).plan(system, *tech_);
    const double pkg_cm2 = fp.areaMm2() * units::kCm2PerMm2;

    switch (pkg.arch) {
      case PackagingArch::RdlFanout:
        out.packageUsd =
            pkg_cm2 * (params_.substrateCostPerCm2Usd +
                       pkg.rdlLayers *
                           params_.rdlLayerCostPerCm2Usd);
        break;
      case PackagingArch::SiliconBridge:
        out.packageUsd =
            pkg_cm2 * params_.substrateCostPerCm2Usd +
            bridgeCount(fp.adjacencies, pkg.bridgeRangeMm,
                        system.chiplets.size()) *
                params_.bridgeCostUsd;
        break;
      case PackagingArch::PassiveInterposer:
      case PackagingArch::ActiveInterposer: {
        // The interposer is itself a die from a (legacy-node)
        // wafer; active flavors see full defectivity.
        const long dpw = wafer_.diesPerWafer(fp.areaMm2());
        requireConfig(dpw > 0,
                      "interposer does not fit the wafer");
        const bool active =
            pkg.arch == PackagingArch::ActiveInterposer;
        const double yield =
            active ? yieldModel_.dieYield(fp.areaMm2(),
                                          pkg.interposerNodeNm)
                   : yieldModel_.interposerYield(
                         fp.areaMm2(), pkg.interposerNodeNm);
        // An interposer wafer costs more than a plain logic wafer
        // at the same node: TSV etch/fill, wafer thinning, and
        // carrier handling add ~50%; active interposers pay a
        // further FEOL premium.
        const double wafer_factor = active ? 2.0 : 1.5;
        out.packageUsd =
            wafer_factor *
                tech_->waferCostUsd(pkg.interposerNodeNm) /
                (static_cast<double>(dpw) * yield) +
            pkg_cm2 * params_.substrateCostPerCm2Usd;
        break;
      }
      case PackagingArch::Stack3d:
        throw ModelError("3D handled above");
    }
    return out;
}

} // namespace ecochip
