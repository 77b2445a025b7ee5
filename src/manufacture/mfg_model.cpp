#include "manufacture/mfg_model.h"

#include "package/carbon_terms.h"
#include "support/error.h"
#include "support/units.h"

namespace ecochip {

ManufacturingModel::ManufacturingModel(
    const TechDb &tech, WaferModel wafer,
    double fab_intensity_g_per_kwh, YieldModelKind yield_kind)
    : tech_(&tech), wafer_(wafer), yieldModel_(tech, yield_kind),
      fabIntensityGPerKwh_(fab_intensity_g_per_kwh)
{
    requireConfig(fab_intensity_g_per_kwh > 0.0,
                  "fab carbon intensity must be positive");
}

double
ManufacturingModel::grossCfpaKgPerCm2(double node_nm) const
{
    return ecochip::grossCfpaKgPerCm2(
        tech_->equipmentDerate(node_nm), fabIntensityGPerKwh_,
        tech_->epaKwhPerCm2(node_nm), tech_->cgasKgPerCm2(node_nm),
        tech_->cmaterialKgPerCm2(node_nm));
}

MfgBreakdown
ManufacturingModel::dieMfg(double area_mm2, double node_nm) const
{
    requireConfig(area_mm2 > 0.0, "die area must be positive");

    MfgBreakdown result;
    result.areaMm2 = area_mm2;
    result.yield = yieldModel_.dieYield(area_mm2, node_nm);
    result.cfpaKgPerCm2 =
        grossCfpaKgPerCm2(node_nm) / result.yield;
    result.dieCo2Kg =
        result.cfpaKgPerCm2 * area_mm2 * units::kCm2PerMm2;

    result.diesPerWafer = wafer_.diesPerWafer(area_mm2);
    // Compose the (allocating) message only on failure; this runs
    // once per die candidate in the sweep/Monte-Carlo hot loops.
    if (result.diesPerWafer <= 0)
        requireConfig(false,
                      "die of " + std::to_string(area_mm2) +
                          " mm^2 does not fit the wafer");
    if (includeWastage_) {
        result.wastedAreaMm2 = wafer_.wastedAreaPerDieMm2(area_mm2);
        result.wastedCo2Kg = wastageCo2Kg(
            tech_->cfpaSiKgPerCm2(node_nm), result.wastedAreaMm2);
    }
    return result;
}

MfgBreakdown
ManufacturingModel::chipletMfg(const Chiplet &chiplet) const
{
    return dieMfg(chiplet.areaMm2(*tech_), chiplet.nodeNm);
}

double
ManufacturingModel::systemMfgCo2Kg(const SystemSpec &system) const
{
    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");
    if (system.singleDie) {
        // Monolithic SoC: the blocks are fabricated as one die --
        // one area, one yield.
        double area_mm2 = 0.0;
        for (const auto &block : system.chiplets)
            area_mm2 += block.areaMm2(*tech_);
        return dieMfg(area_mm2, system.monolithicNodeNm())
            .totalCo2Kg();
    }
    double total = 0.0;
    for (const auto &chiplet : system.chiplets)
        total += chipletMfg(chiplet).totalCo2Kg();
    return total;
}

} // namespace ecochip
