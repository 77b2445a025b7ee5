/**
 * @file
 * The embodied-carbon equations of packaging (paper Sec. III-D) and
 * design (Eqs. 12-13), each written once as an inline function over
 * plain doubles.
 *
 * The scalar models (PackageModel, DesignModel, EcoChip, CostModel)
 * and both batch kernels (BatchEvaluator, SweepEvaluator) call these
 * functions and differ only in how they gather the inputs: the
 * scalar path through the models' checked calls, the kernels from
 * hoisted invariants and per-trial scales. One expression tree per
 * equation is what keeps the kernels bit-identical to the scalar
 * path. Yields are inputs, except the bond array's: each caller
 * keeps its own die and layer yield call (checked in the scalar
 * path, the `*Fast` inlines in the kernels).
 */

#ifndef ECOCHIP_PACKAGE_CARBON_TERMS_H
#define ECOCHIP_PACKAGE_CARBON_TERMS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "floorplan/floorplan.h"
#include "package/package_params.h"
#include "support/error.h"
#include "support/units.h"
#include "tech/tech_db.h"
#include "yield/yield_model.h"

namespace ecochip {

/** @{ @name Patterned layers and bonds (Eqs. 9-11) */

/** Energy of patterning @p layers layers over @p area_cm2. */
inline double
patterningEnergyKwh(int layers, double epla_kwh_per_cm2,
                    double area_cm2)
{
    return layers * epla_kwh_per_cm2 * area_cm2;
}

/**
 * Packaging-fab carbon per good part: @p energy_kwh at the package
 * carbon intensity, over the yield of the step that spent it. RDL,
 * bridge, interposer BEOL and organic substrate layers, and bond
 * arrays, are all charged this way.
 */
inline double
packagingCo2Kg(double intensity_g_per_kwh, double energy_kwh,
               double yield)
{
    return units::carbonKg(intensity_g_per_kwh, energy_kwh) / yield;
}

/** Bond-array invariants of the selected bond type. */
struct BondParams
{
    double pitchUm = 0.0;
    double failProbability = 0.0;
    double energyFactor = 0.0;
    double energyPerTsvKwh = 0.0;
    double tierAssemblyYield = 1.0;
};

/** The bond invariants of @p params at @p tech. */
inline BondParams
bondParams(const PackageParams &params, const TechDb &tech)
{
    return {params.bondPitchUm(), params.bondFailProbability(),
            params.bondEnergyFactor(),
            tech.energyPerTsvKwh(params.bondProcessNodeNm),
            params.tierAssemblyYield};
}

/**
 * Through-stack connections under @p footprint_mm2: a dense grid at
 * the minimum pitch of the bond type (Sec. III-D(1e)).
 */
inline double
bondVias(double footprint_mm2, double pitch_um)
{
    return std::floor(footprint_mm2 * units::kUm2PerMm2 /
                      (pitch_um * pitch_um));
}

/** One vertical stack's bonds (Eq. 11). */
struct StackBond
{
    double vias = 0.0;      ///< connections per tier interface
    double yield = 1.0;     ///< bond array x tier assembly
    double energyKwh = 0.0; ///< via/bump process energy
};

/**
 * Bonds of a stack of @p tiers dies over @p footprint_mm2. The
 * yield goes through the checked bondArrayYield() in every path,
 * so a failure probability outside [0, 1) throws its ConfigError.
 */
inline StackBond
stackBond(double footprint_mm2, int tiers, const BondParams &bond)
{
    const double vias = bondVias(footprint_mm2, bond.pitchUm);
    const double yield =
        bondArrayYield(vias * (tiers - 1), bond.failProbability) *
        std::pow(bond.tierAssemblyYield, tiers - 1);
    return {vias, yield,
            vias * bond.energyFactor * bond.energyPerTsvKwh};
}

/**
 * The vertical stacks of a multi-die system under @p arch: the whole
 * system as one tower on a 3D package, else its stack groups
 * (HBM-style towers on a 2.5D package) in first-appearance order.
 * Throws ConfigError for a stack group of fewer than two tiers.
 */
inline std::vector<PlanarUnit>
bondedStacks(PackagingArch arch, const SystemSpec &system)
{
    std::vector<PlanarUnit> stacks;
    if (arch == PackagingArch::Stack3d) {
        PlanarUnit tower{system.name, 0, {}};
        for (std::size_t i = 0; i < system.chiplets.size(); ++i)
            tower.members.push_back(i);
        stacks.push_back(std::move(tower));
        return stacks;
    }
    for (PlanarUnit &unit : planarUnits(system)) {
        if (!unit.stacked())
            continue;
        if (unit.members.size() < 2)
            requireConfig(false, "stack group \"" + unit.label +
                                     "\" needs at least two tiers");
        stacks.push_back(std::move(unit));
    }
    return stacks;
}

/** @} */

/** @{ @name Silicon bridges (Eq. 10) */

/**
 * Bridge count: one bridge per @p range_mm of overlapping edge on
 * each adjacent pair, at least one per pair (Sec. III-D(1b)). The
 * spanning-tree lower bound keeps every chiplet connected even when
 * bounding-box whitespace hides an abutment from the adjacency
 * extraction.
 */
inline int
bridgeCount(const std::vector<Adjacency> &adjacencies,
            double range_mm, std::size_t chiplets)
{
    int bridges = 0;
    for (const auto &adj : adjacencies)
        bridges += std::max(
            1, static_cast<int>(std::ceil(adj.overlapMm / range_mm)));
    return std::max(bridges, static_cast<int>(chiplets) - 1);
}

/** Embedding yield of @p bridges bridges, compounded per bridge. */
inline double
bridgeEmbedYield(double embed_yield_per_bridge, int bridges)
{
    return std::pow(embed_yield_per_bridge, bridges);
}

/**
 * Bridge-package carbon: embedding each bridge into its substrate
 * cavity risks the whole substrate, so the substrate and every
 * bridge are charged over the compounded @p embed_yield.
 */
inline double
bridgePackageCo2Kg(double substrate_co2_kg, int bridges,
                   double per_bridge_co2_kg, double embed_yield)
{
    return (substrate_co2_kg + bridges * per_bridge_co2_kg) /
           embed_yield;
}

/** Assembly yield of a bridge package. */
inline double
bridgePackageYield(double embed_yield, double bridge_yield,
                   int bridges)
{
    return embed_yield * std::pow(bridge_yield, bridges);
}

/** @} */

/** @{ @name Silicon (interposer dies and active FEOL) */

/**
 * Gross manufacturing carbon per cm^2 of a silicon wafer, before
 * yield (Eq. 5): fab energy plus gases plus materials.
 */
inline double
grossCfpaKgPerCm2(double equipment_derate, double fab_intensity_g_per_kwh,
                  double epa_kwh_per_cm2, double cgas_kg_per_cm2,
                  double cmaterial_kg_per_cm2)
{
    const double energy_kg_per_cm2 = equipment_derate *
                                     fab_intensity_g_per_kwh *
                                     units::kKgPerG * epa_kwh_per_cm2;
    return energy_kg_per_cm2 + cgas_kg_per_cm2 + cmaterial_kg_per_cm2;
}

/** Silicon wasted at the wafer periphery, per die (Eq. 6). */
inline double
wastageCo2Kg(double cfpa_si_kg_per_cm2, double wasted_area_mm2)
{
    return cfpa_si_kg_per_cm2 * wasted_area_mm2 * units::kCm2PerMm2;
}

/** FEOL carbon on an active interposer. */
struct ActiveFeol
{
    double routerCo2Kg = 0.0;   ///< router regions (Cmfg,comm)
    double repeaterCo2Kg = 0.0; ///< repeater regions (Cpackage)
};

/**
 * Full-die FEOL under an active interposer's routers and repeaters,
 * at the interposer node's gross CFPA over the interposer's yield.
 * The repeaters cover @p repeater_fraction of @p area_mm2.
 */
inline ActiveFeol
activeFeolCo2Kg(double gross_cfpa_kg_per_cm2, double beol_yield,
                double router_area_mm2, double repeater_fraction,
                double area_mm2)
{
    const double cfpa = gross_cfpa_kg_per_cm2 / beol_yield;
    const double repeater_area_mm2 = repeater_fraction * area_mm2;
    return {cfpa * router_area_mm2 * units::kCm2PerMm2,
            cfpa * repeater_area_mm2 * units::kCm2PerMm2};
}

/** @} */

/** @{ @name Design (Eqs. 12-13) */

/** The Eq. 13 effort knobs, as a trial sees them. */
struct DesignEffort
{
    double sprHoursPerMgate = 0.0;
    double analyzeFraction = 0.0;
    double iterations = 0.0;
    double verifMultiple = 0.0;
};

/**
 * Eq. 13: design compute hours of @p gates_mgates million gates.
 * SP&R plus analysis, iterated and derated by the EDA productivity
 * @p eta, plus verification as a multiple of that iterative effort.
 */
inline double
designHours(const DesignEffort &effort, double gates_mgates, double eta)
{
    const double spr = effort.sprHoursPerMgate * gates_mgates;
    const double analyze = effort.analyzeFraction * spr;
    const double iterative =
        (spr + analyze) * effort.iterations / eta;
    return effort.verifMultiple * iterative + iterative;
}

/** Carbon of @p hours of design compute at @p pdes_w per CPU. */
inline double
designCo2Kg(double hours, double pdes_w, double intensity_g_per_kwh)
{
    return units::carbonKg(intensity_g_per_kwh,
                           hours * pdes_w * units::kKwhPerWh);
}

/** The communication IP a multi-die system designs once. */
struct CommIp
{
    double transistorsMtr = 0.0;
    double nodeNm = 0.0;
};

/**
 * Eq. 12's Cdes,comm content: one PHY per chiplet on RDL and bridge
 * packages, one router per chiplet otherwise. It is designed at the
 * lead chiplet's node, or the interposer's when the routers live in
 * an active interposer.
 */
inline CommIp
commIp(PackagingArch arch, std::size_t chiplets, double phy_mtr,
       double router_mtr, double lead_node_nm,
       double interposer_node_nm)
{
    const double nc = static_cast<double>(chiplets);
    switch (arch) {
      case PackagingArch::RdlFanout:
      case PackagingArch::SiliconBridge:
        return {phy_mtr * nc, lead_node_nm};
      case PackagingArch::PassiveInterposer:
      case PackagingArch::Stack3d:
        return {router_mtr * nc, lead_node_nm};
      case PackagingArch::ActiveInterposer:
        return {router_mtr * nc, interposer_node_nm};
    }
    return {};
}

/** @} */

} // namespace ecochip

#endif // ECOCHIP_PACKAGE_CARBON_TERMS_H
