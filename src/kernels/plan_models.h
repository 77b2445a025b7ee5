/**
 * @file
 * The scalar models both batch kernels compile their plans from.
 */

#ifndef ECOCHIP_KERNELS_PLAN_MODELS_H
#define ECOCHIP_KERNELS_PLAN_MODELS_H

#include <optional>
#include <vector>

#include "core/ecochip.h"
#include "manufacture/nre_model.h"
#include "package/carbon_terms.h"

namespace ecochip {

/**
 * What BatchEvaluator and SweepEvaluator hoist alike from one
 * (config, tech, system): the package, design, NRE and operation
 * models, the system's bonded stacks and the bond invariants.
 *
 * Construction runs the configuration validations EcoChip::estimate
 * runs after its die manufacturing, in the same order, so a kernel
 * plan throws what the scalar estimate of the system would throw.
 * The package model keeps a pointer to @p mfg, which must outlive
 * this object.
 */
struct PlanModels
{
    PlanModels(const EcoChipConfig &config, const TechDb &tech,
               const SystemSpec &system,
               const ManufacturingModel &mfg)
        : package(tech, mfg, config.package),
          stacks(system.isMonolithic()
                     ? std::vector<PlanarUnit>()
                     : bondedStacks(config.package.arch, system)),
          bond(bondParams(config.package, tech)),
          design(tech, config.design),
          nre(config.includeMaskNre
                  ? std::optional<NreCarbonModel>(
                        std::in_place, tech,
                        config.fabIntensityGPerKwh,
                        config.design.chipletVolume)
                  : std::nullopt),
          operation(tech, config.operating)
    {}

    PackageModel package;
    /** bondedStacks() of a multi-die system; empty otherwise. */
    std::vector<PlanarUnit> stacks;
    /** Bond invariants, used when `stacks` is non-empty. */
    BondParams bond;
    DesignModel design;
    /** The mask-set model, when NRE is charged. */
    std::optional<NreCarbonModel> nre;
    OperationalModel operation;
};

} // namespace ecochip

#endif // ECOCHIP_KERNELS_PLAN_MODELS_H
