/**
 * @file
 * Data-oriented batch kernel for technology-space sweeps.
 *
 * A sweep evaluates the same system under every candidate node
 * assignment -- |candidates|^|chiplets| full estimates. The scalar
 * path re-constructs every model and re-floorplans per point; the
 * SweepEvaluator compiles the sweep once into a plan of per-
 * (chiplet, candidate) terms (bare-die manufacturing, comm-silicon
 * growth deltas, design amortizations, per-chiplet powers) and
 * evaluates each point with only the point-dependent math: the
 * floorplan (memoized process-wide -- it depends only on box areas)
 * and the packaging yield/patterning expressions.
 *
 * Bit-identity contract: every ExplorationPoint (node list,
 * retargeted system, full CarbonReport with all HiResult and
 * per-chiplet fields) is byte-identical to what
 * TechSpaceExplorer::sweep produced through scalar
 * EcoChip::estimate calls, and the estimator's evaluation cache is
 * populated with exactly the same entries (reports, bare-die
 * manufacturing breakdowns, design breakdowns) a scalar sweep
 * would leave behind. The packaging and design equations are
 * calls into package/carbon_terms.h, shared with the scalar models
 * and BatchEvaluator; the plan only hoists their inputs (through
 * PlanModels, shared with BatchEvaluator) and a point supplies its
 * floorplan and candidate dies. Monolithic systems take the scalar
 * path unchanged.
 */

#ifndef ECOCHIP_KERNELS_SWEEP_EVALUATOR_H
#define ECOCHIP_KERNELS_SWEEP_EVALUATOR_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/ecochip.h"
#include "core/explorer.h"

namespace ecochip {

/** Batch evaluator for cartesian node sweeps of one estimator. */
class SweepEvaluator
{
  public:
    /**
     * @param estimator Configured estimator; the plan is cached in
     *        its evaluation cache (so it is invalidated together
     *        with every other memoized value when the configuration
     *        changes) and must not outlive it.
     */
    explicit SweepEvaluator(const EcoChip &estimator)
        : estimator_(&estimator)
    {}

    /**
     * Evaluate every node assignment in lexicographic order.
     * Inputs must already be validated (candidate list count,
     * non-empty candidate lists) by the caller.
     */
    std::vector<ExplorationPoint>
    sweep(const SystemSpec &system,
          const std::vector<std::vector<double>>
              &candidates_per_chiplet) const;

  private:
    /** Hoisted terms of one (chiplet, candidate-node) pair. */
    struct Candidate
    {
        double nodeNm = 0.0;
        /** Bare-die manufacturing at this node. */
        MfgBreakdown bare;
        /** Comm-silicon growth: grown die minus bare die (kg). */
        double commDeltaCo2Kg = 0.0;
        /** PHY/router area added to the die (mm^2). */
        double commAreaMm2 = 0.0;
        /** PHY/router power at this node (W). */
        double commPowerW = 0.0;
        /** Amortized design carbon; 0 for reused chiplets (kg). */
        double designAmortizedCo2Kg = 0.0;
        /** Analytical average chiplet power (W). */
        double chipletPowerW = 0.0;
        /** Amortized mask-set NRE; 0 unless charged (kg). */
        double nreCo2Kg = 0.0;
        /**
         * Communication-IP design carbon per part when this node
         * leads the system (front chiplet only).
         */
        double commDesignCo2Kg = 0.0;
    };

    /** Compiled sweep plan for one (system, candidates) pair. */
    struct Plan;

    /** Reusable per-sweep buffers (keys, boxes) shared by points. */
    struct Scratch;

    std::shared_ptr<const Plan>
    compile(const SystemSpec &system,
            const std::vector<std::vector<double>>
                &candidates_per_chiplet) const;

    CarbonReport evaluatePoint(const Plan &plan,
                               const std::vector<std::size_t> &idx,
                               Scratch &scratch) const;

    const EcoChip *estimator_;
};

} // namespace ecochip

#endif // ECOCHIP_KERNELS_SWEEP_EVALUATOR_H
