/**
 * @file
 * Data-oriented batch evaluation kernel for scaled-input trials.
 *
 * The scalar path evaluates one perturbed trial by copying the
 * whole EcoChipConfig and TechDb, rebuilding two interpolation
 * tables, and constructing a fresh EcoChip plus every sub-model --
 * roughly 15 us per trial, almost all of it setup. A
 * BatchEvaluator does that setup exactly once: its constructor
 * precomputes every scenario-invariant quantity (chiplet areas,
 * floorplan, interpolation-segment knots, bond counts, EDA
 * productivity fits, ...) and `evaluateRange()` then runs only the
 * trial-dependent arithmetic per trial.
 *
 * Bit-identity contract: for any TrialBatch row, the (embodied,
 * operational, total) outputs are bit-identical to building the
 * scaled config/tech the way MonteCarloAnalyzer::evaluateTrial and
 * SensitivityAnalyzer's parameter closures do and calling
 * EcoChip::estimate on a fresh estimator. The equations are not
 * restated here: every packaging, silicon and design term is a
 * call into package/carbon_terms.h, the same functions the scalar
 * models call. This evaluator only hoists their inputs -- the
 * scenario invariants at construction (through PlanModels, shared
 * with SweepEvaluator), the scaled intensities, effort and yields
 * per trial. tests/test_kernels.cpp locks the contract with
 * byte-compare golden tests. Interpolation-table rebuilds are
 * reproduced through hoisted PiecewiseLinear::segment() knots: a
 * rebuilt table's eval is (s*yLo) + t*((s*yHi) - (s*yLo)) on the
 * resampled base knots, computed without touching the table.
 *
 * Interned die table: every die whose manufacturing carbon a trial
 * needs -- each bare chiplet die and each die grown by its PHY or
 * router area -- is interned into one table of distinct DieTerms
 * when the plan is built. Two terms share an entry only when all
 * their fields are bitwise equal, so a part built from identical
 * chiplets (HBM towers, replicated compute dies, SRAM tiers)
 * evaluates each distinct die once per trial. The mfg sum and the
 * routing deltas then read the table by index, in chiplet order,
 * so every per-die expression and every summation order is the
 * scalar path's.
 */

#ifndef ECOCHIP_KERNELS_BATCH_EVALUATOR_H
#define ECOCHIP_KERNELS_BATCH_EVALUATOR_H

#include <cstddef>
#include <vector>

#include "core/ecochip.h"
#include "kernels/trial_batch.h"
#include "package/carbon_terms.h"
#include "support/interp.h"

namespace ecochip {

/**
 * Precompiled evaluation plan for one (config, tech, system).
 *
 * Construction runs every configuration validation the scalar
 * path would run (same exception types and messages) and hoists
 * all scenario-invariant structure. `evaluateRange()` is const and
 * thread-safe; Monte-Carlo workers share one evaluator.
 */
class BatchEvaluator
{
  public:
    /**
     * Build the plan. Throws exactly what a scalar estimate of
     * @p system under @p config / @p tech would throw.
     */
    BatchEvaluator(const EcoChipConfig &config, const TechDb &tech,
                   const SystemSpec &system);

    /**
     * Evaluate trials [@p begin, @p end) of @p batch, writing each
     * trial's metrics at its own index of the output arrays.
     *
     * @param batch Trial columns (all sized >= @p end).
     * @param embodied Embodied carbon per trial (kg CO2).
     * @param operational Operational carbon per trial (kg CO2).
     * @param total Total carbon per trial (kg CO2).
     */
    void evaluateRange(const TrialBatch &batch, std::size_t begin,
                       std::size_t end, double *embodied,
                       double *operational, double *total) const;

  private:
    /**
     * Hoisted interpolation lookup of one (table, node) query.
     * Reproduces both the untouched-table eval (`baseVal`) and the
     * rebuilt-at-standard-nodes eval (knot pair + parameter from
     * the resampled base table).
     */
    struct ScaledLookup
    {
        double baseVal = 0.0;
        double yLo = 0.0;
        double yHi = 0.0;
        double t = 0.0;

        double
        eval(double scale, bool rebuild) const
        {
            return rebuild
                       ? (scale * yLo) +
                             t * ((scale * yHi) - (scale * yLo))
                       : baseVal;
        }
    };

    /** Everything invariant of one die's manufacturing carbon. */
    struct DieTerm
    {
        double areaMm2 = 0.0;
        double areaCm2 = 0.0;
        double derate = 0.0;
        double cgas = 0.0;
        double cmaterial = 0.0;
        double wastedCo2Kg = 0.0;
        ScaledLookup d0;
        ScaledLookup epa;
    };

    /**
     * Per-chiplet communication silicon growth (PHY or router);
     * a chiplet whose added area is <= 0 has none.
     */
    struct CommTerm
    {
        std::size_t bareDie = 0;  ///< index into dies_
        std::size_t grownDie = 0; ///< index into dies_
    };

    /** Invariants of one layered-patterning carbon term. */
    struct PatterningTerm
    {
        double energyKwh = 0.0;
        double areaCm2 = 0.0;
        double d0Derate = 1.0;
        ScaledLookup d0;
    };

    /** Per-chiplet design-carbon invariants (non-reused only). */
    struct DesignTerm
    {
        double gates = 0.0;
        double etaC = 1.0;
    };

    double dieTotalCo2Kg(const DieTerm &term, double s_d0,
                         bool rebuild_d0, double s_epa,
                         bool rebuild_epa, double fab_t) const;

    /** Negative-binomial yield of one patterned layer stack. */
    double patterningYield(const PatterningTerm &pat, double s_d0,
                           bool rebuild_d0) const;

    /** Index of @p term in dies_, appending it if it is new. */
    std::size_t internDie(const DieTerm &term);

    // --- yield statistics ---
    YieldModelKind yieldKind_;
    double alpha_ = 0.0;

    // --- manufacturing ---
    std::vector<DieTerm> dies_; ///< distinct dies, interned
    /** The manufactured dies in chiplet order, as dies_ indices. */
    std::vector<std::size_t> mfgDies_;

    // --- packaging ---
    PackagingArch arch_;
    bool monolithic_ = false;
    std::vector<CommTerm> commTerms_;
    double pkgAreaMm2_ = 0.0;     ///< outline, or 3D footprint
    PatterningTerm archPat_;      ///< RDL / bridge / beol term
    PatterningTerm substratePat_; ///< organic base substrate
    int bridges_ = 0;
    double embedYield_ = 1.0;
    double wastageCo2Kg_ = 0.0;
    /** The 3D tower, or each stack group of a 2.5D package. */
    std::vector<StackBond> stackBonds_;
    // Active-interposer FEOL (router + repeater regions).
    double feolDerate_ = 0.0;
    double feolCgas_ = 0.0;
    double feolCmaterial_ = 0.0;
    ScaledLookup feolEpa_;
    double routerAreaMm2_ = 0.0;
    double repeaterFraction_ = 0.0;

    // --- intensities (baseline values the scales multiply) ---
    double fabIntensityBase_ = 0.0;
    double pkgIntensityBase_ = 0.0;
    double designIntensityBase_ = 0.0;

    // --- design ---
    std::vector<DesignTerm> designTerms_;
    /** Baseline Eq. 13 effort; a trial scales SP&R and may
     *  replace the iteration count. */
    DesignEffort effortBase_;
    double pdesW_ = 0.0;
    double chipletVolumeBase_ = 0.0;
    double systemVolume_ = 0.0;
    bool hasComm_ = false;
    double commGates_ = 0.0;
    double commEtaC_ = 1.0;

    // --- mask-set NRE ---
    bool includeNre_ = false;
    std::vector<double> maskSetEnergiesKwh_;

    // --- operation ---
    bool annualPath_ = false;
    double annualEnergyKwh_ = 0.0;
    double extraPowerW_ = 0.0;
    double avgPowerBaseW_ = 0.0;
    double lifetimeBase_ = 0.0;
    double dutyCycleBase_ = 0.0;
    double useIntensity_ = 0.0;
};

} // namespace ecochip

#endif // ECOCHIP_KERNELS_BATCH_EVALUATOR_H
