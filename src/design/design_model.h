/**
 * @file
 * Design-CFP model (paper Sec. III-E, Eqs. 12-13).
 *
 * Design carbon comes from the CPU compute burned by EDA tools
 * across synthesis/place-and-route (SP&R) iterations, analysis, and
 * verification. It is amortized across the number of chiplets
 * manufactured (NMi) and systems built (NS) -- the mechanism behind
 * the "reuse" savings of Sec. V-C.
 */

#ifndef ECOCHIP_DESIGN_DESIGN_MODEL_H
#define ECOCHIP_DESIGN_DESIGN_MODEL_H

#include <functional>

#include "chiplet/chiplet.h"
#include "support/interp.h"
#include "tech/tech_db.h"

namespace ecochip {

/** Knobs of the design-CFP model (Table I defaults). */
struct DesignParams
{
    /** Power of one design-compute CPU, W (Table I: 10 W). */
    double pdesW = 10.0;

    /** Design iterations Ndes (Table I: 100). */
    int designIterations = 100;

    /** Carbon intensity of design-compute energy, g CO2/kWh. */
    double intensityGPerKwh = 700.0;

    /**
     * SP&R compute anchor: the paper measures 24 CPU-hours for a
     * 700k-gate design in a commercial 7 nm flow, i.e. ~34.3
     * CPU-hours per million gates.
     */
    double sprHoursPerMgate = 24.0 / 0.7;

    /** tanalyze as a fraction of tSP&R per iteration. */
    double analyzeFraction = 0.25;

    /**
     * tverif as a multiple of all iterative SP&R+analysis time;
     * verification dominates ~80% of product development time
     * (Sec. V-A(2)), hence 4x.
     */
    double verifMultiple = 4.0;

    /** Logic gates per transistor (GA102: 4.5B gates, Sec. V-A). */
    double gatesPerTransistor = 0.1;

    /** Chiplets of each type manufactured, NMi. */
    double chipletVolume = 100000.0;

    /** Systems manufactured, NS. */
    double systemVolume = 100000.0;
};

/** Per-chiplet design-carbon breakdown. */
struct DesignBreakdown
{
    /** Single SP&R run compute time (CPU-hours). */
    double sprHours = 0.0;

    /** Total design compute time tdes,i (CPU-hours, Eq. 13). */
    double totalHours = 0.0;

    /** Unamortized design carbon Cdes,i (kg CO2). */
    double co2Kg = 0.0;

    /** Cdes,i / NMi: amortized per part (kg CO2). */
    double amortizedCo2Kg = 0.0;
};

/**
 * Design-CFP estimator.
 *
 * Implements Eq. 13 with the EDA-productivity factor eta_EDA(p)
 * obtained from a near-linear regression over the technology
 * database's productivity samples (the paper's regression over
 * [23]), and Eq. 12's amortization over NMi/NS. Chiplets marked
 * `reused` contribute no design carbon: their design was paid for
 * by previous products.
 */
class DesignModel
{
  public:
    /**
     * @param tech Technology database (must outlive the model).
     * @param params Design-model knobs.
     */
    explicit DesignModel(const TechDb &tech,
                         DesignParams params = DesignParams());

    /** Parameters in use. */
    const DesignParams &params() const { return params_; }

    /**
     * Regressed EDA productivity at a node, clamped to (0, 1].
     */
    double edaProductivityFit(double node_nm) const;

    /** Logic-gate count of a chiplet (millions of gates). */
    double gateCountMgates(const Chiplet &chiplet) const;

    /**
     * Single-SP&R-iteration carbon for a chiplet (kg CO2): the
     * quantity plotted in Fig. 7(b).
     */
    double singleIterationCo2Kg(const Chiplet &chiplet) const;

    /** Full per-chiplet design breakdown (Eq. 13). */
    DesignBreakdown chipletDesign(const Chiplet &chiplet) const;

    /**
     * System design CFP per part (Eq. 12):
     *   Cdes = sum_i Cdes,i / NMi + Cdes,comm / NS
     *
     * @param system Chiplet set; `reused` chiplets are skipped.
     * @param comm_transistors_mtr Router/PHY IP content whose
     *        design is charged once per system (Cdes,comm).
     * @param comm_node_nm Node the communication IP is designed in.
     */
    double systemDesignCo2Kg(const SystemSpec &system,
                             double comm_transistors_mtr = 0.0,
                             double comm_node_nm = 65.0) const;

    /**
     * Eq. 12 with an injected per-chiplet evaluator -- the hook
     * cache-backed callers (EcoChip's evaluation cache) use to
     * memoize `chipletDesign` without duplicating the
     * amortization loop.
     *
     * @param chiplet_design Evaluator for one chiplet's design
     *        breakdown; must agree with `chipletDesign()`.
     */
    double systemDesignCo2Kg(
        const SystemSpec &system, double comm_transistors_mtr,
        double comm_node_nm,
        const std::function<DesignBreakdown(const Chiplet &)>
            &chiplet_design) const;

    /**
     * Eq. 12's Cdes,comm / NS: the design carbon per part of
     * @p comm_transistors_mtr of communication IP designed at
     * @p comm_node_nm.
     */
    double commDesignCo2Kg(double comm_transistors_mtr,
                           double comm_node_nm) const;

  private:
    /** Eq. 13 total design hours for a gate count at a node. */
    double designHours(double gates_mgates, double node_nm) const;

    /** Convert compute hours to kg CO2. */
    double hoursToCo2Kg(double hours) const;

    const TechDb *tech_;
    DesignParams params_;
    LinearRegression etaFit_;
};

} // namespace ecochip

#endif // ECOCHIP_DESIGN_DESIGN_MODEL_H
