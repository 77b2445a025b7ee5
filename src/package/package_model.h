/**
 * @file
 * HI-oriented CFP overhead model (paper Sec. III-D): package
 * manufacturing/assembly (Cpackage), whitespace (Cwhitespace,
 * folded into the package area), and inter-die communication
 * (Cmfg,comm) for the five packaging architectures.
 */

#ifndef ECOCHIP_PACKAGE_PACKAGE_MODEL_H
#define ECOCHIP_PACKAGE_PACKAGE_MODEL_H

#include "chiplet/chiplet.h"
#include "floorplan/floorplan.h"
#include "manufacture/mfg_model.h"
#include "noc/router_model.h"
#include "package/carbon_terms.h"
#include "package/package_params.h"
#include "yield/yield_model.h"

namespace ecochip {

/** All HI overheads of one package evaluation. */
struct HiResult
{
    /** Package manufacturing/assembly carbon Cpackage (kg CO2). */
    double packageCo2Kg = 0.0;

    /**
     * Inter-die communication carbon Cmfg,comm (kg CO2): the
     * *additional* chiplet manufacturing carbon from PHY/router
     * area (including its yield degradation), or the active
     * interposer's router FEOL.
     */
    double routingCo2Kg = 0.0;

    /** Package substrate / interposer outline area (mm^2). */
    double packageAreaMm2 = 0.0;

    /** Whitespace inside the outline (mm^2). */
    double whitespaceAreaMm2 = 0.0;

    /** Assembly/package yield dividing the package carbon. */
    double packageYield = 1.0;

    /** Number of silicon bridges (EMIB only). */
    int bridgeCount = 0;

    /** Total TSV/microbump/hybrid-bond count (3D or stacks). */
    double bondCount = 0.0;

    /** Carbon of vertical bonds inside stack groups (kg CO2). */
    double stackBondCo2Kg = 0.0;

    /** Total added communication silicon (PHY or routers), mm^2. */
    double commAreaMm2 = 0.0;

    /** Operational power overhead of the NoC/PHY circuitry (W). */
    double nocPowerW = 0.0;

    /** Total HI carbon CHI = Cpackage + Cmfg,comm (kg CO2). */
    double totalCo2Kg() const { return packageCo2Kg + routingCo2Kg; }

    /**
     * Count @p bond's vias and yield into this result and return
     * its carbon at the package intensity (kg CO2).
     */
    double
    addStackBond(const StackBond &bond, double intensity_g_per_kwh)
    {
        bondCount += bond.vias;
        packageYield *= bond.yield;
        return packagingCo2Kg(intensity_g_per_kwh, bond.energyKwh,
                              bond.yield);
    }
};

/** Communication silicon added for inter-die links. */
struct CommOverhead
{
    /** Added silicon area (mm^2). */
    double areaMm2 = 0.0;

    /** Operational power of the circuitry (W). */
    double powerW = 0.0;
};

/**
 * Evaluator for HI packaging overheads.
 *
 * The model implements:
 *  - Eq. 9 for RDL fanout (and the organic base substrate of the
 *    bridge/interposer packages),
 *  - Eq. 10 for silicon bridges, with the bridge count derived from
 *    the floorplan's adjacent-edge overlaps and the EMIB range,
 *  - interposer models on a per-layer, per-area basis; the active
 *    interposer additionally pays full-die FEOL on its router and
 *    repeater regions and sees full silicon defectivity,
 *  - Eq. 11 for 3D stacks with a dense through-stack via grid at
 *    the minimum pitch of the selected bond type.
 *
 * Communication overheads follow Sec. III-D(2): PHY macros are
 * added to the chiplets for RDL/EMIB; NoC routers are added to the
 * chiplets for passive interposers and 3D (advanced node, small),
 * or to the interposer itself for active interposers (legacy node,
 * larger).
 */
class PackageModel
{
  public:
    /**
     * @param tech Technology database (must outlive the model).
     * @param mfg Manufacturing model used to charge added
     *        communication area at chiplet nodes.
     * @param params Packaging knobs.
     */
    PackageModel(const TechDb &tech, const ManufacturingModel &mfg,
                 PackageParams params = PackageParams());

    /** Parameters in use. */
    const PackageParams &params() const { return params_; }

    /**
     * Evaluate all HI overheads for a system.
     *
     * Monolithic systems (one die) have no HI overhead and return a
     * zero result, matching the paper's monolithic baselines.
     *
     * @param system Chiplet-based system description.
     */
    HiResult evaluate(const SystemSpec &system) const;

    /**
     * The floorplan the evaluation is based on (also useful for
     * callers that want placements/adjacencies).
     */
    FloorplanResult floorplan(const SystemSpec &system) const;

    /**
     * Communication silicon added to one chiplet at @p node_nm: a
     * PHY on RDL and bridge packages, a NoC router on passive
     * interposers and 3D stacks. Active interposers add none to
     * the chiplets (see interposerComm()).
     */
    CommOverhead chipletComm(double node_nm) const;

    /** The routers of @p chiplets chiplets in an active interposer. */
    CommOverhead interposerComm(std::size_t chiplets) const;

    /**
     * The communication IP of a @p chiplets-die system whose first
     * chiplet is at @p lead_node_nm (commIp()).
     */
    CommIp commIp(std::size_t chiplets, double lead_node_nm) const;

  private:
    /** Eq. 9-style per-layer patterning carbon over an area. */
    double layeredPatterningCo2Kg(int layers,
                                  double epla_kwh_per_cm2,
                                  double area_mm2,
                                  double yield) const;

    /** Organic base substrate of bridge/interposer packages. */
    double baseSubstrateCo2Kg(double area_mm2) const;

    /**
     * Extra chiplet manufacturing carbon from adding
     * @p added_area_mm2 of communication silicon to a chiplet
     * (captures the yield degradation of the grown die).
     */
    double addedAreaCo2Kg(const Chiplet &chiplet,
                          double added_area_mm2) const;

    void evaluateRdl(double area_mm2, HiResult &out) const;
    void evaluateBridge(const SystemSpec &system,
                        const FloorplanResult &fp,
                        HiResult &out) const;
    void evaluateInterposer(const SystemSpec &system,
                            double area_mm2, bool active,
                            HiResult &out) const;

    /** Per-chiplet PHY or router overhead (all but active). */
    void addChipletCommOverheads(const SystemSpec &system,
                                 HiResult &out) const;

    const TechDb *tech_;
    const ManufacturingModel *mfg_;
    YieldModel yieldModel_;
    PackageParams params_;
    RouterModel router_;
    PhyModel phy_;
};

} // namespace ecochip

#endif // ECOCHIP_PACKAGE_PACKAGE_MODEL_H
