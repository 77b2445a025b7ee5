#include "kernels/batch_evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "design/design_model.h"
#include "manufacture/mfg_model.h"
#include "manufacture/nre_model.h"
#include "noc/router_model.h"
#include "operation/operational_model.h"
#include "package/package_model.h"
#include "support/error.h"
#include "support/units.h"
#include "yield/yield_model.h"

namespace ecochip {

namespace {

/** Resample a node accessor at the standard anchors. */
PiecewiseLinear
resampledTable(const TechDb &tech, double (TechDb::*accessor)(double) const)
{
    std::vector<std::pair<double, double>> points;
    for (double node : TechDb::standardNodesNm())
        points.emplace_back(node, (tech.*accessor)(node));
    return PiecewiseLinear(points);
}

} // namespace

BatchEvaluator::BatchEvaluator(const EcoChipConfig &config,
                               const TechDb &tech,
                               const SystemSpec &system)
    : yieldKind_(config.yieldModel), arch_(config.package.arch)
{
    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");

    alpha_ = tech.clusteringAlpha();

    // Resampled base tables at the standard node anchors: a trial
    // that rebuilds a table with scale s evaluates exactly
    // (s*yLo) + t*((s*yHi) - (s*yLo)) on these knots.
    const PiecewiseLinear d0_resampled =
        resampledTable(tech, &TechDb::defectDensityPerCm2);
    const PiecewiseLinear epa_resampled =
        resampledTable(tech, &TechDb::epaKwhPerCm2);

    auto d0Lookup = [&](double node_nm) {
        const PiecewiseLinear::Segment seg =
            d0_resampled.segment(node_nm);
        return ScaledLookup{tech.defectDensityPerCm2(node_nm),
                            seg.yLo, seg.yHi, seg.t};
    };
    auto epaLookup = [&](double node_nm) {
        const PiecewiseLinear::Segment seg =
            epa_resampled.segment(node_nm);
        return ScaledLookup{tech.epaKwhPerCm2(node_nm), seg.yLo,
                            seg.yHi, seg.t};
    };

    // --- Manufacturing (same model-construction order and
    // validations as EcoChip::estimate). ---
    ManufacturingModel mfgModel(tech, config.wafer,
                                config.fabIntensityGPerKwh,
                                config.yieldModel);
    mfgModel.setIncludeWastage(config.includeWastage);

    auto makeDieTerm = [&](double area_mm2, double node_nm) {
        // Runs the scalar validations (positive area, wafer fit)
        // and yields the invariant wastage term.
        const MfgBreakdown base =
            mfgModel.dieMfg(area_mm2, node_nm);
        DieTerm term;
        term.areaMm2 = area_mm2;
        term.areaCm2 = area_mm2 * units::kCm2PerMm2;
        term.derate = tech.equipmentDerate(node_nm);
        term.cgas = tech.cgasKgPerCm2(node_nm);
        term.cmaterial = tech.cmaterialKgPerCm2(node_nm);
        term.wastedCo2Kg = base.wastedCo2Kg;
        term.d0 = d0Lookup(node_nm);
        term.epa = epaLookup(node_nm);
        return term;
    };

    if (system.singleDie) {
        double area_mm2 = 0.0;
        for (const auto &block : system.chiplets)
            area_mm2 += block.areaMm2(tech);
        mfgDies_.push_back(internDie(
            makeDieTerm(area_mm2, system.monolithicNodeNm())));
    } else {
        for (const auto &chiplet : system.chiplets)
            mfgDies_.push_back(internDie(makeDieTerm(
                chiplet.areaMm2(tech), chiplet.nodeNm)));
    }

    // --- Packaging. ---
    PackageModel pkgModel(tech, mfgModel, config.package);
    const PackageParams &pp = config.package;
    monolithic_ = system.isMonolithic();
    RouterModel router(tech, pp.router);
    PhyModel phy(tech, pp.router.flitWidthBits);
    double noc_power_w = 0.0;

    auto makePat = [&](int layers, double epla_kwh_per_cm2,
                       double area_mm2, double d0_derate,
                       double node_nm) {
        PatterningTerm pat;
        pat.areaCm2 = area_mm2 * units::kCm2PerMm2;
        pat.energyKwh =
            layers * epla_kwh_per_cm2 * pat.areaCm2;
        pat.d0Derate = d0_derate;
        pat.d0 = d0Lookup(node_nm);
        return pat;
    };
    auto makeSubstrate = [&](double area_mm2) {
        return makePat(pp.substrateBaseLayers,
                       tech.eplaRdlKwhPerCm2(pp.rdlNodeNm),
                       area_mm2, tech.rdlDefectDerate(),
                       pp.rdlNodeNm);
    };
    auto makeBond = [&](double footprint_mm2, int nt) {
        const double pitch_um = pp.bondPitchUm();
        const double vias = std::floor(
            footprint_mm2 * units::kUm2PerMm2 /
            (pitch_um * pitch_um));
        const double bond_events = vias * (nt - 1);
        BondTerm bond;
        bond.yield =
            bondArrayYield(bond_events,
                           pp.bondFailProbability()) *
            std::pow(pp.tierAssemblyYield, nt - 1);
        bond.energyKwh = vias * pp.bondEnergyFactor() *
                         tech.energyPerTsvKwh(
                             pp.bondProcessNodeNm);
        return bond;
    };
    auto addCommTerms = [&](bool use_phy) {
        const double bit_rate_hz =
            pp.nocFlitRateHz * pp.router.flitWidthBits;
        for (std::size_t i = 0; i < system.chiplets.size();
             ++i) {
            const Chiplet &chiplet = system.chiplets[i];
            const double added_mm2 =
                use_phy ? phy.areaMm2(chiplet.nodeNm)
                        : router.areaMm2(chiplet.nodeNm);
            if (added_mm2 > 0.0)
                commTerms_.push_back(
                    {mfgDies_[i],
                     internDie(makeDieTerm(
                         chiplet.areaMm2(tech) + added_mm2,
                         chiplet.nodeNm))});
            noc_power_w +=
                use_phy
                    ? phy.powerW(chiplet.nodeNm, bit_rate_hz)
                    : router.powerW(chiplet.nodeNm,
                                    pp.nocFlitRateHz);
        }
    };

    if (!monolithic_) {
        if (arch_ == PackagingArch::Stack3d) {
            double footprint_mm2 = 0.0;
            for (const auto &chiplet : system.chiplets)
                footprint_mm2 = std::max(
                    footprint_mm2, chiplet.areaMm2(tech));
            mainBond_ = makeBond(
                footprint_mm2,
                static_cast<int>(system.chiplets.size()));
            substratePat_ = makeSubstrate(footprint_mm2);
            hasSubstrate_ = true;
            addCommTerms(false);
        } else {
            const FloorplanResult fp =
                pkgModel.floorplan(system);
            const double pkg_area_mm2 = fp.areaMm2();
            switch (arch_) {
              case PackagingArch::RdlFanout:
                archPat_ = makePat(
                    pp.rdlLayers,
                    tech.eplaRdlKwhPerCm2(pp.rdlNodeNm),
                    pkg_area_mm2, tech.rdlDefectDerate(),
                    pp.rdlNodeNm);
                addCommTerms(true);
                break;
              case PackagingArch::SiliconBridge: {
                int bridges = 0;
                for (const auto &adj : fp.adjacencies) {
                    bridges += std::max(
                        1, static_cast<int>(std::ceil(
                               adj.overlapMm /
                               pp.bridgeRangeMm)));
                }
                bridges = std::max(
                    bridges,
                    static_cast<int>(system.chiplets.size()) -
                        1);
                bridges_ = bridges;
                archPat_ = makePat(
                    pp.bridgeLayers,
                    tech.eplaBridgeKwhPerCm2(pp.bridgeNodeNm),
                    pp.bridgeAreaMm2, 1.0, pp.bridgeNodeNm);
                embedYield_ =
                    std::pow(pp.bridgeEmbedYield, bridges);
                substratePat_ = makeSubstrate(pkg_area_mm2);
                hasSubstrate_ = true;
                addCommTerms(true);
                break;
              }
              case PackagingArch::PassiveInterposer:
              case PackagingArch::ActiveInterposer: {
                const bool active =
                    arch_ == PackagingArch::ActiveInterposer;
                const double node = pp.interposerNodeNm;
                archPat_ = makePat(
                    pp.interposerBeolLayers,
                    tech.eplaInterposerKwhPerCm2(node),
                    pkg_area_mm2,
                    active ? 1.0
                           : tech.interposerDefectDerate(),
                    node);
                const double wasted_mm2 =
                    mfgModel.includeWastage()
                        ? config.wafer.wastedAreaPerDieMm2(
                              pkg_area_mm2)
                        : 0.0;
                wastageCo2Kg_ = tech.cfpaSiKgPerCm2(node) *
                                wasted_mm2 *
                                units::kCm2PerMm2;
                substratePat_ = makeSubstrate(pkg_area_mm2);
                hasSubstrate_ = true;
                if (active) {
                    feolDerate_ = tech.equipmentDerate(node);
                    feolCgas_ = tech.cgasKgPerCm2(node);
                    feolCmaterial_ =
                        tech.cmaterialKgPerCm2(node);
                    feolEpa_ = epaLookup(node);
                    routerAreaMm2_ =
                        router.areaMm2(node) *
                        static_cast<double>(
                            system.chiplets.size());
                    repeaterAreaMm2_ =
                        pp.repeaterAreaFraction *
                        pkg_area_mm2;
                    noc_power_w =
                        router.powerW(node,
                                      pp.nocFlitRateHz) *
                        static_cast<double>(
                            system.chiplets.size());
                } else {
                    addCommTerms(false);
                }
                break;
              }
              case PackagingArch::Stack3d:
                // Handled before the floorplan branch.
                break;
            }

            // Mixed 2.5D/3D stack groups, first-appearance
            // order (matches PackageModel::evaluate).
            std::vector<std::string> groups;
            for (const auto &chiplet : system.chiplets) {
                if (chiplet.stackGroup.empty())
                    continue;
                bool seen = false;
                for (const auto &group : groups)
                    seen |= group == chiplet.stackGroup;
                if (!seen)
                    groups.push_back(chiplet.stackGroup);
            }
            for (const auto &group : groups) {
                int tiers = 0;
                double footprint_mm2 = 0.0;
                for (const auto &chiplet : system.chiplets) {
                    if (chiplet.stackGroup != group)
                        continue;
                    ++tiers;
                    footprint_mm2 = std::max(
                        footprint_mm2,
                        chiplet.areaMm2(tech));
                }
                if (tiers < 2)
                    requireConfig(false,
                                  "stack group \"" + group +
                                      "\" needs at least two tiers");
                stackBonds_.push_back(
                    makeBond(footprint_mm2, tiers));
            }
        }
    }

    // --- Intensities the trial scales multiply. ---
    fabIntensityBase_ = config.fabIntensityGPerKwh;
    pkgIntensityBase_ = pp.intensityGPerKwh;
    designIntensityBase_ = config.design.intensityGPerKwh;

    // --- Design (Eqs. 12-13). ---
    DesignModel designModel(tech, config.design);
    sprBase_ = config.design.sprHoursPerMgate;
    designIterBase_ =
        static_cast<double>(config.design.designIterations);
    analyzeFraction_ = config.design.analyzeFraction;
    verifMultiple_ = config.design.verifMultiple;
    pdesW_ = config.design.pdesW;
    chipletVolumeBase_ = config.design.chipletVolume;
    systemVolume_ = config.design.systemVolume;
    for (const auto &chiplet : system.chiplets) {
        if (chiplet.reused)
            continue;
        designTerms_.push_back(
            {chiplet.transistorsMtr *
                 config.design.gatesPerTransistor,
             designModel.edaProductivityFit(chiplet.nodeNm)});
    }
    double comm_mtr = 0.0;
    double comm_node_nm = pp.interposerNodeNm;
    if (!system.isMonolithic()) {
        const double nc =
            static_cast<double>(system.chiplets.size());
        switch (arch_) {
          case PackagingArch::RdlFanout:
          case PackagingArch::SiliconBridge:
            comm_mtr = phy.transistorsMtr() * nc;
            comm_node_nm = system.chiplets.front().nodeNm;
            break;
          case PackagingArch::PassiveInterposer:
          case PackagingArch::Stack3d:
            comm_mtr = router.transistorsMtr() * nc;
            comm_node_nm = system.chiplets.front().nodeNm;
            break;
          case PackagingArch::ActiveInterposer:
            comm_mtr = router.transistorsMtr() * nc;
            comm_node_nm = pp.interposerNodeNm;
            break;
        }
    }
    hasComm_ = comm_mtr > 0.0;
    if (hasComm_) {
        commGates_ =
            comm_mtr * config.design.gatesPerTransistor;
        commEtaC_ = designModel.edaProductivityFit(comm_node_nm);
    }

    // --- Mask-set NRE. ---
    includeNre_ = config.includeMaskNre;
    if (includeNre_) {
        NreCarbonModel nreModel(tech,
                                config.fabIntensityGPerKwh,
                                config.design.chipletVolume);
        static_cast<void>(nreModel);
        if (system.singleDie) {
            maskSetEnergiesKwh_.push_back(
                tech.maskSetEnergyKwh(
                    system.monolithicNodeNm()));
        } else {
            for (const auto &chiplet : system.chiplets)
                if (!chiplet.reused)
                    maskSetEnergiesKwh_.push_back(
                        tech.maskSetEnergyKwh(
                            chiplet.nodeNm));
        }
    }

    // --- Operation (Eq. 14). ---
    OperationalModel opModel(tech, config.operating);
    const OperatingSpec &os = config.operating;
    annualPath_ = os.annualEnergyKwh.has_value();
    extraPowerW_ = noc_power_w;
    if (annualPath_)
        annualEnergyKwh_ = *os.annualEnergyKwh;
    else
        avgPowerBaseW_ =
            opModel.systemPowerW(system, noc_power_w);
    lifetimeBase_ = os.lifetimeYears;
    dutyCycleBase_ = os.dutyCycle;
    useIntensity_ = os.useIntensityGPerKwh;
}

double
BatchEvaluator::dieTotalCo2Kg(const DieTerm &term, double s_d0,
                              bool rebuild_d0, double s_epa,
                              bool rebuild_epa,
                              double fab_t) const
{
    const double d0 = term.d0.eval(s_d0, rebuild_d0);
    const double yield =
        dieYieldFast(yieldKind_, term.areaCm2, d0, alpha_);
    const double energy = term.derate * fab_t *
                          units::kKgPerG *
                          term.epa.eval(s_epa, rebuild_epa);
    const double cfpa =
        (energy + term.cgas + term.cmaterial) / yield;
    return cfpa * term.areaMm2 * units::kCm2PerMm2 +
           term.wastedCo2Kg;
}

std::size_t
BatchEvaluator::internDie(const DieTerm &term)
{
    // Bitwise equality: two terms share an entry only if every
    // trial evaluates them to the same bits. No padding, so
    // memcmp sees exactly the fields.
    static_assert(std::is_trivially_copyable_v<DieTerm>);
    static_assert(sizeof(DieTerm) == 14 * sizeof(double));
    for (std::size_t k = 0; k < dies_.size(); ++k)
        if (std::memcmp(&dies_[k], &term, sizeof term) == 0)
            return k;
    dies_.push_back(term);
    return dies_.size() - 1;
}

namespace {

double
patterningYield(const double area_cm2, const double d0,
                const double alpha)
{
    return negativeBinomialYieldFast(area_cm2, d0, alpha);
}

} // namespace

void
BatchEvaluator::evaluateRange(const TrialBatch &batch,
                              std::size_t begin, std::size_t end,
                              double *embodied,
                              double *operational,
                              double *total) const
{
    // Carbon of each distinct die: computed once per trial,
    // consumed by both the mfg sum and the comm-growth deltas
    // (the scalar path computes every copy, some of them twice).
    std::vector<double> die(dies_.size());

    for (std::size_t i = begin; i < end; ++i) {
        const double s_d0 = batch.defectDensityScale[i];
        const bool rb_d0 = batch.rebuildDefectDensity[i] != 0;
        const double s_epa = batch.epaScale[i];
        const bool rb_epa = batch.rebuildEpa[i] != 0;
        const double fab_t =
            fabIntensityBase_ * batch.fabIntensityScale[i];
        const double pkg_t =
            pkgIntensityBase_ * batch.packageIntensityScale[i];
        const double des_t =
            designIntensityBase_ *
            batch.designIntensityScale[i];
        const double spr_t =
            sprBase_ * batch.sprHoursScale[i];
        const double iters =
            batch.designIterations[i] != 0.0
                ? batch.designIterations[i]
                : designIterBase_;
        const double vol_t =
            chipletVolumeBase_ * batch.chipletVolumeScale[i];
        if (vol_t < 1.0)
            throw ConfigError(
                "chiplet volume must be at least 1");
        const double life_t =
            lifetimeBase_ * batch.lifetimeScale[i];
        const double duty_t = std::min(
            1.0, dutyCycleBase_ * batch.dutyCycleScale[i]);

        // Manufacturing (Eqs. 4-6).
        for (std::size_t k = 0; k < dies_.size(); ++k)
            die[k] = dieTotalCo2Kg(dies_[k], s_d0, rb_d0, s_epa,
                                   rb_epa, fab_t);
        double mfg_co2 = 0.0;
        for (const std::size_t k : mfgDies_)
            mfg_co2 += die[k];

        // Packaging (Sec. III-D).
        double package_co2 = 0.0;
        double routing_co2 = 0.0;
        if (!monolithic_) {
            switch (arch_) {
              case PackagingArch::RdlFanout: {
                const double yield = patterningYield(
                    archPat_.areaCm2,
                    archPat_.d0Derate *
                        archPat_.d0.eval(s_d0, rb_d0),
                    alpha_);
                package_co2 = pkg_t * archPat_.energyKwh *
                              units::kKgPerG / yield;
                break;
              }
              case PackagingArch::SiliconBridge: {
                const double bridge_yield = patterningYield(
                    archPat_.areaCm2,
                    archPat_.d0Derate *
                        archPat_.d0.eval(s_d0, rb_d0),
                    alpha_);
                const double per_bridge =
                    pkg_t * archPat_.energyKwh *
                    units::kKgPerG / bridge_yield;
                const double substrate_yield =
                    patterningYield(
                        substratePat_.areaCm2,
                        substratePat_.d0Derate *
                            substratePat_.d0.eval(s_d0, rb_d0),
                        alpha_);
                const double substrate =
                    pkg_t * substratePat_.energyKwh *
                    units::kKgPerG / substrate_yield;
                package_co2 =
                    (substrate + bridges_ * per_bridge) /
                    embedYield_;
                break;
              }
              case PackagingArch::PassiveInterposer:
              case PackagingArch::ActiveInterposer: {
                const double beol_yield = patterningYield(
                    archPat_.areaCm2,
                    archPat_.d0Derate *
                        archPat_.d0.eval(s_d0, rb_d0),
                    alpha_);
                const double beol = pkg_t *
                                    archPat_.energyKwh *
                                    units::kKgPerG /
                                    beol_yield;
                const double substrate_yield =
                    patterningYield(
                        substratePat_.areaCm2,
                        substratePat_.d0Derate *
                            substratePat_.d0.eval(s_d0, rb_d0),
                        alpha_);
                const double substrate =
                    pkg_t * substratePat_.energyKwh *
                    units::kKgPerG / substrate_yield;
                package_co2 =
                    beol + wastageCo2Kg_ + substrate;
                if (arch_ ==
                    PackagingArch::ActiveInterposer) {
                    const double feol_energy =
                        feolDerate_ * fab_t *
                        units::kKgPerG *
                        feolEpa_.eval(s_epa, rb_epa);
                    const double feol_cfpa =
                        (feol_energy + feolCgas_ +
                         feolCmaterial_) /
                        beol_yield;
                    routing_co2 = feol_cfpa *
                                  routerAreaMm2_ *
                                  units::kCm2PerMm2;
                    package_co2 += feol_cfpa *
                                   repeaterAreaMm2_ *
                                   units::kCm2PerMm2;
                }
                break;
              }
              case PackagingArch::Stack3d: {
                const double bonds =
                    pkg_t * mainBond_.energyKwh *
                    units::kKgPerG / mainBond_.yield;
                const double substrate_yield =
                    patterningYield(
                        substratePat_.areaCm2,
                        substratePat_.d0Derate *
                            substratePat_.d0.eval(s_d0, rb_d0),
                        alpha_);
                const double substrate =
                    pkg_t * substratePat_.energyKwh *
                    units::kKgPerG / substrate_yield;
                package_co2 = bonds + substrate;
                break;
              }
            }

            for (const auto &comm : commTerms_)
                routing_co2 +=
                    die[comm.grownDie] - die[comm.bareDie];

            if (!stackBonds_.empty()) {
                double stack_co2 = 0.0;
                for (const auto &bond : stackBonds_)
                    stack_co2 += pkg_t * bond.energyKwh *
                                 units::kKgPerG / bond.yield;
                package_co2 += stack_co2;
            }
        }
        const double hi_co2 = package_co2 + routing_co2;

        // Design (Eqs. 12-13).
        double design_co2 = 0.0;
        for (const auto &term : designTerms_) {
            const double spr = spr_t * term.gates;
            const double analyze = analyzeFraction_ * spr;
            const double iterative =
                (spr + analyze) * iters / term.etaC;
            const double hours =
                verifMultiple_ * iterative + iterative;
            const double energy =
                hours * pdesW_ * units::kKwhPerWh;
            const double co2 =
                des_t * energy * units::kKgPerG;
            design_co2 += co2 / vol_t;
        }
        if (hasComm_) {
            const double spr = spr_t * commGates_;
            const double analyze = analyzeFraction_ * spr;
            const double iterative =
                (spr + analyze) * iters / commEtaC_;
            const double hours =
                verifMultiple_ * iterative + iterative;
            const double energy =
                hours * pdesW_ * units::kKwhPerWh;
            const double comm_co2 =
                des_t * energy * units::kKgPerG;
            design_co2 += comm_co2 / systemVolume_;
        }

        // Mask-set NRE (Sec. V-C extension).
        double nre_co2 = 0.0;
        for (const double energy_kwh : maskSetEnergiesKwh_)
            nre_co2 += fab_t * energy_kwh * units::kKgPerG /
                       vol_t;

        // Operation (Eq. 14 / battery-rating path).
        double op_co2;
        if (annualPath_) {
            const double on_hours_per_year =
                duty_t * units::kHoursPerYear;
            const double extra_kwh_per_year =
                extraPowerW_ * on_hours_per_year *
                units::kKwhPerWh;
            const double lifetime_kwh =
                (annualEnergyKwh_ + extra_kwh_per_year) *
                life_t;
            op_co2 = useIntensity_ * lifetime_kwh *
                     units::kKgPerG;
        } else {
            const double on_hours = life_t *
                                    units::kHoursPerYear *
                                    duty_t;
            const double lifetime_kwh = avgPowerBaseW_ *
                                        on_hours *
                                        units::kKwhPerWh;
            op_co2 = useIntensity_ * lifetime_kwh *
                     units::kKgPerG;
        }

        const double embodied_co2 =
            mfg_co2 + hi_co2 + design_co2 + nre_co2;
        embodied[i] = embodied_co2;
        operational[i] = op_co2;
        total[i] = embodied_co2 + op_co2;
    }
}

} // namespace ecochip
