#include "kernels/batch_evaluator.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "kernels/plan_models.h"
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

    // --- Packaging (after the dies, as in EcoChip::estimate). ---
    const PlanModels models(config, tech, system, mfgModel);
    const PackageParams &pp = config.package;
    monolithic_ = system.isMonolithic();
    double noc_power_w = 0.0;

    auto makePat = [&](int layers, double epla_kwh_per_cm2,
                       double area_mm2, double d0_derate,
                       double node_nm) {
        PatterningTerm pat;
        pat.areaCm2 = area_mm2 * units::kCm2PerMm2;
        pat.energyKwh =
            patterningEnergyKwh(layers, epla_kwh_per_cm2, pat.areaCm2);
        pat.d0Derate = d0_derate;
        pat.d0 = d0Lookup(node_nm);
        return pat;
    };

    if (!monolithic_) {
        const std::size_t n = system.chiplets.size();
        auto area_of = [&](std::size_t i) {
            return system.chiplets[i].areaMm2(tech);
        };
        FloorplanResult fp;
        if (arch_ == PackagingArch::Stack3d) {
            pkgAreaMm2_ = footprintMm2(models.stacks.front(), area_of);
        } else {
            fp = models.package.floorplan(system);
            pkgAreaMm2_ = fp.areaMm2();
        }
        switch (arch_) {
          case PackagingArch::RdlFanout:
            archPat_ = makePat(pp.rdlLayers,
                               tech.eplaRdlKwhPerCm2(pp.rdlNodeNm),
                               pkgAreaMm2_, tech.rdlDefectDerate(),
                               pp.rdlNodeNm);
            break;
          case PackagingArch::SiliconBridge:
            bridges_ =
                bridgeCount(fp.adjacencies, pp.bridgeRangeMm, n);
            archPat_ = makePat(
                pp.bridgeLayers,
                tech.eplaBridgeKwhPerCm2(pp.bridgeNodeNm),
                pp.bridgeAreaMm2, 1.0, pp.bridgeNodeNm);
            embedYield_ =
                bridgeEmbedYield(pp.bridgeEmbedYield, bridges_);
            break;
          case PackagingArch::PassiveInterposer:
          case PackagingArch::ActiveInterposer: {
            const bool active =
                arch_ == PackagingArch::ActiveInterposer;
            const double node = pp.interposerNodeNm;
            archPat_ = makePat(
                pp.interposerBeolLayers,
                tech.eplaInterposerKwhPerCm2(node), pkgAreaMm2_,
                active ? 1.0 : tech.interposerDefectDerate(), node);
            wastageCo2Kg_ = wastageCo2Kg(
                tech.cfpaSiKgPerCm2(node),
                mfgModel.includeWastage()
                    ? mfgModel.wafer().wastedAreaPerDieMm2(
                          pkgAreaMm2_)
                    : 0.0);
            if (active) {
                feolDerate_ = tech.equipmentDerate(node);
                feolCgas_ = tech.cgasKgPerCm2(node);
                feolCmaterial_ = tech.cmaterialKgPerCm2(node);
                feolEpa_ = epaLookup(node);
                const CommOverhead comm =
                    models.package.interposerComm(n);
                routerAreaMm2_ = comm.areaMm2;
                repeaterFraction_ = pp.repeaterAreaFraction;
                noc_power_w = comm.powerW;
            }
            break;
          }
          case PackagingArch::Stack3d:
            break;
        }
        if (arch_ != PackagingArch::RdlFanout)
            substratePat_ = makePat(
                pp.substrateBaseLayers,
                tech.eplaRdlKwhPerCm2(pp.rdlNodeNm), pkgAreaMm2_,
                tech.rdlDefectDerate(), pp.rdlNodeNm);
        if (arch_ != PackagingArch::ActiveInterposer) {
            for (std::size_t i = 0; i < n; ++i) {
                const Chiplet &chiplet = system.chiplets[i];
                const CommOverhead comm =
                    models.package.chipletComm(chiplet.nodeNm);
                if (comm.areaMm2 > 0.0)
                    commTerms_.push_back(
                        {mfgDies_[i],
                         internDie(makeDieTerm(
                             area_of(i) + comm.areaMm2,
                             chiplet.nodeNm))});
                noc_power_w += comm.powerW;
            }
        }
        for (const PlanarUnit &stack : models.stacks)
            stackBonds_.push_back(stackBond(
                footprintMm2(stack, area_of),
                static_cast<int>(stack.members.size()),
                models.bond));
    }

    // --- Intensities the trial scales multiply. ---
    fabIntensityBase_ = config.fabIntensityGPerKwh;
    pkgIntensityBase_ = pp.intensityGPerKwh;
    designIntensityBase_ = config.design.intensityGPerKwh;

    // --- Design (Eqs. 12-13). ---
    effortBase_ = {config.design.sprHoursPerMgate,
                   config.design.analyzeFraction,
                   static_cast<double>(config.design.designIterations),
                   config.design.verifMultiple};
    pdesW_ = config.design.pdesW;
    chipletVolumeBase_ = config.design.chipletVolume;
    systemVolume_ = config.design.systemVolume;
    for (const auto &chiplet : system.chiplets) {
        if (chiplet.reused)
            continue;
        designTerms_.push_back(
            {chiplet.transistorsMtr *
                 config.design.gatesPerTransistor,
             models.design.edaProductivityFit(chiplet.nodeNm)});
    }
    const CommIp comm =
        monolithic_ ? CommIp{}
                    : models.package.commIp(
                          system.chiplets.size(),
                          system.chiplets.front().nodeNm);
    hasComm_ = comm.transistorsMtr > 0.0;
    if (hasComm_) {
        commGates_ =
            comm.transistorsMtr * config.design.gatesPerTransistor;
        commEtaC_ = models.design.edaProductivityFit(comm.nodeNm);
    }

    // --- Mask-set NRE. ---
    includeNre_ = config.includeMaskNre;
    if (includeNre_) {
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
    const OperatingSpec &os = config.operating;
    annualPath_ = os.annualEnergyKwh.has_value();
    extraPowerW_ = noc_power_w;
    if (annualPath_)
        annualEnergyKwh_ = *os.annualEnergyKwh;
    else
        avgPowerBaseW_ =
            models.operation.systemPowerW(system, noc_power_w);
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
    const double cfpa =
        grossCfpaKgPerCm2(term.derate, fab_t,
                          term.epa.eval(s_epa, rebuild_epa),
                          term.cgas, term.cmaterial) /
        yield;
    return cfpa * term.areaMm2 * units::kCm2PerMm2 +
           term.wastedCo2Kg;
}

double
BatchEvaluator::patterningYield(const PatterningTerm &pat,
                                double s_d0, bool rebuild_d0) const
{
    return negativeBinomialYieldFast(
        pat.areaCm2, pat.d0Derate * pat.d0.eval(s_d0, rebuild_d0),
        alpha_);
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
        DesignEffort effort = effortBase_;
        effort.sprHoursPerMgate *= batch.sprHoursScale[i];
        if (batch.designIterations[i] != 0.0)
            effort.iterations = batch.designIterations[i];
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
            auto patterning = [&](const PatterningTerm &pat,
                                  double yield) {
                return packagingCo2Kg(pkg_t, pat.energyKwh, yield);
            };
            auto substrate = [&] {
                return patterning(
                    substratePat_,
                    patterningYield(substratePat_, s_d0, rb_d0));
            };
            switch (arch_) {
              case PackagingArch::RdlFanout:
                package_co2 = patterning(
                    archPat_, patterningYield(archPat_, s_d0, rb_d0));
                break;
              case PackagingArch::SiliconBridge:
                package_co2 = bridgePackageCo2Kg(
                    substrate(), bridges_,
                    patterning(archPat_,
                               patterningYield(archPat_, s_d0, rb_d0)),
                    embedYield_);
                break;
              case PackagingArch::PassiveInterposer:
              case PackagingArch::ActiveInterposer: {
                const double beol_yield =
                    patterningYield(archPat_, s_d0, rb_d0);
                package_co2 = patterning(archPat_, beol_yield) +
                              wastageCo2Kg_ + substrate();
                if (arch_ == PackagingArch::ActiveInterposer) {
                    const ActiveFeol feol = activeFeolCo2Kg(
                        grossCfpaKgPerCm2(
                            feolDerate_, fab_t,
                            feolEpa_.eval(s_epa, rb_epa), feolCgas_,
                            feolCmaterial_),
                        beol_yield, routerAreaMm2_,
                        repeaterFraction_, pkgAreaMm2_);
                    routing_co2 = feol.routerCo2Kg;
                    package_co2 += feol.repeaterCo2Kg;
                }
                break;
              }
              case PackagingArch::Stack3d:
                package_co2 = substrate();
                break;
            }

            for (const auto &comm : commTerms_)
                routing_co2 +=
                    die[comm.grownDie] - die[comm.bareDie];

            if (!stackBonds_.empty()) {
                double stack_co2 = 0.0;
                for (const StackBond &bond : stackBonds_)
                    stack_co2 += packagingCo2Kg(
                        pkg_t, bond.energyKwh, bond.yield);
                package_co2 += stack_co2;
            }
        }
        const double hi_co2 = package_co2 + routing_co2;

        // Design (Eqs. 12-13).
        double design_co2 = 0.0;
        for (const auto &term : designTerms_)
            design_co2 +=
                designCo2Kg(designHours(effort, term.gates,
                                        term.etaC),
                            pdesW_, des_t) /
                vol_t;
        if (hasComm_)
            design_co2 +=
                designCo2Kg(designHours(effort, commGates_,
                                        commEtaC_),
                            pdesW_, des_t) /
                systemVolume_;

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
