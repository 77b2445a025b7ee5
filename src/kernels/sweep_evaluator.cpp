#include "kernels/sweep_evaluator.h"

#include <cstring>
#include <utility>

#include "floorplan/floorplan.h"
#include "kernels/plan_models.h"
#include "support/error.h"
#include "support/units.h"
#include "wafer/wafer_model.h"
#include "yield/yield_model.h"

namespace ecochip {

namespace {

/**
 * Process-wide floorplan memo. A floorplan is a pure function of
 * (spacing, ordered box list); it does not depend on the technology
 * database or configuration, so entries can outlive any single
 * estimator's evaluation cache.
 */
MemoTable<FloorplanResult> &
floorplanMemo()
{
    static MemoTable<FloorplanResult> memo;
    return memo;
}

/** Append a double's raw IEEE-754 bytes (CacheKey layout). */
void
appendRaw(std::string &buf, double v)
{
    char raw[sizeof(double)];
    std::memcpy(raw, &v, sizeof(double));
    buf.append(raw, sizeof(double));
}

/** Append a length-prefixed string (CacheKey layout). */
void
appendRaw(std::string &buf, const std::string &s)
{
    const int size = static_cast<int>(s.size());
    char raw[sizeof(int)];
    std::memcpy(raw, &size, sizeof(int));
    buf.append(raw, sizeof(int));
    buf.append(s);
}

} // namespace

/**
 * Reusable per-sweep buffers. Every point needs a report key, a
 * floorplan key, and a box list; keeping them in one scratch
 * object reused across the whole sweep makes the per-point loop
 * allocation-free once the buffers reach steady-state capacity.
 */
struct SweepEvaluator::Scratch
{
    std::string reportKey;
    std::string floorplanKey;
    std::vector<ChipletBox> boxes;
};

/** Compiled sweep plan: everything invariant across points. */
struct SweepEvaluator::Plan
{
    /** cand[i][j]: chiplet i at its j-th candidate node. */
    std::vector<std::vector<Candidate>> cand;

    /** Node-independent report-key prefix (reportKeyPrefix()). */
    std::string reportPrefix;

    std::vector<std::string> names;
    std::vector<char> reused;

    PackagingArch arch = PackagingArch::RdlFanout;
    double alpha = 0.0;
    double pkgIntensity = 0.0;
    double spacingMm = 0.0;

    // Layered patterning at the fixed packaging nodes: layer
    // counts, EPLAs and defect densities.
    int archLayers = 0;
    double archEpla = 0.0;
    double archD0 = 0.0;
    int subLayers = 0;
    double subEpla = 0.0;
    double subD0 = 0.0;

    // Silicon bridge: the per-bridge patterning carbon and bridge
    // yield are point-invariant (fixed bridge area and node).
    double bridgeRangeMm = 1.0;
    double bridgeEmbedYield = 1.0;
    double bridgeYield = 1.0;
    double bridgePerCo2Kg = 0.0;

    // Interposers.
    bool includeWastage = false;
    WaferModel wafer;
    double cfpaSiKgPerCm2 = 0.0;
    double grossCfpaKgPerCm2 = 0.0; ///< active FEOL, gross
    CommOverhead interposerComm;    ///< active: all routers
    double repeaterFraction = 0.0;

    /** Floorplan units (planarUnits()); empty for 3D. */
    std::vector<PlanarUnit> units;
    /** Bonded stacks (bondedStacks()) and their invariants. */
    std::vector<PlanarUnit> stacks;
    BondParams bond;

    bool includeNre = false;

    // Operation.
    bool annualPath = false;
    double annualEnergyKwh = 0.0;
    double annualOnHoursPerYear = 0.0;
    double annualAvgPowerBaseW = 0.0;
    double lifetimeYears = 0.0;
    bool powerOverride = false;
    double overridePowerW = 0.0;
    double onHoursLife = 0.0;
    double useIntensity = 0.0;
};

std::shared_ptr<const SweepEvaluator::Plan>
SweepEvaluator::compile(
    const SystemSpec &system,
    const std::vector<std::vector<double>> &candidates_per_chiplet)
    const
{
    // One plan per (system identity, candidate grid); memoized in
    // the estimator's kernel cache so repeated sweeps (DSE loops,
    // benchmarks) skip compilation entirely.
    std::string prefix = EcoChip::reportKeyPrefix(system);
    CacheKey ck;
    ck.tag('K').add(std::string_view(prefix));
    for (const auto &list : candidates_per_chiplet) {
        ck.add(static_cast<int>(list.size()));
        for (double node : list)
            ck.add(node);
    }
    const std::string plan_key = std::move(ck).str();
    {
        std::shared_ptr<const void> hit;
        if (estimator_->cache_->kernel.find(plan_key, hit))
            return std::static_pointer_cast<const Plan>(hit);
    }

    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");

    const EcoChipConfig &config = estimator_->config_;
    const TechDb &tech = estimator_->tech_;
    const PackageParams &pp = config.package;
    const std::size_t n = system.chiplets.size();

    ManufacturingModel mfg(tech, config.wafer,
                           config.fabIntensityGPerKwh,
                           config.yieldModel);
    mfg.setIncludeWastage(config.includeWastage);
    const PlanModels models(config, tech, system, mfg);

    auto plan = std::make_shared<Plan>();
    plan->reportPrefix = std::move(prefix);
    plan->arch = pp.arch;
    plan->alpha = tech.clusteringAlpha();
    plan->pkgIntensity = pp.intensityGPerKwh;
    plan->spacingMm = pp.spacingMm;

    // --- packaging invariants ---------------------------------
    // The organic base substrate under bridge/interposer/3D
    // packages: coarse RDL layers at the fixed RDL node.
    plan->subLayers = pp.substrateBaseLayers;
    plan->subEpla = tech.eplaRdlKwhPerCm2(pp.rdlNodeNm);
    plan->subD0 = tech.rdlDefectDensityPerCm2(pp.rdlNodeNm);
    // Replicate the checked yield call's argument validation once.
    negativeBinomialYield(0.0, plan->subD0, plan->alpha);

    switch (pp.arch) {
      case PackagingArch::RdlFanout:
        plan->archLayers = pp.rdlLayers;
        plan->archEpla = tech.eplaRdlKwhPerCm2(pp.rdlNodeNm);
        plan->archD0 = tech.rdlDefectDensityPerCm2(pp.rdlNodeNm);
        break;
      case PackagingArch::SiliconBridge: {
        plan->bridgeRangeMm = pp.bridgeRangeMm;
        plan->bridgeEmbedYield = pp.bridgeEmbedYield;
        const double bridge_cm2 =
            pp.bridgeAreaMm2 * units::kCm2PerMm2;
        plan->bridgeYield = negativeBinomialYield(
            bridge_cm2,
            tech.bridgeDefectDensityPerCm2(pp.bridgeNodeNm),
            plan->alpha);
        requireModel(plan->bridgeYield > 0.0 &&
                         plan->bridgeYield <= 1.0,
                     "package layer yield out of range");
        plan->bridgePerCo2Kg = packagingCo2Kg(
            pp.intensityGPerKwh,
            patterningEnergyKwh(
                pp.bridgeLayers,
                tech.eplaBridgeKwhPerCm2(pp.bridgeNodeNm),
                bridge_cm2),
            plan->bridgeYield);
        break;
      }
      case PackagingArch::PassiveInterposer:
      case PackagingArch::ActiveInterposer: {
        const double node = pp.interposerNodeNm;
        plan->archLayers = pp.interposerBeolLayers;
        plan->archEpla = tech.eplaInterposerKwhPerCm2(node);
        plan->archD0 =
            pp.arch == PackagingArch::ActiveInterposer
                ? tech.defectDensityPerCm2(node)
                : tech.interposerDefectDensityPerCm2(node);
        negativeBinomialYield(0.0, plan->archD0, plan->alpha);
        plan->includeWastage = mfg.includeWastage();
        plan->wafer = mfg.wafer();
        plan->cfpaSiKgPerCm2 = tech.cfpaSiKgPerCm2(node);
        if (pp.arch == PackagingArch::ActiveInterposer) {
            plan->grossCfpaKgPerCm2 = mfg.grossCfpaKgPerCm2(node);
            plan->interposerComm = models.package.interposerComm(n);
            plan->repeaterFraction = pp.repeaterAreaFraction;
        }
        break;
      }
      case PackagingArch::Stack3d:
        break;
    }
    if (pp.arch != PackagingArch::Stack3d)
        plan->units = planarUnits(system);
    plan->stacks = models.stacks;
    plan->bond = models.bond;

    // --- NRE / operation invariants ---------------------------
    plan->includeNre = config.includeMaskNre;

    const OperatingSpec &os = config.operating;
    plan->lifetimeYears = os.lifetimeYears;
    plan->useIntensity = os.useIntensityGPerKwh;
    if (os.annualEnergyKwh) {
        plan->annualPath = true;
        plan->annualEnergyKwh = *os.annualEnergyKwh;
        plan->annualOnHoursPerYear =
            os.dutyCycle * units::kHoursPerYear;
        plan->annualAvgPowerBaseW = *os.annualEnergyKwh /
                                    units::kKwhPerWh /
                                    plan->annualOnHoursPerYear;
    } else {
        plan->powerOverride = os.avgPowerW.has_value();
        if (plan->powerOverride)
            plan->overridePowerW = *os.avgPowerW;
        plan->onHoursLife = os.lifetimeYears *
                            units::kHoursPerYear * os.dutyCycle;
    }

    // --- per-(chiplet, candidate) terms -----------------------
    const bool chiplet_comm =
        pp.arch != PackagingArch::ActiveInterposer;
    const bool need_powers =
        !plan->annualPath && !plan->powerOverride;

    plan->cand.resize(n);
    plan->names.resize(n);
    plan->reused.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        Chiplet chiplet = system.chiplets[i];
        plan->names[i] = chiplet.name;
        plan->reused[i] = chiplet.reused ? 1 : 0;
        auto &column = plan->cand[i];
        column.reserve(candidates_per_chiplet[i].size());
        for (double node : candidates_per_chiplet[i]) {
            chiplet.nodeNm = node;
            Candidate c;
            c.nodeNm = node;
            const double area = chiplet.areaMm2(tech);
            c.bare = estimator_->cachedDieMfg(mfg, area, node);
            if (chiplet_comm) {
                const CommOverhead comm =
                    models.package.chipletComm(node);
                c.commAreaMm2 = comm.areaMm2;
                c.commPowerW = comm.powerW;
                // Growth delta, exactly like addedAreaCo2Kg: the
                // grown die is never cached in the scalar path.
                if (comm.areaMm2 > 0.0)
                    c.commDeltaCo2Kg =
                        mfg.dieMfg(area + comm.areaMm2, node)
                            .totalCo2Kg() -
                        c.bare.totalCo2Kg();
            }
            if (!chiplet.reused)
                c.designAmortizedCo2Kg =
                    estimator_
                        ->cachedChipletDesign(models.design, chiplet)
                        .amortizedCo2Kg;
            if (need_powers)
                c.chipletPowerW =
                    models.operation.chipletPowerW(chiplet);
            if (plan->includeNre)
                c.nreCo2Kg = models.nre->amortizedCo2Kg(chiplet);
            if (i == 0) {
                const CommIp comm = models.package.commIp(n, node);
                if (comm.transistorsMtr > 0.0)
                    c.commDesignCo2Kg = models.design.commDesignCo2Kg(
                        comm.transistorsMtr, comm.nodeNm);
            }
            column.push_back(std::move(c));
        }
    }

    estimator_->cache_->kernel.store(
        plan_key, std::shared_ptr<const void>(plan));
    return plan;
}

CarbonReport
SweepEvaluator::evaluatePoint(const Plan &plan,
                              const std::vector<std::size_t> &idx,
                              Scratch &scratch) const
{
    const std::size_t n = plan.cand.size();
    auto at = [&](std::size_t i) -> const Candidate & {
        return plan.cand[i][idx[i]];
    };
    auto area_of = [&](std::size_t i) { return at(i).bare.areaMm2; };

    // Report key: invariant prefix + the point's raw node doubles,
    // matching EcoChip::reportKey byte for byte.
    std::string &key = scratch.reportKey;
    key.assign(plan.reportPrefix);
    for (std::size_t i = 0; i < n; ++i)
        appendRaw(key, at(i).nodeNm);
    {
        CarbonReport cached;
        if (estimator_->cache_->report.find(key, cached))
            return cached;
    }

    CarbonReport report;

    // --- manufacturing ----------------------------------------
    double mfg_total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mfg_total += at(i).bare.totalCo2Kg();
    report.mfgCo2Kg = mfg_total;

    // --- packaging (HiResult) ---------------------------------
    HiResult hi;
    auto patterningCo2 = [&](int layers, double epla_kwh_per_cm2,
                             double area_cm2, double yield) {
        if (!(yield > 0.0 && yield <= 1.0))
            throw ModelError("package layer yield out of range");
        return packagingCo2Kg(
            plan.pkgIntensity,
            patterningEnergyKwh(layers, epla_kwh_per_cm2, area_cm2),
            yield);
    };
    auto substrateCo2 = [&](double area_mm2) {
        const double area_cm2 = area_mm2 * units::kCm2PerMm2;
        return patterningCo2(plan.subLayers, plan.subEpla, area_cm2,
                             negativeBinomialYieldFast(
                                 area_cm2, plan.subD0, plan.alpha));
    };

    if (plan.arch == PackagingArch::Stack3d) {
        const double footprint_mm2 =
            footprintMm2(plan.stacks.front(), area_of);
        hi.packageCo2Kg = substrateCo2(footprint_mm2);
        hi.packageAreaMm2 = footprint_mm2;
    } else {
        // Floorplan: memoized process-wide on (spacing, boxes).
        FloorplanResult fp;
        {
            std::vector<ChipletBox> &boxes = scratch.boxes;
            boxes.clear();
            boxes.reserve(plan.units.size());
            std::string &fkey = scratch.floorplanKey;
            fkey.clear();
            fkey.push_back('F');
            appendRaw(fkey, plan.spacingMm);
            for (const PlanarUnit &unit : plan.units) {
                const double area_mm2 =
                    unit.stacked() ? footprintMm2(unit, area_of)
                                   : area_of(unit.first);
                appendRaw(fkey, unit.label);
                appendRaw(fkey, area_mm2);
                boxes.push_back({unit.label, area_mm2, 1.0});
            }
            if (!floorplanMemo().find(fkey, fp)) {
                fp = Floorplanner(plan.spacingMm).plan(boxes);
                floorplanMemo().store(fkey, fp);
            }
        }
        hi.packageAreaMm2 = fp.areaMm2();
        hi.whitespaceAreaMm2 = fp.whitespaceAreaMm2;
        const double pkg_area_mm2 = fp.areaMm2();
        const double area_cm2 = pkg_area_mm2 * units::kCm2PerMm2;

        switch (plan.arch) {
          case PackagingArch::RdlFanout: {
            const double yield = negativeBinomialYieldFast(
                area_cm2, plan.archD0, plan.alpha);
            hi.packageCo2Kg = patterningCo2(
                plan.archLayers, plan.archEpla, area_cm2, yield);
            hi.packageYield = yield;
            break;
          }
          case PackagingArch::SiliconBridge: {
            const int bridges =
                bridgeCount(fp.adjacencies, plan.bridgeRangeMm, n);
            hi.bridgeCount = bridges;
            const double embed_yield =
                bridgeEmbedYield(plan.bridgeEmbedYield, bridges);
            hi.packageCo2Kg = bridgePackageCo2Kg(
                substrateCo2(pkg_area_mm2), bridges,
                plan.bridgePerCo2Kg, embed_yield);
            hi.packageYield = bridgePackageYield(
                embed_yield, plan.bridgeYield, bridges);
            break;
          }
          case PackagingArch::PassiveInterposer:
          case PackagingArch::ActiveInterposer: {
            const double beol_yield = negativeBinomialYieldFast(
                area_cm2, plan.archD0, plan.alpha);
            const double beol = patterningCo2(
                plan.archLayers, plan.archEpla, area_cm2, beol_yield);
            const double wasted_mm2 =
                plan.includeWastage
                    ? plan.wafer.wastedAreaPerDieMm2(pkg_area_mm2)
                    : 0.0;
            hi.packageCo2Kg =
                beol + wastageCo2Kg(plan.cfpaSiKgPerCm2, wasted_mm2) +
                substrateCo2(pkg_area_mm2);
            hi.packageYield = beol_yield;
            if (plan.arch == PackagingArch::ActiveInterposer) {
                const ActiveFeol feol = activeFeolCo2Kg(
                    plan.grossCfpaKgPerCm2, beol_yield,
                    plan.interposerComm.areaMm2,
                    plan.repeaterFraction, pkg_area_mm2);
                hi.routingCo2Kg = feol.routerCo2Kg;
                hi.packageCo2Kg += feol.repeaterCo2Kg;
                hi.commAreaMm2 = plan.interposerComm.areaMm2;
                hi.nocPowerW = plan.interposerComm.powerW;
            }
            break;
          }
          case PackagingArch::Stack3d:
            break; // handled before the floorplan branch
        }
    }
    if (plan.arch != PackagingArch::ActiveInterposer) {
        for (std::size_t i = 0; i < n; ++i) {
            hi.routingCo2Kg += at(i).commDeltaCo2Kg;
            hi.commAreaMm2 += at(i).commAreaMm2;
            hi.nocPowerW += at(i).commPowerW;
        }
    }
    for (const PlanarUnit &stack : plan.stacks)
        hi.stackBondCo2Kg += hi.addStackBond(
            stackBond(footprintMm2(stack, area_of),
                      static_cast<int>(stack.members.size()),
                      plan.bond),
            plan.pkgIntensity);
    hi.packageCo2Kg += hi.stackBondCo2Kg;
    report.hi = hi;

    // --- design -----------------------------------------------
    double per_part = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (!plan.reused[i])
            per_part += at(i).designAmortizedCo2Kg;
    per_part += at(0).commDesignCo2Kg;
    report.designCo2Kg = per_part;

    // --- mask-set NRE -----------------------------------------
    if (plan.includeNre) {
        double nre_total = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            nre_total += at(i).nreCo2Kg;
        report.nreCo2Kg = nre_total;
    }

    // --- operation --------------------------------------------
    OperationalBreakdown op;
    const double extra_power_w = hi.nocPowerW;
    if (plan.annualPath) {
        const double extra_kwh_per_year =
            extra_power_w * plan.annualOnHoursPerYear *
            units::kKwhPerWh;
        op.lifetimeEnergyKwh =
            (plan.annualEnergyKwh + extra_kwh_per_year) *
            plan.lifetimeYears;
        op.avgPowerW = plan.annualAvgPowerBaseW + extra_power_w;
    } else {
        if (!(extra_power_w >= 0.0))
            throw ConfigError("extra power must be non-negative");
        if (plan.powerOverride) {
            op.avgPowerW = plan.overridePowerW + extra_power_w;
        } else {
            double total_w = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                total_w += at(i).chipletPowerW;
            op.avgPowerW = total_w + extra_power_w;
        }
        op.lifetimeEnergyKwh =
            op.avgPowerW * plan.onHoursLife * units::kKwhPerWh;
    }
    op.co2Kg =
        units::carbonKg(plan.useIntensity, op.lifetimeEnergyKwh);
    report.operation = op;

    // --- per-chiplet detail -----------------------------------
    report.chiplets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Candidate &c = at(i);
        ChipletReport cr;
        cr.name = plan.names[i];
        cr.nodeNm = c.nodeNm;
        cr.areaMm2 = c.bare.areaMm2;
        cr.yield = c.bare.yield;
        cr.mfgCo2Kg = c.bare.totalCo2Kg();
        cr.designCo2Kg =
            plan.reused[i] ? 0.0 : c.designAmortizedCo2Kg;
        report.chiplets.push_back(std::move(cr));
    }

    estimator_->cache_->report.store(key, report);
    return report;
}

std::vector<ExplorationPoint>
SweepEvaluator::sweep(
    const SystemSpec &system,
    const std::vector<std::vector<double>> &candidates_per_chiplet)
    const
{
    // Monolithic systems bypass every packaging/comm code path the
    // plan hoists; the scalar estimator is already a single cached
    // die evaluation there.
    const bool batched = !system.isMonolithic();
    std::shared_ptr<const Plan> plan;
    if (batched)
        plan = compile(system, candidates_per_chiplet);

    std::size_t total = 1;
    for (const auto &candidates : candidates_per_chiplet)
        total *= candidates.size();

    Scratch scratch;
    std::vector<ExplorationPoint> points;
    points.reserve(total);
    std::vector<double> assignment(system.chiplets.size());
    std::vector<std::size_t> idx(system.chiplets.size(), 0);
    while (true) {
        for (std::size_t i = 0; i < idx.size(); ++i)
            assignment[i] = candidates_per_chiplet[i][idx[i]];

        ExplorationPoint point;
        point.nodesNm = assignment;
        // withNodes() first: it owns the per-point node validation.
        point.system = system.withNodes(assignment);
        point.report = batched
                           ? evaluatePoint(*plan, idx, scratch)
                           : estimator_->estimate(point.system);
        points.push_back(std::move(point));

        std::size_t digit = idx.size();
        while (digit > 0) {
            --digit;
            if (++idx[digit] <
                candidates_per_chiplet[digit].size())
                break;
            idx[digit] = 0;
            if (digit == 0)
                return points;
        }
    }
}

} // namespace ecochip
