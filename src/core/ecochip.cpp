#include "core/ecochip.h"

#include <cstring>

#include "manufacture/nre_model.h"
#include "support/error.h"

namespace ecochip {

std::string
EcoChip::reportKeyPrefix(const SystemSpec &system)
{
    CacheKey key;
    key.tag('R').add(system.singleDie).add(system.name);
    for (const auto &c : system.chiplets) {
        key.add(c.name)
            .add(static_cast<int>(c.type))
            .add(c.transistorsMtr)
            .add(c.reused)
            .add(c.stackGroup);
    }
    return std::move(key).str();
}

std::string
EcoChip::reportKey(const SystemSpec &system)
{
    std::string key = reportKeyPrefix(system);
    key.reserve(key.size() +
                system.chiplets.size() * sizeof(double));
    for (const auto &c : system.chiplets) {
        char raw[sizeof(double)];
        std::memcpy(raw, &c.nodeNm, sizeof(double));
        key.append(raw, sizeof(double));
    }
    return key;
}

EcoChip::EcoChip(EcoChipConfig config, TechDb tech)
    : tech_(std::move(tech)), config_(std::move(config)),
      cache_(std::make_shared<EvalCache>())
{
}

void
EcoChip::setConfig(EcoChipConfig config)
{
    config_ = std::move(config);
    // Memoized values are bound to the old configuration; detach
    // from any sharers and start clean.
    cache_ = std::make_shared<EvalCache>();
}

MfgBreakdown
EcoChip::cachedDieMfg(const ManufacturingModel &mfg,
                      double area_mm2, double node_nm) const
{
    const std::string key =
        CacheKey().tag('M').add(area_mm2).add(node_nm).str();
    MfgBreakdown out;
    if (cache_->mfg.find(key, out))
        return out;
    out = mfg.dieMfg(area_mm2, node_nm);
    cache_->mfg.store(key, out);
    return out;
}

DesignBreakdown
EcoChip::cachedChipletDesign(const DesignModel &design,
                             const Chiplet &chiplet) const
{
    const std::string key = CacheKey()
                                .tag('D')
                                .add(static_cast<int>(chiplet.type))
                                .add(chiplet.nodeNm)
                                .add(chiplet.transistorsMtr)
                                .str();
    DesignBreakdown out;
    if (cache_->design.find(key, out))
        return out;
    out = design.chipletDesign(chiplet);
    cache_->design.store(key, out);
    return out;
}

CarbonReport
EcoChip::estimate(const SystemSpec &system) const
{
    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");

    const std::string report_key = reportKey(system);
    {
        CarbonReport cached;
        if (cache_->report.find(report_key, cached))
            return cached;
    }

    ManufacturingModel mfg(tech_, config_.wafer,
                           config_.fabIntensityGPerKwh,
                           config_.yieldModel);
    mfg.setIncludeWastage(config_.includeWastage);

    CarbonReport report;
    if (system.singleDie) {
        double area_mm2 = 0.0;
        for (const auto &block : system.chiplets)
            area_mm2 += block.areaMm2(tech_);
        report.mfgCo2Kg =
            cachedDieMfg(mfg, area_mm2, system.monolithicNodeNm())
                .totalCo2Kg();
    } else {
        double total = 0.0;
        for (const auto &chiplet : system.chiplets)
            total += cachedDieMfg(mfg, chiplet.areaMm2(tech_),
                                  chiplet.nodeNm)
                         .totalCo2Kg();
        report.mfgCo2Kg = total;
    }

    PackageModel pkg(tech_, mfg, config_.package);
    report.hi = pkg.evaluate(system);

    // Design carbon: the communication IP (routers or PHYs, one
    // per chiplet) is designed once per system and amortized over
    // NS (Eq. 12's Cdes,comm term).
    DesignModel design(tech_, config_.design);
    const CommIp comm =
        system.isMonolithic()
            ? CommIp{}
            : pkg.commIp(system.chiplets.size(),
                         system.chiplets.front().nodeNm);
    report.designCo2Kg = design.systemDesignCo2Kg(
        system, comm.transistorsMtr, comm.nodeNm,
        [&](const Chiplet &chiplet) {
            return cachedChipletDesign(design, chiplet);
        });

    if (config_.includeMaskNre) {
        report.nreCo2Kg =
            NreCarbonModel(tech_, config_.fabIntensityGPerKwh,
                           config_.design.chipletVolume)
                .systemNreCo2Kg(system);
    }

    OperationalModel operation(tech_, config_.operating);
    report.operation =
        operation.evaluate(system, report.hi.nocPowerW);

    // Per-chiplet detail. For a monolithic die the blocks are
    // reported individually but manufactured as one die, so the
    // block-level mfg numbers are proportional area shares.
    if (system.singleDie) {
        const double node = system.monolithicNodeNm();
        double total_area = 0.0;
        for (const auto &block : system.chiplets)
            total_area += block.areaMm2(tech_);
        const MfgBreakdown die =
            cachedDieMfg(mfg, total_area, node);
        for (const auto &block : system.chiplets) {
            const double share =
                block.areaMm2(tech_) / total_area;
            ChipletReport cr;
            cr.name = block.name;
            cr.nodeNm = node;
            cr.areaMm2 = block.areaMm2(tech_);
            cr.yield = die.yield;
            cr.mfgCo2Kg = share * die.totalCo2Kg();
            cr.designCo2Kg =
                block.reused
                    ? 0.0
                    : cachedChipletDesign(design, block)
                          .amortizedCo2Kg;
            report.chiplets.push_back(cr);
        }
    } else {
        for (const auto &chiplet : system.chiplets) {
            const MfgBreakdown breakdown = cachedDieMfg(
                mfg, chiplet.areaMm2(tech_), chiplet.nodeNm);
            ChipletReport cr;
            cr.name = chiplet.name;
            cr.nodeNm = chiplet.nodeNm;
            cr.areaMm2 = breakdown.areaMm2;
            cr.yield = breakdown.yield;
            cr.mfgCo2Kg = breakdown.totalCo2Kg();
            cr.designCo2Kg =
                chiplet.reused
                    ? 0.0
                    : cachedChipletDesign(design, chiplet)
                          .amortizedCo2Kg;
            report.chiplets.push_back(cr);
        }
    }
    cache_->report.store(report_key, report);
    return report;
}

double
EcoChip::actEmbodiedCo2Kg(const SystemSpec &system) const
{
    return ActModel(tech_, config_.fabIntensityGPerKwh)
        .embodiedCo2Kg(system);
}

CostBreakdown
EcoChip::cost(const SystemSpec &system) const
{
    return cost(system, CostParams());
}

CostBreakdown
EcoChip::cost(const SystemSpec &system,
              const CostParams &cost_params) const
{
    return CostModel(tech_, config_.wafer, cost_params)
        .systemCost(system, config_.package);
}

} // namespace ecochip
