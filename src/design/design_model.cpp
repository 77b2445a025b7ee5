#include "design/design_model.h"

#include <algorithm>

#include "package/carbon_terms.h"
#include "support/error.h"

namespace ecochip {

DesignModel::DesignModel(const TechDb &tech, DesignParams params)
    : tech_(&tech), params_(params),
      etaFit_(tech.edaProductivitySamples())
{
    requireConfig(params.pdesW > 0.0,
                  "design compute power must be positive");
    requireConfig(params.designIterations > 0,
                  "design iteration count must be positive");
    requireConfig(params.intensityGPerKwh > 0.0,
                  "design carbon intensity must be positive");
    requireConfig(params.sprHoursPerMgate > 0.0,
                  "SP&R anchor must be positive");
    requireConfig(params.gatesPerTransistor > 0.0,
                  "gates per transistor must be positive");
    requireConfig(params.chipletVolume >= 1.0,
                  "chiplet volume must be at least 1");
    requireConfig(params.systemVolume >= 1.0,
                  "system volume must be at least 1");
}

double
DesignModel::edaProductivityFit(double node_nm) const
{
    return std::clamp(etaFit_.eval(node_nm), 0.05, 1.0);
}

double
DesignModel::gateCountMgates(const Chiplet &chiplet) const
{
    return chiplet.transistorsMtr * params_.gatesPerTransistor;
}

double
DesignModel::hoursToCo2Kg(double hours) const
{
    return designCo2Kg(hours, params_.pdesW, params_.intensityGPerKwh);
}

double
DesignModel::singleIterationCo2Kg(const Chiplet &chiplet) const
{
    // One SP&R pass plus its analysis, scaled by EDA productivity
    // at the target node.
    const double spr =
        params_.sprHoursPerMgate * gateCountMgates(chiplet);
    const double hours = spr * (1.0 + params_.analyzeFraction) /
                         edaProductivityFit(chiplet.nodeNm);
    return hoursToCo2Kg(hours);
}

double
DesignModel::designHours(double gates_mgates, double node_nm) const
{
    return ecochip::designHours(
        {params_.sprHoursPerMgate, params_.analyzeFraction,
         static_cast<double>(params_.designIterations),
         params_.verifMultiple},
        gates_mgates, edaProductivityFit(node_nm));
}

DesignBreakdown
DesignModel::chipletDesign(const Chiplet &chiplet) const
{
    DesignBreakdown out;
    const double gates = gateCountMgates(chiplet);
    out.sprHours = params_.sprHoursPerMgate * gates;
    out.totalHours = designHours(gates, chiplet.nodeNm);
    out.co2Kg = hoursToCo2Kg(out.totalHours);
    out.amortizedCo2Kg = out.co2Kg / params_.chipletVolume;
    return out;
}

double
DesignModel::systemDesignCo2Kg(const SystemSpec &system,
                               double comm_transistors_mtr,
                               double comm_node_nm) const
{
    return systemDesignCo2Kg(
        system, comm_transistors_mtr, comm_node_nm,
        [this](const Chiplet &chiplet) {
            return chipletDesign(chiplet);
        });
}

double
DesignModel::systemDesignCo2Kg(
    const SystemSpec &system, double comm_transistors_mtr,
    double comm_node_nm,
    const std::function<DesignBreakdown(const Chiplet &)>
        &chiplet_design) const
{
    double per_part = 0.0;
    for (const auto &chiplet : system.chiplets) {
        if (chiplet.reused)
            continue; // pre-designed IP: Cdes already amortized
        per_part += chiplet_design(chiplet).amortizedCo2Kg;
    }
    if (comm_transistors_mtr > 0.0)
        per_part +=
            commDesignCo2Kg(comm_transistors_mtr, comm_node_nm);
    return per_part;
}

double
DesignModel::commDesignCo2Kg(double comm_transistors_mtr,
                             double comm_node_nm) const
{
    const double comm_gates =
        comm_transistors_mtr * params_.gatesPerTransistor;
    return hoursToCo2Kg(designHours(comm_gates, comm_node_nm)) /
           params_.systemVolume;
}

} // namespace ecochip
