#include "yield/yield_model.h"

#include <cmath>

#include "support/error.h"
#include "support/units.h"

namespace ecochip {

double
negativeBinomialYield(double area_cm2, double d0_per_cm2,
                      double alpha)
{
    requireConfig(area_cm2 >= 0.0, "die area must be non-negative");
    requireConfig(d0_per_cm2 >= 0.0,
                  "defect density must be non-negative");
    requireConfig(alpha > 0.0, "clustering alpha must be positive");
    return negativeBinomialYieldFast(area_cm2, d0_per_cm2, alpha);
}

double
bondArrayYield(double connections, double fail_probability)
{
    requireConfig(connections >= 0.0,
                  "connection count must be non-negative");
    requireConfig(fail_probability >= 0.0 && fail_probability < 1.0,
                  "bond failure probability must be in [0, 1)");
    return std::exp(-connections * fail_probability);
}

const char *
toString(YieldModelKind kind)
{
    switch (kind) {
      case YieldModelKind::NegativeBinomial:
        return "negative_binomial";
      case YieldModelKind::Poisson: return "poisson";
      case YieldModelKind::Murphy: return "murphy";
      case YieldModelKind::Seeds: return "seeds";
    }
    return "unknown";
}

YieldModelKind
yieldModelKindFromString(const std::string &name)
{
    if (name == "negative_binomial" || name == "nb")
        return YieldModelKind::NegativeBinomial;
    if (name == "poisson")
        return YieldModelKind::Poisson;
    if (name == "murphy")
        return YieldModelKind::Murphy;
    if (name == "seeds")
        return YieldModelKind::Seeds;
    throw ConfigError("unknown yield model: \"" + name + "\"");
}

double
poissonYield(double area_cm2, double d0_per_cm2)
{
    requireConfig(area_cm2 >= 0.0, "die area must be non-negative");
    requireConfig(d0_per_cm2 >= 0.0,
                  "defect density must be non-negative");
    return poissonYieldFast(area_cm2, d0_per_cm2);
}

double
murphyYield(double area_cm2, double d0_per_cm2)
{
    requireConfig(area_cm2 >= 0.0, "die area must be non-negative");
    requireConfig(d0_per_cm2 >= 0.0,
                  "defect density must be non-negative");
    return murphyYieldFast(area_cm2, d0_per_cm2);
}

double
seedsYield(double area_cm2, double d0_per_cm2)
{
    requireConfig(area_cm2 >= 0.0, "die area must be non-negative");
    requireConfig(d0_per_cm2 >= 0.0,
                  "defect density must be non-negative");
    return seedsYieldFast(area_cm2, d0_per_cm2);
}

double
dieYield(YieldModelKind kind, double area_cm2, double d0_per_cm2,
         double alpha)
{
    switch (kind) {
      case YieldModelKind::NegativeBinomial:
        return negativeBinomialYield(area_cm2, d0_per_cm2, alpha);
      case YieldModelKind::Poisson:
        return poissonYield(area_cm2, d0_per_cm2);
      case YieldModelKind::Murphy:
        return murphyYield(area_cm2, d0_per_cm2);
      case YieldModelKind::Seeds:
        return seedsYield(area_cm2, d0_per_cm2);
    }
    throw ModelError("unhandled yield model kind");
}

double
compoundYield(const std::vector<double> &yields)
{
    double product = 1.0;
    for (double y : yields) {
        requireConfig(y > 0.0 && y <= 1.0,
                      "component yield must be in (0, 1]");
        product *= y;
    }
    return product;
}

double
YieldModel::dieYield(double area_mm2, double node_nm) const
{
    return ecochip::dieYield(kind_,
                             area_mm2 * units::kCm2PerMm2,
                             tech_->defectDensityPerCm2(node_nm),
                             tech_->clusteringAlpha());
}

double
YieldModel::rdlYield(double area_mm2, double node_nm) const
{
    return negativeBinomialYield(
        area_mm2 * units::kCm2PerMm2,
        tech_->rdlDefectDensityPerCm2(node_nm),
        tech_->clusteringAlpha());
}

double
YieldModel::bridgeYield(double area_mm2, double node_nm) const
{
    return negativeBinomialYield(
        area_mm2 * units::kCm2PerMm2,
        tech_->bridgeDefectDensityPerCm2(node_nm),
        tech_->clusteringAlpha());
}

double
YieldModel::interposerYield(double area_mm2, double node_nm) const
{
    return negativeBinomialYield(
        area_mm2 * units::kCm2PerMm2,
        tech_->interposerDefectDensityPerCm2(node_nm),
        tech_->clusteringAlpha());
}

} // namespace ecochip
