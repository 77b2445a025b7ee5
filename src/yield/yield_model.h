/**
 * @file
 * Yield models (paper Eq. 4 and package assembly yields).
 */

#ifndef ECOCHIP_YIELD_YIELD_MODEL_H
#define ECOCHIP_YIELD_YIELD_MODEL_H

#include <cmath>
#include <string>
#include <vector>

#include "tech/tech_db.h"

namespace ecochip {

/**
 * Negative-binomial die yield (Eq. 4):
 *
 *   Y = (1 + A * D0 / alpha)^-alpha
 *
 * @param area_cm2 Die area in cm^2.
 * @param d0_per_cm2 Defect density in defects per cm^2.
 * @param alpha Defect clustering parameter.
 * @return Yield in (0, 1].
 */
double negativeBinomialYield(double area_cm2, double d0_per_cm2,
                             double alpha);

/**
 * Classical alternatives surveyed by the paper's yield reference
 * (Cunningham, "The use and evaluation of yield models in
 * integrated circuit manufacturing"). All take the same (A, D0)
 * arguments; the negative binomial is the paper's default.
 */
enum class YieldModelKind
{
    NegativeBinomial, ///< Eq. 4, the paper's model
    Poisson,          ///< Y = exp(-A D0)
    Murphy,           ///< Y = ((1 - exp(-A D0)) / (A D0))^2
    Seeds,            ///< Y = 1 / (1 + A D0)
};

/** Printable name of a yield model kind. */
const char *toString(YieldModelKind kind);

/** Parse ("negative_binomial" | "poisson" | "murphy" | "seeds"). */
YieldModelKind yieldModelKindFromString(const std::string &name);

/** Poisson-statistics die yield. */
double poissonYield(double area_cm2, double d0_per_cm2);

/** Murphy's bose-einstein-averaged die yield. */
double murphyYield(double area_cm2, double d0_per_cm2);

/** Seeds' exponential-defect-density die yield. */
double seedsYield(double area_cm2, double d0_per_cm2);

/**
 * Dispatch on the model kind (alpha only used by the negative
 * binomial).
 */
double dieYield(YieldModelKind kind, double area_cm2,
                double d0_per_cm2, double alpha);

/**
 * @{ @name Unchecked yield kernels
 *
 * The yield equations themselves: the checked functions above
 * validate their arguments and call these. Batch evaluators
 * validate inputs once per plan and then call these in per-trial
 * hot loops.
 */
inline double
negativeBinomialYieldFast(double area_cm2, double d0_per_cm2,
                          double alpha)
{
    return std::pow(1.0 + area_cm2 * d0_per_cm2 / alpha, -alpha);
}

inline double
poissonYieldFast(double area_cm2, double d0_per_cm2)
{
    return std::exp(-area_cm2 * d0_per_cm2);
}

inline double
murphyYieldFast(double area_cm2, double d0_per_cm2)
{
    const double x = area_cm2 * d0_per_cm2;
    if (x < 1e-12)
        return 1.0;
    const double term = (1.0 - std::exp(-x)) / x;
    return term * term;
}

inline double
seedsYieldFast(double area_cm2, double d0_per_cm2)
{
    return 1.0 / (1.0 + area_cm2 * d0_per_cm2);
}

inline double
dieYieldFast(YieldModelKind kind, double area_cm2,
             double d0_per_cm2, double alpha)
{
    switch (kind) {
      case YieldModelKind::NegativeBinomial:
        return negativeBinomialYieldFast(area_cm2, d0_per_cm2,
                                         alpha);
      case YieldModelKind::Poisson:
        return poissonYieldFast(area_cm2, d0_per_cm2);
      case YieldModelKind::Murphy:
        return murphyYieldFast(area_cm2, d0_per_cm2);
      case YieldModelKind::Seeds:
        return seedsYieldFast(area_cm2, d0_per_cm2);
    }
    return negativeBinomialYieldFast(area_cm2, d0_per_cm2, alpha);
}
/** @} */

/**
 * Poisson-limit yield of an assembly with @p connections independent
 * bonds each failing with probability @p fail_probability:
 * Y = exp(-n * p). Used for TSV/microbump/hybrid-bond stacks
 * (Eq. 11's Y(3D, p)).
 */
double bondArrayYield(double connections, double fail_probability);

/** Product of independent yields (package yield across tiers). */
double compoundYield(const std::vector<double> &yields);

/**
 * Convenience facade binding the yield equations to a technology
 * database.
 */
class YieldModel
{
  public:
    /**
     * @param tech Technology database supplying D0(p) and alpha.
     *        Must outlive the model.
     * @param kind Statistical yield model (paper default:
     *        negative binomial).
     */
    explicit YieldModel(
        const TechDb &tech,
        YieldModelKind kind = YieldModelKind::NegativeBinomial)
        : tech_(&tech), kind_(kind)
    {}

    /** Yield statistics in use. */
    YieldModelKind kind() const { return kind_; }

    /**
     * Yield of a silicon die (Eq. 4 with full D0(p)).
     *
     * @param area_mm2 Die area in mm^2.
     * @param node_nm Process node in nm.
     */
    double dieYield(double area_mm2, double node_nm) const;

    /** Yield of coarse RDL layers over the package substrate. */
    double rdlYield(double area_mm2, double node_nm) const;

    /** Yield of fine-pitch silicon-bridge metal layers. */
    double bridgeYield(double area_mm2, double node_nm) const;

    /** Yield of interposer BEOL layers. */
    double interposerYield(double area_mm2, double node_nm) const;

  private:
    const TechDb *tech_;
    YieldModelKind kind_;
};

} // namespace ecochip

#endif // ECOCHIP_YIELD_YIELD_MODEL_H
