/**
 * @file
 * Small sample-statistics helper for the uncertainty module.
 */

#ifndef ECOCHIP_SUPPORT_STATS_H
#define ECOCHIP_SUPPORT_STATS_H

#include <cstddef>
#include <vector>

namespace ecochip {

/** Summary statistics of a sample set. */
class SampleStats
{
  public:
    /**
     * Sample count from which the samples are radix-sorted
     * (when all are finite and nonzero) instead of compared.
     * Either sort gives the same bits.
     */
    static constexpr std::size_t kRadixSortMinSamples = 128;

    /** Construct from samples (copied and sorted internally). */
    explicit SampleStats(std::vector<double> samples);

    /** Number of samples. */
    std::size_t count() const { return sorted_.size(); }

    /** Arithmetic mean. */
    double mean() const { return mean_; }

    /** Sample standard deviation (n-1 denominator). */
    double stddev() const { return stddev_; }

    /** Smallest sample. */
    double min() const { return sorted_.front(); }

    /** Largest sample. */
    double max() const { return sorted_.back(); }

    /**
     * Linear-interpolation percentile.
     *
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

  private:
    std::vector<double> sorted_;
    double mean_ = 0.0;
    double stddev_ = 0.0;
};

} // namespace ecochip

#endif // ECOCHIP_SUPPORT_STATS_H
