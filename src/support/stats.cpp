#include "support/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "support/error.h"

namespace ecochip {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/**
 * Order-preserving key of a double: for non-NaN a and b,
 * key(a) < key(b) exactly when a < b, except that -0.0 sorts
 * before +0.0.
 */
std::uint64_t
sortKey(double value)
{
    const auto bits = std::bit_cast<std::uint64_t>(value);
    return (bits & kSignBit) ? ~bits : bits | kSignBit;
}

double
fromSortKey(std::uint64_t key)
{
    return std::bit_cast<double>((key & kSignBit) ? key & ~kSignBit
                                                  : ~key);
}

/**
 * Ascending LSD radix sort, one byte of the key per pass; a pass
 * in which every key has the same digit is skipped. Requires
 * finite, nonzero values: among those, equal values are
 * bit-equal, so the result is std::sort's bit for bit.
 */
void
radixSort(std::vector<double> &values)
{
    const std::size_t n = values.size();
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint64_t> scratch(n);
    std::array<std::array<std::size_t, 256>, 8> counts{};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = sortKey(values[i]);
        keys[i] = key;
        for (unsigned pass = 0; pass < 8; ++pass)
            ++counts[pass][(key >> (8 * pass)) & 0xff];
    }
    for (unsigned pass = 0; pass < 8; ++pass) {
        const unsigned shift = 8 * pass;
        auto &count = counts[pass];
        if (count[(keys[0] >> shift) & 0xff] == n)
            continue;
        std::size_t offset = 0;
        for (std::size_t &c : count)
            offset += std::exchange(c, offset);
        for (const std::uint64_t key : keys)
            scratch[count[(key >> shift) & 0xff]++] = key;
        keys.swap(scratch);
    }
    for (std::size_t i = 0; i < n; ++i)
        values[i] = fromSortKey(keys[i]);
}

} // namespace

SampleStats::SampleStats(std::vector<double> samples)
    : sorted_(std::move(samples))
{
    requireConfig(!sorted_.empty(),
                  "statistics need at least one sample");
    // Zeros (+0.0 and -0.0 compare equal but differ in bits) and
    // non-finite samples keep the comparison sort.
    const bool radix =
        sorted_.size() >= kRadixSortMinSamples &&
        std::all_of(sorted_.begin(), sorted_.end(), [](double v) {
            return std::isfinite(v) && v != 0.0;
        });
    if (radix)
        radixSort(sorted_);
    else
        std::sort(sorted_.begin(), sorted_.end());

    double sum = 0.0;
    for (double v : sorted_)
        sum += v;
    mean_ = sum / static_cast<double>(sorted_.size());

    if (sorted_.size() > 1) {
        double ss = 0.0;
        for (double v : sorted_)
            ss += (v - mean_) * (v - mean_);
        stddev_ = std::sqrt(
            ss / static_cast<double>(sorted_.size() - 1));
    }
}

double
SampleStats::percentile(double p) const
{
    requireConfig(p >= 0.0 && p <= 100.0,
                  "percentile must be in [0, 100]");
    if (sorted_.size() == 1)
        return sorted_.front();
    const double rank =
        p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

} // namespace ecochip
