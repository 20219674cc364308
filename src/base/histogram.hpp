// Fixed-size log-bucket histogram: constant memory however many values it
// counts, and quantiles accurate to one bucket (docs/SERVICE.md).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace skelcl {

/// Counts of positive values in logarithmic buckets, kPerOctave per
/// doubling from kMin up; values below kMin count in the first bucket and
/// values past the last in the last.  A bucket spans a factor of 2^(1/8),
/// about 9%, and 40 octaves reach from 1 ns to about 18 minutes.
class LogHistogram {
 public:
  static constexpr int kPerOctave = 8;
  static constexpr int kBuckets = 40 * kPerOctave;
  static constexpr double kMin = 1e-9;

  /// The bucket `value` counts in.
  static int bucketOf(double value) {
    if (!(value > kMin)) return 0;  // NaN and values below the range too
    const double b = std::floor(std::log2(value / kMin) * kPerOctave);
    return static_cast<int>(std::min(b, static_cast<double>(kBuckets - 1)));
  }

  void add(double value) {
    ++counts_[static_cast<std::size_t>(bucketOf(value))];
    ++count_;
  }

  std::uint64_t count() const { return count_; }

  /// The q-quantile as the value of rank floor(q * (count - 1)) in sorted
  /// order, which is the geometric middle of the bucket holding that rank;
  /// 0 for an empty histogram.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::min(static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)),
                               count_ - 1);
    std::uint64_t below = 0;
    int b = 0;
    while (below + counts_[static_cast<std::size_t>(b)] <= rank) {
      below += counts_[static_cast<std::size_t>(b)];
      ++b;
    }
    return kMin * std::exp2((b + 0.5) / kPerOctave);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace skelcl
