// Exact order statistics and ratio helpers for the benchmark report.
//
// Percentiles are computed from the raw per-operation samples (no
// histogram bucketing), by the nearest-rank rule: the q-quantile of n
// sorted samples is the sample at 1-based rank ceil(q * n). A tail
// percentile is reportable only when at least kMinTailSamples samples lie
// strictly beyond that rank, so a p99 is never read off a handful of
// points.
#ifndef RECURBENCH_STATS_H_
#define RECURBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace recurbench {

inline constexpr size_t kMinTailSamples = 10;

// Raw samples of one timed operation kind, in the unit they were taken in.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Nearest-rank q-quantile, q in (0, 1]; nullopt when there are no samples.
  std::optional<double> Quantile(double q) const;
  // The q-quantile only when at least kMinTailSamples samples lie beyond it.
  std::optional<double> TailQuantile(double q) const;
  std::optional<double> Median() const { return Quantile(0.5); }

 private:
  void Sort() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// 1-based nearest rank of the q-quantile among n samples.
size_t NearestRank(size_t n, double q);

// Samples strictly beyond the q-quantile's rank among n samples.
size_t SamplesBeyond(size_t n, double q);

// num / base, or nullopt when the base is zero: a ratio over nothing is
// absent, never 0.
std::optional<double> Ratio(double num, double base);

// Geometric mean of strictly positive values; nullopt if any is absent or
// non-positive, or the list is empty.
std::optional<double> GeoMean(const std::vector<std::optional<double>>& xs);

}  // namespace recurbench

#endif  // RECURBENCH_STATS_H_
