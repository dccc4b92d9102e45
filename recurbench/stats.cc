#include "stats.h"

#include <algorithm>
#include <cmath>

namespace recurbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q * n that is integral in exact arithmetic (0.95 *
  // 200) from rounding up a rank through floating-point error.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

std::optional<double> Samples::Quantile(double q) const {
  if (values_.empty()) return std::nullopt;
  Sort();
  return values_[NearestRank(values_.size(), q) - 1];
}

std::optional<double> Samples::TailQuantile(double q) const {
  if (SamplesBeyond(values_.size(), q) < kMinTailSamples) return std::nullopt;
  return Quantile(q);
}

std::optional<double> Ratio(double num, double base) {
  if (base == 0) return std::nullopt;
  return num / base;
}

std::optional<double> GeoMean(const std::vector<std::optional<double>>& xs) {
  if (xs.empty()) return std::nullopt;
  double log_sum = 0;
  for (const auto& x : xs) {
    if (!x.has_value() || *x <= 0) return std::nullopt;
    log_sum += std::log(*x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace recurbench
