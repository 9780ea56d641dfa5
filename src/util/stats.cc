#include "util/stats.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace hydra::util {

RunningStats::RunningStats()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double paired_t_statistic(std::span<const double> a,
                          std::span<const double> b) {
  assert(a.size() == b.size());
  assert(a.size() >= 2);
  RunningStats diff;
  for (std::size_t i = 0; i < a.size(); ++i) diff.add(a[i] - b[i]);
  const double sd = diff.stddev();
  if (sd == 0.0) return 0.0;
  return diff.mean() / (sd / std::sqrt(static_cast<double>(diff.count())));
}

double t_critical_99(std::size_t degrees_of_freedom) {
  // Two-sided 99 % critical values of Student's t distribution.
  static constexpr double kTable[] = {
      63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
      3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
      2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750};
  if (degrees_of_freedom == 0) return kTable[0];
  if (degrees_of_freedom <= 30) return kTable[degrees_of_freedom - 1];
  return 2.576;  // normal approximation
}

double confidence_half_width_99(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  RunningStats s;
  for (double x : xs) s.add(x);
  const double se = s.stddev() / std::sqrt(static_cast<double>(s.count()));
  return t_critical_99(s.count() - 1) * se;
}

}  // namespace hydra::util
