#include "power/voltage_freq.h"

#include <cmath>
#include <stdexcept>

namespace hydra::power {

VoltageFrequencyCurve::VoltageFrequencyCurve(util::Volts v_nominal,
                                             util::Hertz f_nominal,
                                             util::Volts v_threshold,
                                             double alpha)
    : v_nominal_(v_nominal.value()),
      f_nominal_(f_nominal.value()),
      v_threshold_(v_threshold.value()),
      alpha_(alpha) {
  if (v_nominal <= v_threshold) {
    throw std::invalid_argument("nominal voltage must exceed Vth");
  }
  if (f_nominal.value() <= 0.0) {
    throw std::invalid_argument("nominal frequency must be positive");
  }
  norm_ = f_nominal_ /
          (std::pow(v_nominal_ - v_threshold_, alpha_) / v_nominal_);
}

util::Hertz VoltageFrequencyCurve::frequency(util::Volts v) const {
  if (v.value() <= v_threshold_) {
    throw std::invalid_argument("voltage at or below threshold");
  }
  return util::Hertz(norm_ * std::pow(v.value() - v_threshold_, alpha_) /
                     v.value());
}

DvsLadder::DvsLadder(const VoltageFrequencyCurve& curve, std::size_t steps,
                     double v_low_fraction) {
  if (steps < 2) {
    throw std::invalid_argument("a DVS ladder needs at least two points");
  }
  if (v_low_fraction <= 0.0 || v_low_fraction >= 1.0) {
    throw std::invalid_argument("v_low_fraction must be in (0, 1)");
  }
  const util::Volts v_hi = curve.v_nominal();
  const util::Volts v_lo = v_low_fraction * v_hi;
  points_.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(steps - 1);
    const util::Volts v = v_hi - frac * (v_hi - v_lo);
    points_.push_back({v, curve.frequency(v)});
  }
}

std::size_t DvsLadder::level_at_or_below(util::Volts v) const {
  // Points are sorted by descending voltage; pick the first (fastest)
  // whose voltage does not exceed the request.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].voltage.value() <= v.value() + 1e-12) return i;
  }
  return lowest_level();
}

}  // namespace hydra::power
