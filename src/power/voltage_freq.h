// Voltage -> frequency relation and DVS operating points.
//
// The paper derives the f(V) curve by simulating a 101-stage ring
// oscillator in Cadence with BSIM 100 nm models. We reproduce the same
// curve shape with the alpha-power-law MOSFET delay model
//     f(V)  proportional to  (V - Vth)^alpha / V
// normalised so f(Vnom) = f_nom, which matches ring-oscillator behaviour
// closely in the 0.13 um regime (delay grows super-linearly as V
// approaches Vth). See DESIGN.md "Substitutions".
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace hydra::power {

/// The alpha-power-law frequency model.
class VoltageFrequencyCurve {
 public:
  /// Defaults: paper's nominal point 1.3 V @ 3 GHz, Vth = 0.35 V,
  /// alpha = 1.3 (velocity-saturated short-channel devices).
  VoltageFrequencyCurve(util::Volts v_nominal = util::Volts(1.3),
                        util::Hertz f_nominal = util::Hertz(3.0e9),
                        util::Volts v_threshold = util::Volts(0.35),
                        double alpha = 1.3);

  util::Volts v_nominal() const { return util::Volts(v_nominal_); }
  util::Hertz f_nominal() const { return util::Hertz(f_nominal_); }

  /// Maximum safe clock frequency at supply voltage `v`. Requires
  /// v > Vth.
  util::Hertz frequency(util::Volts v) const;

 private:
  double v_nominal_;
  double f_nominal_;
  double v_threshold_;
  double alpha_;
  double norm_;  // precomputed so frequency(v_nominal_) == f_nominal_
};

/// One DVS setting.
struct OperatingPoint {
  util::Volts voltage{};
  util::Hertz frequency{};
};

/// A discrete DVS ladder. Index 0 is the *nominal* (fastest) point and
/// higher indices are progressively lower voltage; the last index is the
/// low-voltage setting. `steps == 2` gives the paper's binary DVS.
class DvsLadder {
 public:
  /// Build `steps >= 2` points with voltages linearly spaced between
  /// v_low_fraction * Vnom (last index) and Vnom (index 0).
  DvsLadder(const VoltageFrequencyCurve& curve, std::size_t steps,
            double v_low_fraction);

  std::size_t size() const { return points_.size(); }
  const OperatingPoint& point(std::size_t level) const {
    return points_[level];
  }
  std::size_t lowest_level() const { return points_.size() - 1; }

  /// Highest-voltage level whose voltage is <= `v` (conservative
  /// quantisation used when a controller asks for voltage `v`);
  /// returns lowest_level() when `v` is below every point.
  std::size_t level_at_or_below(util::Volts v) const;

 private:
  std::vector<OperatingPoint> points_;
};

}  // namespace hydra::power
