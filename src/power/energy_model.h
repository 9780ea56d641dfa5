// Wattch-style per-block dynamic energy model.
//
// Each block has a peak dynamic power (all ports busy every cycle) at the
// nominal operating point and a clocked "base" fraction dissipated every
// cycle the clock tree runs (clock load, precharge, decoders). Activity
// counts from the core are normalised to utilisations with per-block
// maximum event rates and scaled by supply voltage squared; frequency
// enters through the number of cycles per second.
//
//   P_dyn(block) = [base + (1 - base) * util] * P_peak
//                  * (V/Vnom)^2 * (clocked_cycles / interval_cycles)
//                  * f / f_nom
//
// The absolute numbers are calibration constants chosen so that total
// chip power and the per-block power-density ranking reproduce the
// paper's setup (integer register file hottest; see DESIGN.md).
#pragma once

#include <array>

#include "arch/activity.h"
#include "floorplan/block.h"
#include "util/units.h"

namespace hydra::power {

/// Per-block dynamic-power coefficients.
struct BlockEnergySpec {
  double peak_watts = 0.0;       ///< at Vnom, f_nom, utilisation 1.0
  double base_fraction = 0.0;    ///< clocked idle fraction of peak
  double max_events_per_cycle = 1.0;  ///< normalisation for utilisation
};

class EnergyModel {
 public:
  /// Default calibration for the EV7-like floorplan at 1.3 V / 3 GHz.
  EnergyModel();

  const BlockEnergySpec& spec(floorplan::BlockId id) const {
    return specs_[static_cast<std::size_t>(id)];
  }
  BlockEnergySpec& spec_mutable(floorplan::BlockId id) {
    return specs_[static_cast<std::size_t>(id)];
  }

  util::Volts v_nominal() const { return util::Volts(v_nominal_); }
  util::Hertz f_nominal() const { return util::Hertz(f_nominal_); }

  /// Utilisation of `id` implied by `frame` (clamped to [0, 1]).
  double utilization(const arch::ActivityFrame& frame,
                     floorplan::BlockId id) const;

  /// Average dynamic power of block `id` over the interval captured
  /// by `frame`, at supply `voltage` and clock `frequency`.
  util::Watts dynamic_power(const arch::ActivityFrame& frame,
                            floorplan::BlockId id, util::Volts voltage,
                            util::Hertz frequency) const;

 private:
  std::array<BlockEnergySpec, floorplan::kNumBlocks> specs_{};
  double v_nominal_ = 1.3;
  double f_nominal_ = 3.0e9;
};

}  // namespace hydra::power
