#include "power/energy_model.h"

#include <algorithm>

namespace hydra::power {

using floorplan::BlockId;

EnergyModel::EnergyModel() {
  auto set = [this](BlockId id, double peak, double base, double max_rate) {
    specs_[static_cast<std::size_t>(id)] = {peak, base, max_rate};
  };
  // Calibration (see DESIGN.md): peaks chosen so the nine hot SPEC2000
  // profiles reach 85-88 C on the 1.0 K/W package with the integer
  // register file as the densest (hottest) unit, leaving DTM enough
  // silicon-gradient headroom to regulate back below 85 C in-run.
  // peak [W]    base  max events/cycle
  set(BlockId::kL2Left, 1.879, 0.08, 0.125);
  set(BlockId::kL2, 5.009, 0.08, 0.25);
  set(BlockId::kL2Right, 1.879, 0.08, 0.125);
  set(BlockId::kICache, 5.634, 0.10, 1.0);
  set(BlockId::kDCache, 6.887, 0.10, 2.0);
  set(BlockId::kBPred, 3.130, 0.10, 1.0);
  set(BlockId::kDTB, 1.565, 0.10, 2.0);
  set(BlockId::kFPAdd, 3.130, 0.15, 2.0);
  set(BlockId::kFPReg, 3.130, 0.15, 4.0);
  set(BlockId::kFPMul, 3.130, 0.15, 1.0);
  set(BlockId::kFPMap, 1.879, 0.15, 4.0);
  set(BlockId::kIntMap, 3.130, 0.20, 4.0);
  set(BlockId::kIntQ, 2.818, 0.20, 4.0);
  set(BlockId::kIntReg, 7.513, 0.20, 8.0);
  set(BlockId::kIntExec, 6.261, 0.20, 4.0);
  set(BlockId::kFPQ, 1.565, 0.15, 2.0);
  set(BlockId::kLdStQ, 2.191, 0.15, 2.0);
  set(BlockId::kITB, 1.252, 0.10, 1.0);
}

double EnergyModel::utilization(const arch::ActivityFrame& frame,
                                BlockId id) const {
  if (frame.clocked_cycles <= 0.0) return 0.0;
  const BlockEnergySpec& s = specs_[static_cast<std::size_t>(id)];
  const double util =
      frame.count(id) / (frame.clocked_cycles * s.max_events_per_cycle);
  return std::clamp(util, 0.0, 1.0);
}

util::Watts EnergyModel::dynamic_power(const arch::ActivityFrame& frame,
                                       BlockId id, util::Volts voltage,
                                       util::Hertz frequency) const {
  if (frame.cycles <= 0.0) return util::Watts(0.0);
  const BlockEnergySpec& s = specs_[static_cast<std::size_t>(id)];
  const double util = utilization(frame, id);
  const double v_ratio = voltage.value() / v_nominal_;
  const double v_scale = v_ratio * v_ratio;
  const double f_scale = frequency.value() / f_nominal_;
  const double clocked_share = frame.clocked_cycles / frame.cycles;
  const double activity = s.base_fraction + (1.0 - s.base_fraction) * util;
  return util::Watts(s.peak_watts * activity * v_scale * f_scale *
                     clocked_share);
}

}  // namespace hydra::power
