#include "power/power_model.h"

#include <stdexcept>

namespace hydra::power {

PowerModel::PowerModel(const floorplan::Floorplan& fp, EnergyModel energy)
    : energy_(std::move(energy)), leakage_(fp) {}

std::vector<double> PowerModel::block_power(
    const arch::ActivityFrame& frame, util::Volts voltage,
    util::Hertz frequency, const std::vector<double>& celsius) const {
  std::vector<double> watts;
  block_power_into(frame, voltage, frequency, celsius, watts);
  return watts;
}

void PowerModel::block_power_into(const arch::ActivityFrame& frame,
                                  util::Volts voltage, util::Hertz frequency,
                                  const std::vector<double>& celsius,
                                  std::vector<double>& watts) const {
  if (celsius.size() < floorplan::kNumBlocks) {
    throw std::invalid_argument("temperature vector too short");
  }
  watts.resize(floorplan::kNumBlocks);
  // Leakage for all blocks in one batch (the voltage scale and exp-chain
  // constants are hoisted there), then the dynamic term is added on top.
  // a + b is commutative in IEEE arithmetic, so the result is bit-equal
  // to the old per-block (dynamic + leakage) sum.
  leakage_.power_into(celsius, voltage, watts);
  for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
    const auto id = static_cast<floorplan::BlockId>(i);
    watts[i] += energy_.dynamic_power(frame, id, voltage, frequency).value();
  }
}

}  // namespace hydra::power
