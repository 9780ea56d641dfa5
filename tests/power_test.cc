// Unit tests for src/power: V-f curve, DVS ladder, dynamic energy model,
// leakage, combined power model.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/activity.h"
#include "floorplan/ev7.h"
#include "power/energy_model.h"
#include "power/leakage.h"
#include "power/power_model.h"
#include "power/voltage_freq.h"
#include "util/units.h"

namespace hydra::power {
namespace {

using floorplan::BlockId;
using util::Hertz;
using util::Volts;

// -------------------------------------------------------- V-f curve
TEST(VoltageFrequency, NominalPointIsExact) {
  const VoltageFrequencyCurve curve;
  EXPECT_NEAR(curve.frequency(Volts(1.3)).value(), 3.0e9, 1.0);
}

TEST(VoltageFrequency, MonotoneIncreasing) {
  const VoltageFrequencyCurve curve;
  double prev = 0.0;
  for (double v = 0.6; v <= 1.3; v += 0.05) {
    const double f = curve.frequency(Volts(v)).value();
    EXPECT_GT(f, prev) << "at " << v;
    prev = f;
  }
}

TEST(VoltageFrequency, SubLinearNearNominal) {
  // Near nominal, a 15 % voltage drop costs less than 15 % frequency —
  // this is what makes DVS's power reduction roughly cubic rather than
  // merely quadratic in the achieved slowdown.
  const VoltageFrequencyCurve curve;
  const double f_ratio =
      curve.frequency(Volts(0.85 * 1.3)) / curve.frequency(Volts(1.3));
  EXPECT_GT(f_ratio, 0.85);
  EXPECT_LT(f_ratio, 0.95);
}

TEST(VoltageFrequency, ThrowsAtOrBelowThreshold) {
  const VoltageFrequencyCurve curve;
  EXPECT_THROW(curve.frequency(Volts(0.35)), std::invalid_argument);
  EXPECT_THROW(curve.frequency(Volts(0.1)), std::invalid_argument);
}

TEST(VoltageFrequency, RejectsBadConstruction) {
  EXPECT_THROW(VoltageFrequencyCurve(Volts(0.3), Hertz(3e9), Volts(0.35), 1.3),
               std::invalid_argument);
  EXPECT_THROW(VoltageFrequencyCurve(Volts(1.3), Hertz(-1.0), Volts(0.35), 1.3),
               std::invalid_argument);
}

// ----------------------------------------------------------- DVS ladder
TEST(DvsLadder, BinaryLadder) {
  const VoltageFrequencyCurve curve;
  const DvsLadder ladder(curve, 2, 0.85);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder.point(0).voltage.value(), 1.3);
  EXPECT_NEAR(ladder.point(1).voltage.value(), 1.105, 1e-12);
  EXPECT_GT(ladder.point(0).frequency, ladder.point(1).frequency);
  EXPECT_EQ(ladder.lowest_level(), 1u);
}

TEST(DvsLadder, VoltagesDescendEvenly) {
  const VoltageFrequencyCurve curve;
  const DvsLadder ladder(curve, 5, 0.8);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(ladder.point(i).voltage, ladder.point(i - 1).voltage);
    EXPECT_LT(ladder.point(i).frequency, ladder.point(i - 1).frequency);
  }
  const Volts step01 = ladder.point(0).voltage - ladder.point(1).voltage;
  const Volts step34 = ladder.point(3).voltage - ladder.point(4).voltage;
  EXPECT_NEAR(step01.value(), step34.value(), 1e-12);
}

TEST(DvsLadder, LevelAtOrBelowQuantisesConservatively) {
  const VoltageFrequencyCurve curve;
  const DvsLadder ladder(curve, 3, 0.8);  // 1.3, 1.17, 1.04
  EXPECT_EQ(ladder.level_at_or_below(Volts(1.3)), 0u);
  EXPECT_EQ(ladder.level_at_or_below(Volts(1.25)), 1u);  // rounds down in voltage
  EXPECT_EQ(ladder.level_at_or_below(Volts(1.17)), 1u);
  EXPECT_EQ(ladder.level_at_or_below(Volts(1.05)), 2u);
  EXPECT_EQ(ladder.level_at_or_below(Volts(0.5)), ladder.lowest_level());
}

TEST(DvsLadder, RejectsBadArguments) {
  const VoltageFrequencyCurve curve;
  EXPECT_THROW(DvsLadder(curve, 1, 0.85), std::invalid_argument);
  EXPECT_THROW(DvsLadder(curve, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(DvsLadder(curve, 2, 1.0), std::invalid_argument);
}

// --------------------------------------------------------- energy model
arch::ActivityFrame frame_with(BlockId id, double events, double cycles) {
  arch::ActivityFrame f;
  f.cycles = cycles;
  f.clocked_cycles = cycles;
  f.add(id, events);
  return f;
}

TEST(EnergyModel, ZeroActivityGivesBasePower) {
  const EnergyModel em;
  arch::ActivityFrame f;
  f.cycles = 1000;
  f.clocked_cycles = 1000;
  const auto& spec = em.spec(BlockId::kIntReg);
  const double p = em.dynamic_power(f, BlockId::kIntReg, Volts(1.3), Hertz(3.0e9)).value();
  EXPECT_NEAR(p, spec.peak_watts * spec.base_fraction, 1e-9);
}

TEST(EnergyModel, FullActivityGivesPeakPower) {
  const EnergyModel em;
  const auto& spec = em.spec(BlockId::kIntReg);
  const auto f = frame_with(BlockId::kIntReg,
                            1000 * spec.max_events_per_cycle, 1000);
  EXPECT_NEAR(em.dynamic_power(f, BlockId::kIntReg, Volts(1.3), Hertz(3.0e9)).value(),
              spec.peak_watts, 1e-9);
}

TEST(EnergyModel, UtilizationClampsAtOne) {
  const EnergyModel em;
  const auto f = frame_with(BlockId::kICache, 1e9, 1000);
  EXPECT_DOUBLE_EQ(em.utilization(f, BlockId::kICache), 1.0);
}

TEST(EnergyModel, VoltageSquaredScaling) {
  const EnergyModel em;
  const auto f = frame_with(BlockId::kIntExec, 2000, 1000);
  const double p_full = em.dynamic_power(f, BlockId::kIntExec, Volts(1.3), Hertz(3.0e9)).value();
  const double p_low = em.dynamic_power(f, BlockId::kIntExec, Volts(0.65), Hertz(3.0e9)).value();
  EXPECT_NEAR(p_low / p_full, 0.25, 1e-9);
}

TEST(EnergyModel, FrequencyLinearScaling) {
  const EnergyModel em;
  const auto f = frame_with(BlockId::kIntExec, 2000, 1000);
  const double p_full = em.dynamic_power(f, BlockId::kIntExec, Volts(1.3), Hertz(3.0e9)).value();
  const double p_half = em.dynamic_power(f, BlockId::kIntExec, Volts(1.3), Hertz(1.5e9)).value();
  EXPECT_NEAR(p_half / p_full, 0.5, 1e-9);
}

TEST(EnergyModel, ClockGatedCyclesBurnNothing) {
  const EnergyModel em;
  arch::ActivityFrame f;
  f.cycles = 1000;
  f.clocked_cycles = 0;  // fully clock-gated interval
  EXPECT_DOUBLE_EQ(em.dynamic_power(f, BlockId::kIntReg, Volts(1.3), Hertz(3.0e9)).value(), 0.0);
}

TEST(EnergyModel, HalfClockedHalvesBasePower) {
  const EnergyModel em;
  arch::ActivityFrame f;
  f.cycles = 1000;
  f.clocked_cycles = 500;
  const auto& spec = em.spec(BlockId::kIntQ);
  EXPECT_NEAR(em.dynamic_power(f, BlockId::kIntQ, Volts(1.3), Hertz(3.0e9)).value(),
              0.5 * spec.peak_watts * spec.base_fraction, 1e-9);
}

TEST(EnergyModel, IntRegHasHighestPeakPowerDensity) {
  // Calibration target: the integer register file must be the densest
  // hot block (the paper's hottest unit for every benchmark).
  const EnergyModel em;
  const auto fp = floorplan::ev7_floorplan();
  const auto density = [&](BlockId id) {
    return em.spec(id).peak_watts /
           fp.block(static_cast<std::size_t>(id)).area();
  };
  const double reg = density(BlockId::kIntReg);
  for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
    const auto id = static_cast<BlockId>(i);
    if (id == BlockId::kIntReg) continue;
    EXPECT_GT(reg, density(id)) << floorplan::block_name(id);
  }
}

// -------------------------------------------------------------- leakage
TEST(Leakage, IncreasesWithTemperature) {
  const LeakageModel lm(floorplan::ev7_floorplan());
  const double p60 = lm.power(BlockId::kIntExec, 60.0, Volts(1.3)).value();
  const double p85 = lm.power(BlockId::kIntExec, 85.0, Volts(1.3)).value();
  const double p110 = lm.power(BlockId::kIntExec, 110.0, Volts(1.3)).value();
  EXPECT_GT(p85, p60);
  EXPECT_GT(p110, p85);
  // Exponential: equal temperature steps give equal ratios.
  EXPECT_NEAR(p85 / p60, p110 / p85, 1e-9);
}

TEST(Leakage, ScalesWithVoltage) {
  const LeakageModel lm(floorplan::ev7_floorplan());
  const double p_full = lm.power(BlockId::kIntExec, 85.0, Volts(1.3)).value();
  const double p_low = lm.power(BlockId::kIntExec, 85.0, Volts(1.105)).value();
  EXPECT_NEAR(p_low / p_full, 0.85, 1e-9);
}

TEST(Leakage, SramLeaksLessPerArea) {
  const auto fp = floorplan::ev7_floorplan();
  const LeakageModel lm(fp);
  const double logic_density =
      lm.power(BlockId::kIntExec, 60.0, Volts(1.3)).value() /
      fp.block(static_cast<std::size_t>(BlockId::kIntExec)).area();
  const double sram_density =
      lm.power(BlockId::kL2, 60.0, Volts(1.3)).value() /
      fp.block(static_cast<std::size_t>(BlockId::kL2)).area();
  EXPECT_GT(logic_density, sram_density);
}

TEST(Leakage, TotalChipLeakageIsRealistic) {
  // At the 0.13 um node leakage should be a noticeable but minority
  // share: a few watts at 85 C across the 256 mm^2 die.
  const auto fp = floorplan::ev7_floorplan();
  const LeakageModel lm(fp);
  double total = 0.0;
  for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
    total += lm.power(static_cast<BlockId>(i), 85.0, Volts(1.3)).value();
  }
  EXPECT_GT(total, 2.0);
  EXPECT_LT(total, 15.0);
}

// ---------------------------------------------------------- power model
TEST(PowerModel, CombinesDynamicAndLeakage) {
  const auto fp = floorplan::ev7_floorplan();
  const PowerModel pm(fp, EnergyModel{});
  arch::ActivityFrame f;
  f.cycles = 1000;
  f.clocked_cycles = 1000;
  const std::vector<double> temps(floorplan::kNumBlocks, 85.0);
  const auto watts = pm.block_power(f, Volts(1.3), Hertz(3.0e9), temps);
  ASSERT_EQ(watts.size(), floorplan::kNumBlocks);
  for (std::size_t i = 0; i < watts.size(); ++i) {
    const auto id = static_cast<BlockId>(i);
    const double expected = pm.energy().dynamic_power(f, id, Volts(1.3), Hertz(3.0e9)).value() +
                            pm.leakage().power(id, 85.0, Volts(1.3)).value();
    EXPECT_NEAR(watts[i], expected, 1e-12);
  }
}

TEST(PowerModel, RejectsShortTemperatureVector) {
  const auto fp = floorplan::ev7_floorplan();
  const PowerModel pm(fp, EnergyModel{});
  arch::ActivityFrame f;
  EXPECT_THROW(pm.block_power(f, Volts(1.3), Hertz(3.0e9), std::vector<double>(3, 80.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hydra::power
