// Unit tests for src/fault: campaign parsing and the injector's fault
// realisations, including deterministic replay.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "fault/fault_campaign.h"
#include "fault/fault_injector.h"
#include "sensor/sensor.h"

namespace hydra::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string_view> names() { return {"A", "B", "C"}; }

sensor::SensorConfig quiet() {
  sensor::SensorConfig cfg;
  cfg.enable_noise = false;
  cfg.enable_offset = false;
  cfg.quantization = util::CelsiusDelta(0.0);
  return cfg;
}

/// One reading per sensor at scaled time `t`, through the injector's
/// allocation-free sample_into (the only sampling path runs use).
std::vector<double> sample(FaultInjector& inj, const std::vector<double>& truth,
                           double t) {
  std::vector<double> out;
  inj.sample_into(truth, t, out);
  return out;
}

/// Expect `fn` to throw std::invalid_argument whose message contains
/// `needle` (used to pin the file:line context of parse errors).
template <typename Fn>
void expect_error_containing(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------------- parsing

TEST(FaultCampaign, ParsesNamesIndicesAndAll) {
  const FaultCampaign c = FaultCampaign::from_string(
      "# comment\n"
      "seed 7\n"
      "B stuck_at 0.001 inf 40\n"
      "2 dead 0.002 0.003\n"
      "all burst_noise 0 0.001 5.0\n",
      names());
  EXPECT_EQ(c.seed(), 7u);
  ASSERT_EQ(c.events().size(), 5u);  // 1 + 1 + 3 ("all" fans out)
  // Events are sorted by start time.
  EXPECT_EQ(c.events()[0].kind, FaultKind::kBurstNoise);
  const FaultEvent& stuck = c.events()[3];
  EXPECT_EQ(stuck.sensor, 1u);
  EXPECT_EQ(stuck.kind, FaultKind::kStuckAt);
  EXPECT_DOUBLE_EQ(stuck.magnitude, 40.0);
  EXPECT_TRUE(std::isinf(stuck.duration_seconds));
  EXPECT_EQ(c.events()[4].sensor, 2u);
  EXPECT_EQ(c.events()[4].kind, FaultKind::kDead);
}

TEST(FaultCampaign, ActivityWindow) {
  const FaultCampaign c =
      FaultCampaign::from_string("A stale 0.001 0.002\n", names());
  EXPECT_FALSE(c.any_active(0.0005));
  EXPECT_TRUE(c.any_active(0.0015));
  EXPECT_TRUE(c.any_active(0.0029));
  EXPECT_FALSE(c.any_active(0.0031));
}

TEST(FaultCampaign, ErrorsCarryLineContext) {
  expect_error_containing(
      [] { FaultCampaign::from_string("A stuck_at 0.001\n", names()); },
      "line 1");
  expect_error_containing(
      [] {
        FaultCampaign::from_string("A dead 0 inf\nXYZ dead 0 inf\n", names());
      },
      "line 2: unknown sensor 'XYZ'");
  expect_error_containing(
      [] { FaultCampaign::from_string("A melt 0 inf\n", names()); },
      "unknown fault kind 'melt'");
  expect_error_containing(
      [] { FaultCampaign::from_string("A dead 0 -1\n", names()); },
      "duration must be positive");
  expect_error_containing(
      [] { FaultCampaign::from_string("A dead 0 inf extra junk2\n", names()); },
      "line 1");
}

TEST(FaultCampaign, RejectsNonFiniteNumbers) {
  expect_error_containing(
      [] { FaultCampaign::from_string("A stuck_at nan inf 40\n", names()); },
      "start must be finite");
  expect_error_containing(
      [] { FaultCampaign::from_string("A stuck_at inf inf 40\n", names()); },
      "start may not be infinite");
  expect_error_containing(
      [] { FaultCampaign::from_string("A stuck_at 0 inf nan\n", names()); },
      "magnitude must be finite");
  expect_error_containing(
      [] { FaultCampaign::from_string("A spike 0 inf 30 1.5\n", names()); },
      "probability");
}

// ------------------------------------------------------------ injector

TEST(FaultInjector, InactiveUntilOriginIsSet) {
  sensor::SensorBank bank(3, quiet());
  const FaultCampaign c =
      FaultCampaign::from_string("A stuck_at 0 inf 40\n", names());
  FaultInjector inj(bank, c, 1.0);
  EXPECT_FALSE(inj.any_active(100.0));
  EXPECT_DOUBLE_EQ(sample(inj, {80, 81, 82}, 100.0)[0], 80.0);
  inj.set_origin(100.0);
  EXPECT_TRUE(inj.any_active(100.0));
  EXPECT_DOUBLE_EQ(sample(inj, {80, 81, 82}, 100.0)[0], 40.0);
  EXPECT_DOUBLE_EQ(sample(inj, {80, 81, 82}, 100.0)[1], 81.0);
}

TEST(FaultInjector, StuckDeadAndWindowEnd) {
  sensor::SensorBank bank(3, quiet());
  const FaultCampaign c = FaultCampaign::from_string(
      "A stuck_at 0.0 1.0 40\n"
      "B dead 0.0 1.0\n",
      names());
  FaultInjector inj(bank, c, 1.0);
  inj.set_origin(0.0);
  const auto during = sample(inj, {80, 81, 82}, 0.5);
  EXPECT_DOUBLE_EQ(during[0], 40.0);
  EXPECT_TRUE(std::isnan(during[1]));
  EXPECT_DOUBLE_EQ(during[2], 82.0);
  const auto after = sample(inj, {80, 81, 82}, 1.5);
  EXPECT_DOUBLE_EQ(after[0], 80.0);
  EXPECT_DOUBLE_EQ(after[1], 81.0);
  EXPECT_EQ(inj.counters().faulted_samples, 2u);
  EXPECT_EQ(inj.counters().by_kind[static_cast<std::size_t>(
                FaultKind::kStuckAt)],
            1u);
}

TEST(FaultInjector, StaleHoldsLastReading) {
  sensor::SensorBank bank(2, quiet());
  const FaultCampaign c =
      FaultCampaign::from_string("A stale 1.0 inf\n", {"A", "B"});
  FaultInjector inj(bank, c, 1.0);
  inj.set_origin(0.0);
  EXPECT_DOUBLE_EQ(sample(inj, {70, 71}, 0.5)[0], 70.0);
  // Truth moves on; the stale sensor keeps reporting the last output.
  EXPECT_DOUBLE_EQ(sample(inj, {90, 91}, 1.5)[0], 70.0);
  EXPECT_DOUBLE_EQ(sample(inj, {95, 96}, 2.0)[0], 70.0);
  EXPECT_DOUBLE_EQ(sample(inj, {95, 96}, 2.0)[1], 96.0);
}

TEST(FaultInjector, DriftRampsInPaperTime) {
  sensor::SensorBank bank(1, quiet());
  const FaultCampaign c =
      FaultCampaign::from_string("A drift 1.0 inf -10\n", {"A"});
  // time_scale 40: scaled time t maps to paper time 40 t.
  FaultInjector inj(bank, c, 40.0);
  inj.set_origin(0.0);
  // Scaled t = 0.05 -> paper 2.0 s -> 1.0 s into the drift -> -10 C.
  EXPECT_NEAR(sample(inj, {80}, 0.05)[0], 70.0, 1e-9);
  // Scaled t = 0.075 -> paper 3.0 s -> 2.0 s in -> -20 C.
  EXPECT_NEAR(sample(inj, {80}, 0.075)[0], 60.0, 1e-9);
}

TEST(FaultInjector, DeterministicReplayForFixedSeed) {
  const FaultCampaign c = FaultCampaign::from_string(
      "seed 1234\n"
      "A burst_noise 0 inf 5\n"
      "B spike 0 inf 30 0.3\n",
      names());
  sensor::SensorConfig noisy;  // default: noise + offset + quantisation
  auto run = [&] {
    sensor::SensorBank bank(3, noisy);
    FaultInjector inj(bank, c, 1.0);
    inj.set_origin(0.0);
    std::vector<double> out;
    for (int k = 0; k < 200; ++k) {
      for (double v : sample(inj, {80, 81, 82}, 0.0001 * k)) out.push_back(v);
    }
    return out;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  auto run = [&](std::uint64_t seed) {
    FaultCampaign c({{0, FaultKind::kBurstNoise, 0.0, kInf, 5.0, 1.0}}, seed);
    sensor::SensorBank bank(1, quiet());
    FaultInjector inj(bank, c, 1.0);
    inj.set_origin(0.0);
    double sum = 0.0;
    for (int k = 0; k < 50; ++k) sum += sample(inj, {80}, 0.0001 * k)[0];
    return sum;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(FaultInjector, RejectsBadConstruction) {
  sensor::SensorBank bank(2, quiet());
  const FaultCampaign c =
      FaultCampaign::from_string("C dead 0 inf\n", names());
  EXPECT_THROW(FaultInjector(bank, c, 1.0), std::invalid_argument);
  EXPECT_THROW(FaultInjector(bank, FaultCampaign{}, 0.0),
               std::invalid_argument);
}

TEST(FaultInjector, HealthySensorsMatchBankStream) {
  // With no active fault the injector's output is bit-identical to the
  // bank's own sample() stream (same shared RNG draw order).
  sensor::SensorConfig noisy;
  sensor::SensorBank a(3, noisy);
  sensor::SensorBank b(3, noisy);
  FaultInjector inj(a, FaultCampaign{}, 1.0);
  for (int k = 0; k < 20; ++k) {
    const auto sa = sample(inj, {80, 81, 82}, 0.001 * k);
    const auto sb = b.sample({80, 81, 82});
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
  }
}

}  // namespace
}  // namespace hydra::fault
