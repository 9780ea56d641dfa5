// Unit tests for src/sensor.
#include <gtest/gtest.h>

#include <limits>

#include "sensor/sensor.h"
#include "util/units.h"
#include "util/stats.h"

namespace hydra::sensor {
namespace {

using util::CelsiusDelta;
using util::Hertz;

SensorConfig quiet() {
  SensorConfig cfg;
  cfg.enable_noise = false;
  cfg.enable_offset = false;
  cfg.quantization = CelsiusDelta(0.0);
  return cfg;
}

TEST(SensorBank, ExactWithoutNoiseOrOffset) {
  SensorBank bank(3, quiet());
  const auto s = bank.sample({80.0, 85.5, 90.25});
  EXPECT_DOUBLE_EQ(s[0], 80.0);
  EXPECT_DOUBLE_EQ(s[1], 85.5);
  EXPECT_DOUBLE_EQ(s[2], 90.25);
}

TEST(SensorBank, AcceptsLongerTruthVector) {
  // A full thermal-node vector (blocks + package nodes) is accepted; only
  // the per-block prefix is read.
  SensorBank bank(2, quiet());
  const auto s = bank.sample({80.0, 81.0, 999.0, 999.0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[1], 81.0);
}

TEST(SensorBank, RejectsShortTruthVector) {
  SensorBank bank(3, quiet());
  EXPECT_THROW(bank.sample({80.0, 81.0}), std::invalid_argument);
}

TEST(SensorBank, OffsetsAreFixedNegativeAndBounded) {
  SensorConfig cfg;
  cfg.enable_noise = false;
  cfg.quantization = CelsiusDelta(0.0);
  cfg.max_offset = CelsiusDelta(2.0);
  SensorBank bank(50, cfg);
  for (std::size_t i = 0; i < bank.count(); ++i) {
    EXPECT_LE(bank.offset(i).value(), 0.0);
    EXPECT_GE(bank.offset(i).value(), -2.0);
  }
  // Offsets are applied verbatim and stay fixed across samples.
  const auto s1 = bank.sample(std::vector<double>(50, 85.0));
  const auto s2 = bank.sample(std::vector<double>(50, 85.0));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(s1[i], 85.0 + bank.offset(i).value());
    EXPECT_DOUBLE_EQ(s1[i], s2[i]);
  }
}

TEST(SensorBank, NoiseHasConfiguredSpread) {
  SensorConfig cfg;
  cfg.enable_offset = false;
  cfg.quantization = CelsiusDelta(0.0);
  cfg.noise_sigma = CelsiusDelta(0.4);
  SensorBank bank(1, cfg);
  util::RunningStats stats;
  for (int i = 0; i < 20'000; ++i) {
    stats.add(bank.sample({85.0})[0] - 85.0);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.4, 0.02);
}

TEST(SensorBank, EffectivePrecisionIsOneDegree) {
  // Paper: "effective precision after averaging is 1 degree" — 99 % of
  // readings within +/-1 C of truth for the default configuration.
  SensorConfig cfg;
  cfg.enable_offset = false;
  SensorBank bank(1, cfg);
  int within = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(bank.sample({85.0})[0] - 85.0) <= 1.0) ++within;
  }
  EXPECT_GT(within / double(n), 0.97);
}

TEST(SensorBank, QuantizationSnapsToGrid) {
  SensorConfig cfg;
  cfg.enable_noise = false;
  cfg.enable_offset = false;
  cfg.quantization = CelsiusDelta(0.25);
  SensorBank bank(1, cfg);
  const double v = bank.sample({85.13})[0];
  EXPECT_DOUBLE_EQ(v, 85.25);
}

TEST(SensorBank, DeterministicForSeed) {
  SensorConfig cfg;
  cfg.seed = 99;
  SensorBank a(4, cfg);
  SensorBank b(4, cfg);
  for (int i = 0; i < 100; ++i) {
    const auto sa = a.sample({80, 81, 82, 83});
    const auto sb = b.sample({80, 81, 82, 83});
    for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(sa[k], sb[k]);
  }
}

TEST(SensorBank, RejectsBadConfig) {
  SensorConfig cfg;
  cfg.sample_rate = Hertz(0.0);
  EXPECT_THROW(SensorBank(1, cfg), std::invalid_argument);
  cfg = SensorConfig{};
  cfg.sample_rate = Hertz(std::numeric_limits<double>::infinity());
  EXPECT_THROW(SensorBank(1, cfg), std::invalid_argument);
  cfg = SensorConfig{};
  cfg.noise_sigma = CelsiusDelta(-1.0);
  EXPECT_THROW(SensorBank(1, cfg), std::invalid_argument);
  EXPECT_THROW(SensorBank(0, SensorConfig{}), std::invalid_argument);
}

TEST(SensorBank, SampleOnePreservesSharedStreamOrder) {
  // sample() is defined as sample_one() over every index in order, on
  // one shared RNG stream: interleaving the calls by hand must replay
  // bit-identically (the fault injector depends on this).
  SensorConfig cfg;  // noise + offset + quantisation all on
  SensorBank a(3, cfg);
  SensorBank b(3, cfg);
  const std::vector<double> truth = {80.0, 81.5, 83.25};
  for (int k = 0; k < 50; ++k) {
    const auto sa = a.sample(truth);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_DOUBLE_EQ(b.sample_one(i, truth[i]), sa[i]);
    }
  }
}

TEST(SensorBank, SampleOneThrowsOnBadIndex) {
  SensorBank bank(2, quiet());
  EXPECT_THROW(bank.sample_one(2, 80.0), std::out_of_range);
}

}  // namespace
}  // namespace hydra::sensor
