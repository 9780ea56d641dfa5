// Unit tests for src/util: units, rng, stats, config, csv, table, json,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/config.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace hydra::util {
namespace {

// ---------------------------------------------------------------- units
TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(kelvin_to_celsius(celsius_to_kelvin(85.0)), 85.0);
}

TEST(Units, CyclesSecondsConversion) {
  EXPECT_DOUBLE_EQ(cycles_to_seconds(3.0e9, 3.0e9), 1.0);
  EXPECT_EQ(seconds_to_cycles(1.0, 3.0e9), 3'000'000'000LL);
  // Rounds up partial cycles.
  EXPECT_EQ(seconds_to_cycles(1.1e-9, 1.0e9), 2);
  EXPECT_EQ(seconds_to_cycles(1.0e-9, 1.0e9), 1);
}

// ------------------------------------------------------------------ rng
TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BelowIsBounded) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(9);
  std::array<int, 7> seen{};
  for (int i = 0; i < 10'000; ++i) ++seen[rng.below(7)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(19);
  const double p = 0.25;
  RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.geometric(p, 1000));
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(Rng, GeometricEdgeCases) {
  Rng rng(23);
  EXPECT_EQ(rng.geometric(1.0, 10), 0);
  EXPECT_EQ(rng.geometric(0.0, 10), 10);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.geometric(0.01, 5), 5);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------- stats
TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, PairedTStatisticKnown) {
  // Differences all equal: sd = 0 -> conventionally returns 0? No:
  // constant non-zero differences are infinitely significant, but our
  // helper returns 0 only when the mean is also 0.
  const double a[] = {1.0, 2.0, 3.0, 4.0};
  const double b[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(paired_t_statistic(a, b), 0.0);
}

TEST(Stats, PairedTStatisticSignificant) {
  const double a[] = {1.10, 1.22, 1.15, 1.30, 1.18};
  const double b[] = {1.00, 1.08, 1.02, 1.12, 1.05};
  const double t = paired_t_statistic(a, b);
  EXPECT_GT(t, t_critical_99(4));  // clearly significant
}

TEST(Stats, TCriticalTableValues) {
  EXPECT_NEAR(t_critical_99(1), 63.657, 1e-3);
  EXPECT_NEAR(t_critical_99(8), 3.355, 1e-3);
  EXPECT_NEAR(t_critical_99(30), 2.750, 1e-3);
  EXPECT_NEAR(t_critical_99(1000), 2.576, 1e-3);
}

TEST(Stats, ConfidenceHalfWidthShrinksWithN) {
  Rng rng(31);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 10; ++i) small.push_back(rng.gaussian(0, 1));
  for (int i = 0; i < 1000; ++i) large.push_back(rng.gaussian(0, 1));
  EXPECT_GT(confidence_half_width_99(small),
            confidence_half_width_99(large));
}

// --------------------------------------------------------------- config
TEST(Config, ParsesKeyValues) {
  const auto cfg = Config::from_args({"a = 1", "b= hello", "b=hi"});
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "hi");  // the last spelling wins
  EXPECT_EQ(cfg.get_string("x", "unset"), "unset");
}

TEST(Config, TypedGettersAndFallbacks) {
  auto cfg = Config::from_args({"d=2.5", "flag=true", "n=-7"});
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 9.0), 9.0);
  EXPECT_FALSE(cfg.get_bool("missing", false));
}

TEST(Config, MalformedValuesThrow) {
  auto cfg = Config::from_args({"d=abc", "b=maybe", "n=1.5"});
  EXPECT_THROW(cfg.get_double("d", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"=x"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"--=x"}), std::invalid_argument);
}

TEST(Config, FromArgsMapsDashesInKeysToUnderscores) {
  const auto cfg = Config::from_args(
      {"--workload-threads=2", "-cache-dir=run-cache", "summary_json=s-1.json",
       "--trace=t.json"});
  EXPECT_EQ(cfg.get_int("workload_threads", 0), 2);
  // Only keys are mapped: values keep their dashes.
  EXPECT_EQ(cfg.get_string("cache_dir", ""), "run-cache");
  EXPECT_EQ(cfg.get_string("summary_json", ""), "s-1.json");
  EXPECT_EQ(cfg.get_string("trace", ""), "t.json");
  EXPECT_EQ(cfg.get_string("workload-threads", "unset"), "unset");
  // Exactly the four underscore keys: any leftover dashed key is unknown.
  EXPECT_NO_THROW(cfg.reject_unknown(
      {"workload_threads", "cache_dir", "summary_json", "trace"}));
}

// ------------------------------------------------------------------ csv
TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"x", "y"});
  w.row_numeric({1.5, 2.0});
  EXPECT_EQ(out.str(), "x,y\n1.5,2\n");
}

TEST(Csv, DoubleRoundTrips) {
  const double v = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(std::stod(CsvWriter::format_double(v)), v);
}

// ---------------------------------------------------------------- table
TEST(Table, AlignsColumns) {
  AsciiTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::percent(0.256, 1), "25.6%");
}

// ---------------------------------------------------------- thread pool
// A raw submit() job that throws is contained by the worker loop: the
// only worker of a width-1 pool survives it and runs the next job.
TEST(ThreadPool, ThrowingRawJobLeavesWorkerServing) {
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("raw job failure"); });
  pool.submit([] { throw 42; });  // not a std::exception either
  std::promise<int> ran;
  std::future<int> later = ran.get_future();
  pool.submit([&ran] { ran.set_value(7); });
  ASSERT_EQ(later.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(later.get(), 7);
}

// ------------------------------------------------------------------ json
TEST(Json, ScalarsAndNesting) {
  std::ostringstream out;
  util::JsonWriter w(out, 0);
  w.begin_object();
  w.key("name").value("crafty");
  w.key("slowdown").value(1.5);
  w.key("count").value(42);
  w.key("safe").value(true);
  w.key("tags").begin_array();
  w.value("a");
  w.value("b");
  w.end_array();
  w.end_object();
  const std::string s = out.str();
  EXPECT_NE(s.find("\"name\": \"crafty\""), std::string::npos);
  EXPECT_NE(s.find("\"slowdown\": 1.5"), std::string::npos);
  EXPECT_NE(s.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(s.find("\"safe\": true"), std::string::npos);
  EXPECT_NE(s.find("\"a\""), std::string::npos);
}

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(util::JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::JsonWriter::escape("a\nb"), "a\\nb");
  EXPECT_EQ(util::JsonWriter::escape(std::string("a\x01") + "b"),
            "a\\u0001b");
}

TEST(Json, CommasBetweenSiblingsOnly) {
  std::ostringstream out;
  util::JsonWriter w(out, 0);
  w.begin_array();
  w.value(1.0);
  w.value(2.0);
  w.value(3.0);
  w.end_array();
  std::string s = out.str();
  // Exactly two commas for three siblings.
  EXPECT_EQ(std::count(s.begin(), s.end(), ','), 2);
}

TEST(Json, NonFiniteBecomesNull) {
  std::ostringstream out;
  util::JsonWriter w(out, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_NE(out.str().find("null"), std::string::npos);
}

}  // namespace
}  // namespace hydra::util
