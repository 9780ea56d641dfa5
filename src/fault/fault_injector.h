// Applies a FaultCampaign to a sensor::SensorBank's readings.
//
// The injector sits between the physical-truth temperatures and the DTM
// policy: healthy sensors sample normally (noise + offset + quantisation),
// faulted sensors produce the campaign's corruption instead. It keeps the
// per-sensor state the fault models need (last output for stale faults)
// and a deterministic RNG stream, seeded from the campaign, for the
// stochastic realisations (burst noise, spike timing) — so a campaign
// replays bit-identically for a fixed seed.
//
// Campaign event times are paper-time seconds relative to an *origin*
// (the start of the measured window); the simulator runs on scaled time,
// so the injector converts via the same time_scale knob as every other
// duration. Until set_origin() is called no fault is active.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault_campaign.h"
#include "sensor/sensor.h"
#include "util/rng.h"

namespace hydra::fault {

/// Tally of injected corruption, per fault kind.
struct FaultCounters {
  /// Sensor-samples whose reading was altered by the injector.
  std::uint64_t faulted_samples = 0;
  std::array<std::uint64_t, kNumFaultKinds> by_kind{};
};

class FaultInjector {
 public:
  /// `bank` must outlive the injector. `time_scale` is the simulator's
  /// time-compression factor (SimConfig::time_scale). Throws
  /// std::invalid_argument when the campaign references a sensor the
  /// bank does not have or time_scale is not positive.
  FaultInjector(sensor::SensorBank& bank, FaultCampaign campaign,
                double time_scale);

  /// Anchor the campaign's t = 0 to scaled simulation time `t0`.
  void set_origin(double t0) {
    origin_ = t0;
    armed_ = true;
  }

  /// Sample every sensor at scaled simulation time `t` into `out`
  /// (resized to the bank size), corrupting the readings of sensors
  /// with an active fault. `truth` follows the same convention as
  /// SensorBank::sample (per-block prefix is read). Allocation-free once
  /// `out` has its size.
  void sample_into(const std::vector<double>& truth, double t,
                   std::vector<double>& out);

  /// True when at least one fault is active at scaled time `t`.
  bool any_active(double t) const {
    return armed_ && campaign_.any_active(to_campaign_time(t));
  }

  const FaultCampaign& campaign() const { return campaign_; }
  const FaultCounters& counters() const { return counters_; }

 private:
  double to_campaign_time(double t) const {
    return (t - origin_) * time_scale_;
  }

  sensor::SensorBank& bank_;
  FaultCampaign campaign_;
  double time_scale_;
  util::Rng rng_;
  FaultCounters counters_;
  bool armed_ = false;
  double origin_ = 0.0;
  /// Last emitted reading per sensor, for stale faults.
  std::vector<double> last_output_;
  bool have_last_ = false;
};

}  // namespace hydra::fault
