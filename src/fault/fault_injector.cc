#include "fault/fault_injector.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace hydra::fault {

FaultInjector::FaultInjector(sensor::SensorBank& bank, FaultCampaign campaign,
                             double time_scale)
    : bank_(bank),
      campaign_(std::move(campaign)),
      time_scale_(time_scale),
      rng_(campaign_.seed()) {
  if (time_scale <= 0.0) {
    throw std::invalid_argument("fault injector time_scale must be positive");
  }
  if (!campaign_.empty() && campaign_.max_sensor() >= bank.count()) {
    throw std::invalid_argument("fault campaign references sensor " +
                                std::to_string(campaign_.max_sensor()) +
                                " but the bank has " +
                                std::to_string(bank.count()));
  }
  last_output_.assign(bank.count(), 0.0);
}

void FaultInjector::sample_into(const std::vector<double>& truth, double t,
                                std::vector<double>& out) {
  const std::size_t n = bank_.count();
  if (truth.size() < n) {
    throw std::invalid_argument("truth vector shorter than sensor bank");
  }
  const double ct = armed_ ? to_campaign_time(t)
                           : -std::numeric_limits<double>::infinity();
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // First active event for this sensor wins; overlapping faults on one
    // sensor are not composed (the earliest-starting one is in effect).
    const FaultEvent* active = nullptr;
    for (const FaultEvent& e : campaign_.events()) {
      if (e.sensor == i && e.active(ct)) {
        active = &e;
        break;
      }
    }
    if (active == nullptr) {
      out[i] = bank_.sample_one(i, truth[i]);
    } else {
      counters_.faulted_samples += 1;
      counters_.by_kind[static_cast<std::size_t>(active->kind)] += 1;
      static const obs::Counter faulted =
          obs::metrics().counter("fault.faulted_samples");
      faulted.add();
      switch (active->kind) {
        case FaultKind::kStuckAt:
          out[i] = active->magnitude;
          break;
        case FaultKind::kDead:
          out[i] = std::numeric_limits<double>::quiet_NaN();
          break;
        case FaultKind::kStale:
          // Hold the last emitted reading; if the fault starts on the
          // very first sample there is no history, so emit the healthy
          // reading once and freeze on it.
          out[i] = have_last_ ? last_output_[i]
                              : bank_.sample_one(i, truth[i]);
          break;
        case FaultKind::kDrift: {
          const double elapsed = ct - active->start_seconds;  // paper-time
          out[i] = bank_.sample_one(i, truth[i]) +
                   active->magnitude * elapsed;
          break;
        }
        case FaultKind::kBurstNoise:
          out[i] = bank_.sample_one(i, truth[i]) +
                   rng_.gaussian(0.0, active->magnitude);
          break;
        case FaultKind::kSpike: {
          const double clean = bank_.sample_one(i, truth[i]);
          out[i] = rng_.chance(active->probability)
                       ? clean + active->magnitude
                       : clean;
          break;
        }
      }
    }
  }
  last_output_ = out;
  have_last_ = true;
}

}  // namespace hydra::fault
