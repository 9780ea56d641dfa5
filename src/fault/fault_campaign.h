// Sensor-fault campaign: a deterministic, seedable schedule of per-sensor
// fault events.
//
// The paper's sensor model (Section 3) covers only benign imperfection —
// Gaussian noise and a fixed offset. Real on-chip sensors also fail:
// they stick, die, drift out of calibration, pick up supply noise, or
// return stale values when their digital readout path stalls. A campaign
// describes *when* and *how* each sensor misbehaves so that DTM policies
// can be stress-tested against sensor failure, not just sensor noise.
//
// Campaigns are written in a small line-oriented text format ('#' starts
// a comment):
//
//   <sensor> <kind> <start_s> <duration_s> [magnitude] [probability]
//
//   IntReg  stuck_at  0.0005  inf   40        # reads 40 C forever
//   Dcache  dead      0.001   0.002           # NaN for 2 ms
//   all     burst_noise 0.0   0.001 5.0       # +sigma=5 C on every sensor
//   7       spike     0.0     inf   30 0.01   # +30 C glitch, 1 % of samples
//
// `sensor` is a block name, a numeric index, or `all`. Times are in
// paper-time seconds relative to the start of the *measured* window
// (negative starts cover warm-up). `inf` means "until the end of the
// run". Magnitude is kind-specific: stuck value [C], drift rate [C/s],
// extra noise sigma [C] or spike height [C]; it is ignored for dead and
// stale faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hydra::fault {

enum class FaultKind {
  kStuckAt,     ///< reading pinned to a constant value
  kDead,        ///< reading is NaN (sensor absent from the readout chain)
  kStale,       ///< reading frozen at the last pre-fault output
  kDrift,       ///< reading ramps away from truth at a constant rate
  kBurstNoise,  ///< extra Gaussian noise on top of the normal model
  kSpike,       ///< occasional single-sample outliers of fixed height
};

inline constexpr std::size_t kNumFaultKinds = 6;

std::string_view fault_kind_name(FaultKind kind);

/// Parse a kind token ("stuck_at", "dead", ...). Throws
/// std::invalid_argument on an unknown token.
FaultKind parse_fault_kind(std::string_view token);

/// One scheduled fault on one sensor.
struct FaultEvent {
  std::size_t sensor = 0;  ///< sensor (= block) index
  FaultKind kind = FaultKind::kStuckAt;
  /// Start time [s, paper-time] relative to the measured window's start.
  double start_seconds = 0.0;
  /// Duration [s, paper-time]; infinity = until the end of the run.
  double duration_seconds = 0.0;
  /// Kind-specific magnitude: stuck value [C], drift rate [C/s], burst
  /// noise sigma [C], spike height [C]. Unused for dead/stale.
  double magnitude = 0.0;
  /// kSpike only: per-sample probability of a spike.
  double probability = 1.0;

  double end_seconds() const { return start_seconds + duration_seconds; }
  bool active(double t) const {
    return t >= start_seconds && t < end_seconds();
  }
};

/// An immutable schedule of fault events plus the seed for the stochastic
/// fault realisations (burst noise draws, spike timing). Two campaigns
/// with the same events and seed inject bit-identical corruption.
class FaultCampaign {
 public:
  FaultCampaign() = default;
  explicit FaultCampaign(std::vector<FaultEvent> events,
                         std::uint64_t seed = 0xFA017);

  /// Parse the text format described above. `sensor_names` maps name
  /// tokens to indices (typically the floorplan block names). A
  /// `seed = <n>` line overrides the campaign seed. Throws
  /// std::invalid_argument with line context on any malformed input,
  /// including non-finite times/magnitudes where they are not allowed.
  static FaultCampaign from_string(
      std::string_view text,
      const std::vector<std::string_view>& sensor_names);

  /// Load from a file via from_string. Throws std::runtime_error when
  /// the file cannot be read; parse errors carry "<path>:<line>" context.
  static FaultCampaign from_file(
      const std::string& path,
      const std::vector<std::string_view>& sensor_names);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::uint64_t seed() const { return seed_; }
  bool empty() const { return events_.empty(); }

  /// True if any event is active at time `t` [s, paper-time, relative to
  /// the measured window].
  bool any_active(double t) const;

  /// Largest sensor index referenced, or 0 for an empty campaign.
  std::size_t max_sensor() const;

 private:
  std::vector<FaultEvent> events_;
  std::uint64_t seed_ = 0xFA017;
};

}  // namespace hydra::fault
