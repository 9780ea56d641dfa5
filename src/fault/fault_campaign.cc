#include "fault/fault_campaign.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hydra::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void parse_fail(int line_no, const std::string& what) {
  throw std::invalid_argument("fault campaign line " +
                              std::to_string(line_no) + ": " + what);
}

/// Parse a double token, accepting "inf" where `allow_inf` is set and
/// rejecting NaN and trailing garbage.
double parse_number(const std::string& token, int line_no,
                    const char* field, bool allow_inf) {
  if (token == "inf" || token == "+inf") {
    if (allow_inf) return kInf;
    parse_fail(line_no, std::string(field) + " may not be infinite");
  }
  double v = 0.0;
  std::size_t consumed = 0;
  try {
    v = std::stod(token, &consumed);
  } catch (const std::exception&) {
    parse_fail(line_no, std::string("cannot parse ") + field + " '" + token +
                            "' as a number");
  }
  if (consumed != token.size()) {
    parse_fail(line_no, std::string("trailing characters in ") + field +
                            " '" + token + "'");
  }
  if (std::isnan(v) || (!allow_inf && std::isinf(v))) {
    parse_fail(line_no,
               std::string(field) + " must be finite, got '" + token + "'");
  }
  return v;
}

std::size_t resolve_sensor(const std::string& token, int line_no,
                           const std::vector<std::string_view>& names) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == token) return i;
  }
  // Fall back to a numeric index.
  try {
    std::size_t consumed = 0;
    const unsigned long idx = std::stoul(token, &consumed);
    if (consumed == token.size() && idx < names.size()) return idx;
  } catch (const std::exception&) {
  }
  parse_fail(line_no, "unknown sensor '" + token + "'");
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt:
      return "stuck_at";
    case FaultKind::kDead:
      return "dead";
    case FaultKind::kStale:
      return "stale";
    case FaultKind::kDrift:
      return "drift";
    case FaultKind::kBurstNoise:
      return "burst_noise";
    case FaultKind::kSpike:
      return "spike";
  }
  return "?";
}

FaultKind parse_fault_kind(std::string_view token) {
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (fault_kind_name(kind) == token) return kind;
  }
  throw std::invalid_argument("unknown fault kind '" + std::string(token) +
                              "'");
}

FaultCampaign::FaultCampaign(std::vector<FaultEvent> events,
                             std::uint64_t seed)
    : events_(std::move(events)), seed_(seed) {
  for (const FaultEvent& e : events_) {
    if (std::isnan(e.start_seconds) || std::isnan(e.duration_seconds) ||
        e.duration_seconds <= 0.0) {
      throw std::invalid_argument("fault event needs a positive duration");
    }
    if (!std::isfinite(e.magnitude)) {
      throw std::invalid_argument("fault magnitude must be finite");
    }
    if (e.probability <= 0.0 || e.probability > 1.0) {
      throw std::invalid_argument("fault probability must be in (0, 1]");
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start_seconds < b.start_seconds;
                   });
}

FaultCampaign FaultCampaign::from_string(
    std::string_view text, const std::vector<std::string_view>& names) {
  std::vector<FaultEvent> events;
  std::uint64_t seed = FaultCampaign().seed_;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;  // blank line

    if (first == "seed") {
      std::string eq_or_value;
      if (!(fields >> eq_or_value)) parse_fail(line_no, "seed needs a value");
      if (eq_or_value == "=" && !(fields >> eq_or_value)) {
        parse_fail(line_no, "seed needs a value");
      }
      try {
        seed = std::stoull(eq_or_value);
      } catch (const std::exception&) {
        parse_fail(line_no, "cannot parse seed '" + eq_or_value + "'");
      }
      continue;
    }

    std::string kind_tok;
    std::string start_tok;
    std::string dur_tok;
    if (!(fields >> kind_tok >> start_tok >> dur_tok)) {
      parse_fail(line_no,
                 "expected <sensor> <kind> <start_s> <duration_s> "
                 "[magnitude] [probability]");
    }
    FaultEvent ev;
    ev.kind = [&] {
      try {
        return parse_fault_kind(kind_tok);
      } catch (const std::invalid_argument& e) {
        parse_fail(line_no, e.what());
      }
    }();
    ev.start_seconds = parse_number(start_tok, line_no, "start", false);
    ev.duration_seconds = parse_number(dur_tok, line_no, "duration", true);
    if (ev.duration_seconds <= 0.0) {
      parse_fail(line_no, "duration must be positive");
    }
    std::string mag_tok;
    if (fields >> mag_tok) {
      ev.magnitude = parse_number(mag_tok, line_no, "magnitude", false);
    }
    std::string prob_tok;
    if (fields >> prob_tok) {
      ev.probability = parse_number(prob_tok, line_no, "probability", false);
      if (ev.probability <= 0.0 || ev.probability > 1.0) {
        parse_fail(line_no, "probability must be in (0, 1]");
      }
    }
    std::string extra;
    if (fields >> extra) {
      parse_fail(line_no, "unexpected trailing field '" + extra + "'");
    }

    if (first == "all") {
      for (std::size_t i = 0; i < names.size(); ++i) {
        ev.sensor = i;
        events.push_back(ev);
      }
    } else {
      ev.sensor = resolve_sensor(first, line_no, names);
      events.push_back(ev);
    }
  }
  return FaultCampaign(std::move(events), seed);
}

FaultCampaign FaultCampaign::from_file(
    const std::string& path, const std::vector<std::string_view>& names) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read fault campaign file '" + path +
                             "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_string(text.str(), names);
  } catch (const std::invalid_argument& e) {
    // Prefix the file path so "fault campaign line N" becomes locatable.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

bool FaultCampaign::any_active(double t) const {
  for (const FaultEvent& e : events_) {
    if (e.active(t)) return true;
  }
  return false;
}

std::size_t FaultCampaign::max_sensor() const {
  std::size_t m = 0;
  for (const FaultEvent& e : events_) m = std::max(m, e.sensor);
  return m;
}

}  // namespace hydra::fault
