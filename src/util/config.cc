#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace hydra::util {
namespace {

/// Edit distance for "did you mean" hints (small strings, O(n*m)).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    // GNU-style spelling is cosmetic: leading dashes are dropped and
    // dashes inside the key read as underscores, so --summary-json=s.json
    // and summary_json=s.json set the same key. Values keep their dashes.
    std::string_view a = arg;
    while (!a.empty() && a.front() == '-') a.remove_prefix(1);
    const std::size_t eq = a.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("expected key=value argument, got '" + arg +
                                  "'");
    }
    std::string key(trim(a.substr(0, eq)));
    std::replace(key.begin(), key.end(), '-', '_');
    cfg.set(std::move(key), std::string(trim(a.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

std::optional<std::string> Config::find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(std::string_view key,
                               std::string fallback) const {
  const auto v = find(key);
  return v ? *v : std::move(fallback);
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*v, &consumed);
    if (consumed != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + std::string(key) +
                                "': cannot parse '" + *v + "' as double");
  }
}

long long Config::get_int(std::string_view key, long long fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  long long parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), parsed);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    throw std::invalid_argument("config key '" + std::string(key) +
                                "': cannot parse '" + *v + "' as integer");
  }
  return parsed;
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("config key '" + std::string(key) +
                              "': cannot parse '" + *v + "' as bool");
}

void Config::reject_unknown(const std::vector<std::string_view>& allowed,
                            std::source_location where) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    std::string msg = std::string(where.file_name()) + ":" +
                      std::to_string(where.line()) +
                      ": unknown config key '" + key + "'";
    std::string_view best;
    std::size_t best_dist = key.size();
    for (const std::string_view cand : allowed) {
      const std::size_t d = edit_distance(key, cand);
      if (d < best_dist) {
        best_dist = d;
        best = cand;
      }
    }
    if (!best.empty() && best_dist <= 3) {
      msg += " (did you mean '" + std::string(best) + "'?)";
    }
    throw std::invalid_argument(msg);
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::string_view text(v);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string(name) + ": cannot parse '" +
                                std::string(text) +
                                "' as a whole decimal number");
  }
  return parsed;
}

}  // namespace hydra::util
