// Minimal key/value configuration store.
//
// Experiments and examples accept `key=value` overrides from argv. Typed
// getters fail loudly on malformed values rather than silently
// defaulting, per the fail-fast philosophy of the rest of the library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <source_location>
#include <string>
#include <string_view>
#include <vector>

namespace hydra::util {

class Config {
 public:
  Config() = default;

  /// Parse argv-style overrides ("key=value" each). Leading dashes are
  /// dropped and '-' in a key reads as '_' ("--cache-dir=x" sets
  /// cache_dir). Unrecognised shapes throw std::invalid_argument.
  static Config from_args(const std::vector<std::string>& args);

  /// Set/overwrite a key.
  void set(std::string key, std::string value);

  /// Typed getters: return the parsed value, or `fallback` when the key is
  /// absent. Throw std::invalid_argument when present but unparseable.
  std::string get_string(std::string_view key, std::string fallback) const;
  double get_double(std::string_view key, double fallback) const;
  long long get_int(std::string_view key, long long fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  /// Fail fast on option typos: throw std::invalid_argument when this
  /// config holds a key outside `allowed`. The message is a one-line
  /// diagnostic carrying the caller's file:line and the offending key
  /// (plus the closest allowed spelling), so tools exit with an
  /// actionable error instead of silently ignoring a misspelt flag.
  void reject_unknown(
      const std::vector<std::string_view>& allowed,
      std::source_location where = std::source_location::current()) const;

 private:
  std::optional<std::string> find(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
};

/// The environment variable `name` as a whole unsigned decimal, or
/// `fallback` when it is unset or empty. Throws std::invalid_argument
/// naming the variable on anything else (sign, exponent, trailing
/// characters, overflow).
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace hydra::util
