// Shared CLI plumbing for the dmlfp tool family (dmlfp, dmlfpd,
// dmlfp_loadgen): the "--name value" flag parser, the engine flags drawn
// from the driver key table (online/config_file), and the
// --failpoint/--failpoint-seed arming helper.  One definition so every
// front end accepts the same grammar.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/failpoint.hpp"
#include "common/string_util.hpp"
#include "online/config_file.hpp"

namespace dml::tools {

/// Upper caps on thread-starting counts (--threads, --shards,
/// --reactors, --streams): each starts that many OS threads.
inline constexpr long kMaxThreads = 256;
/// Upper bound for counts with no natural cap (seeds, event totals).
inline constexpr double kMaxCount =
    static_cast<double>(std::numeric_limits<long>::max());

/// One flag a command accepts.  kSwitch flags take no value; kInt and
/// kReal values must parse whole and lie in [lo, hi].
struct FlagSpec {
  enum Kind { kText, kSwitch, kInt, kReal };
  std::string_view name;
  Kind kind = kText;
  double lo = 0;
  double hi = 0;
};

/// "--name value" parser over a command's declared flags: an unknown
/// flag, a missing value, or a numeric value that does not parse whole
/// or lies outside its range is an error (--help is always accepted).
class Flags {
 public:
  Flags(int argc, char** argv, int first, std::span<const FlagSpec> accepted) {
    for (int i = first; i < argc && error_.empty(); ++i) {
      const std::string_view arg = argv[i];
      if (arg.substr(0, 2) != "--") {
        error_ = "unexpected argument: " + std::string(arg);
        break;
      }
      const std::string name(arg.substr(2));
      FlagSpec spec{"help", FlagSpec::kSwitch};
      if (name != "help") {
        const auto it = std::find_if(
            accepted.begin(), accepted.end(),
            [&](const FlagSpec& s) { return s.name == name; });
        if (it == accepted.end()) {
          error_ = "unknown flag --" + name;
          break;
        }
        spec = *it;
      }
      if (spec.kind == FlagSpec::kSwitch) {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "missing value for --" + name;
        break;
      }
      const std::string value = argv[++i];
      if (spec.kind == FlagSpec::kInt || spec.kind == FlagSpec::kReal) {
        const std::string error = online::check_number(
            value, spec.kind == FlagSpec::kInt, spec.lo, spec.hi);
        if (!error.empty()) {
          error_ = "--" + name + ": " + error + ", got '" + value + "'";
          break;
        }
      }
      values_[name] = value;
    }
  }

  const std::string& error() const { return error_; }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }

  /// Value of a declared kInt flag (validated at parse time).
  long get_long(const std::string& key, long fallback) const {
    const auto value = get(key);
    return value ? parse_long(*value).value_or(fallback) : fallback;
  }

  /// Value of a declared kReal flag (validated at parse time).
  double get_double(const std::string& key, double fallback) const {
    const auto value = get(key);
    return value ? parse_double(*value).value_or(fallback) : fallback;
  }

  bool has(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

/// The engine flags of the driver key table, as FlagSpecs; a non-empty
/// `only` restricts them to those spellings.  Values are validated by
/// the table when driver_config_from_flags applies them.
inline std::vector<FlagSpec> engine_flags(
    std::span<const std::string_view> only = {}) {
  std::vector<FlagSpec> specs;
  for (const auto& key : online::driver_keys()) {
    for (const auto& flag : key.flags) {
      if (flag.name.empty() ||
          (!only.empty() &&
           std::find(only.begin(), only.end(), flag.name) == only.end())) {
        continue;
      }
      specs.push_back(
          {flag.name, flag.value.empty() ? FlagSpec::kText : FlagSpec::kSwitch});
    }
  }
  return specs;
}

/// The one flags-to-DriverConfig mapping: --config FILE (when given)
/// provides the base, then every engine flag present overrides its key
/// through the table's type and range checks.  On error prints "<who>:
/// ..." to stderr and returns nullopt.
inline std::optional<online::DriverConfig> driver_config_from_flags(
    const Flags& flags, const char* who) {
  online::DriverConfig config;
  if (const auto path = flags.get("config")) {
    std::ifstream file(*path);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open %s\n", who, path->c_str());
      return std::nullopt;
    }
    auto parsed = online::parse_driver_config(file);
    if (const auto* error = std::get_if<online::ConfigError>(&parsed)) {
      std::fprintf(stderr, "%s: %s:%zu: %s\n", who, path->c_str(),
                   error->line, error->message.c_str());
      return std::nullopt;
    }
    config = std::get<online::DriverConfig>(parsed);
  }
  for (const auto& key : online::driver_keys()) {
    for (const auto& flag : key.flags) {
      const std::string name(flag.name);
      if (name.empty() || !flags.has(name)) continue;
      const std::string value =
          flag.value.empty() ? *flags.get(name) : std::string(flag.value);
      const std::string error = online::set_driver_key(key, value, config);
      if (!error.empty()) {
        std::fprintf(stderr, "%s: --%s: %s, got '%s'\n", who, name.c_str(),
                     error.c_str(), value.c_str());
        return std::nullopt;
      }
    }
  }
  config.clock_tick = config.prediction_window;
  return config;
}

/// Arms --failpoint/--failpoint-seed.  `who` names the command for
/// error messages ("dmlfp run", "dmlfpd", ...).  Returns false on a
/// malformed spec.
inline bool arm_failpoints(const Flags& flags, const char* who) {
  if (flags.has("failpoint-seed")) {
    common::FailpointRegistry::instance().reseed(
        static_cast<std::uint64_t>(flags.get_long("failpoint-seed", 0)));
  }
  const auto failpoints = flags.get("failpoint");
  if (!failpoints) return true;
  std::string_view rest = *failpoints;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto assignment = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    std::string error;
    if (!common::FailpointRegistry::instance().arm_from_string(assignment,
                                                               &error)) {
      std::fprintf(stderr, "%s: bad --failpoint '%.*s': %s\n", who,
                   static_cast<int>(assignment.size()), assignment.data(),
                   error.c_str());
      return false;
    }
  }
  return true;
}

/// The --failpoint/--failpoint-seed pair, for a command's flag list.
inline constexpr FlagSpec kFailpointFlags[] = {
    {"failpoint"}, {"failpoint-seed", FlagSpec::kInt, 0, kMaxCount}};

/// Concatenates flag lists into one command's accepted set.
inline std::vector<FlagSpec> flag_list(
    std::initializer_list<std::span<const FlagSpec>> parts) {
  std::vector<FlagSpec> all;
  for (const auto part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

}  // namespace dml::tools
