// The driver's settings as one declarative key table, and the
// `key = value` configuration files built on it, so deployments can
// version their prediction settings ("dmlfp run --config prod.conf").
//
// Each table entry names a DriverConfig field once: its config-file key,
// its command-line spelling(s), its type, range and help text.  The same
// table parses config files, renders `dmlfp config-template`, and maps
// the engine flags of `dmlfp run`, `dmlfp train` and `dmlfpd`, so a key
// is validated identically wherever it is set.
//
// File format: one `key = value` per line; '#' comments; unknown keys
// are errors (typos should not silently fall back to defaults).
#pragma once

#include <array>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "online/driver.hpp"

namespace dml::online {

/// One command-line spelling of a key ("--name").  An empty `value`
/// means the flag takes a value ("--window 300"); otherwise the flag is
/// value-less and sets the key to `value` ("--no-reviser" sets
/// use_reviser = false).
struct KeyFlag {
  std::string_view name;
  std::string_view value;
};

struct DriverKey {
  /// The DriverConfig field a key sets; the pointer type is the key's
  /// value type.
  using Field = std::variant<DurationSec*, int*, std::size_t*, double*,
                             bool*, TrainingMode*>;

  std::string_view key;
  /// Command-line spellings; unused slots have an empty name.
  std::array<KeyFlag, 2> flags;
  /// Inclusive range of a numeric key (ignored for bool and mode keys).
  double lo = 0;
  double hi = 0;
  std::string_view help;
  Field (*field)(DriverConfig&);
};

/// Every driver setting, in config-template order.
std::span<const DriverKey> driver_keys();

/// Parses `value` into `key`'s field of `config` with the key's type and
/// range checks.  Returns the error message, or empty on success.
std::string set_driver_key(const DriverKey& key, std::string_view value,
                           DriverConfig& config);

/// Checks that `value` parses whole as an integer (or, with `integer`
/// false, a finite number) in [lo, hi].  Returns the error message, or
/// empty.  Config keys and numeric command-line flags share it.
std::string check_number(std::string_view value, bool integer, double lo,
                         double hi);

struct ConfigError {
  std::size_t line = 0;
  std::string message;
};

/// Parses a config stream into a DriverConfig (starting from defaults).
/// Returns the first error encountered, if any.
std::variant<DriverConfig, ConfigError> parse_driver_config(std::istream& in);

/// Renders a config back to text (every key of the table, current
/// values) — `dmlfp config-template` prints it.
std::string render_driver_config(const DriverConfig& config);

/// Usage lines for the engine flags, one per spelling, each starting
/// with `indent`, generated from the table.  A non-empty `only` restricts
/// them to those spellings.
std::string driver_flags_usage(std::string_view indent,
                               std::span<const std::string_view> only = {});

}  // namespace dml::online
