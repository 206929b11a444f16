// Small string helpers used by the log text format and report printers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dml {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view text, char delim);

std::string_view trim(std::string_view text);

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII.
std::string to_lower(std::string_view text);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Whole-string numeric parses: the entire text must be one number (no
/// sign-only, trailing garbage or whitespace), else nullopt.  Shared by
/// config files and command-line flags so both reject the same inputs.
std::optional<long> parse_long(std::string_view text);
std::optional<double> parse_double(std::string_view text);

}  // namespace dml
