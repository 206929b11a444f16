#include "common/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace dml {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += separator;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
  std::string out;
  if (from.empty()) return std::string(text);
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::optional<long> parse_long(std::string_view text) {
  long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace dml
