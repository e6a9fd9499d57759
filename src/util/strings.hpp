#pragma once
// String helpers shared by the BLIF / genlib parsers and the table printers.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace minpower {

/// Split `s` on any run of characters from `delims`, skipping empty fields.
inline std::vector<std::string_view> split_ws(std::string_view s,
                                              std::string_view delims = " \t\r\n") {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t start = s.find_first_not_of(delims, i);
    if (start == std::string_view::npos) break;
    const std::size_t end = s.find_first_of(delims, start);
    out.push_back(s.substr(start, (end == std::string_view::npos ? s.size() : end) - start));
    i = (end == std::string_view::npos) ? s.size() : end;
  }
  return out;
}

inline std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

inline std::optional<double> parse_double(std::string_view s) {
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

/// parse_double limited to finite values: "inf" and "nan" are rejected.
inline std::optional<double> parse_finite_double(std::string_view s) {
  const std::optional<double> value = parse_double(s);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

/// Strict unsigned decimal: the whole string must be digits (no sign, no
/// whitespace, no trailing garbage) and fit in 64 bits — unlike atoi, which
/// maps junk to 0, and strtoull, which accepts "-1" and " +5".
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

inline std::optional<long> parse_long(std::string_view s) {
  long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace minpower
