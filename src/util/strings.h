#ifndef IUAD_UTIL_STRINGS_H_
#define IUAD_UTIL_STRINGS_H_

/// \file strings.h
/// Small string utilities used throughout the library (record parsing,
/// title tokenization support, table formatting).

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace iuad {

/// Splits `s` on `sep`, keeping empty fields (TSV semantics).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

/// Right-pads `s` with spaces to width `w`.
std::string PadRight(std::string_view s, size_t w);

/// Parses the whole of `s` as a T: a base-10 integer, or a finite decimal
/// double. nullopt on anything else — empty input, leading whitespace or
/// '+', trailing junk ("12x"), out of range, or nan/inf.
template <typename T>
std::optional<T> ParseNumber(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

}  // namespace iuad

#endif  // IUAD_UTIL_STRINGS_H_
