#ifndef IUAD_UTIL_STRINGS_H_
#define IUAD_UTIL_STRINGS_H_

/// \file strings.h
/// Small string utilities used throughout the library (record parsing,
/// title tokenization support, table formatting).

#include <string>
#include <string_view>
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

}  // namespace iuad

#endif  // IUAD_UTIL_STRINGS_H_
