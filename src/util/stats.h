#ifndef IUAD_UTIL_STATS_H_
#define IUAD_UTIL_STATS_H_

/// \file stats.h
/// Statistics helpers backing the paper's descriptive analysis (Fig. 3).

#include <cstdint>
#include <map>
#include <vector>

namespace iuad {

/// Sample mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Population variance (MLE denominator N, matching the EM updates of
/// Table I); 0 for inputs with fewer than one element.
double Variance(const std::vector<double>& xs);

/// Least-squares slope/intercept of log10(y) against log10(x) over the
/// points with x > 0 and y > 0; used to report the power-law exponents of
/// Fig. 3 ("slope = -1.677" / "slope = -3.172").
struct PowerLawFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  int used_points = 0;
};

PowerLawFit FitPowerLaw(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Builds the frequency-of-frequencies histogram used for Fig. 3: given raw
/// per-item counts (e.g. papers per name), returns {value -> #items with
/// that value}, sorted by value.
std::map<int64_t, int64_t> FrequencyHistogram(const std::vector<int64_t>& counts);

/// Convenience: fits a power law directly to a frequency histogram.
PowerLawFit FitPowerLaw(const std::map<int64_t, int64_t>& histogram);

}  // namespace iuad

#endif  // IUAD_UTIL_STATS_H_
