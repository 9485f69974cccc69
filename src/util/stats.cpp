#include "util/stats.h"

#include <cmath>

namespace iuad {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

PowerLawFit FitPowerLaw(const std::vector<double>& x,
                        const std::vector<double>& y) {
  PowerLawFit fit;
  std::vector<double> lx, ly;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      lx.push_back(std::log10(x[i]));
      ly.push_back(std::log10(y[i]));
    }
  }
  fit.used_points = static_cast<int>(lx.size());
  if (lx.size() < 2) return fit;
  const double mx = Mean(lx);
  const double my = Mean(ly);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < lx.size(); ++i) {
    sxy += (lx[i] - mx) * (ly[i] - my);
    sxx += (lx[i] - mx) * (lx[i] - mx);
    syy += (ly[i] - my) * (ly[i] - my);
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

std::map<int64_t, int64_t> FrequencyHistogram(
    const std::vector<int64_t>& counts) {
  std::map<int64_t, int64_t> hist;
  for (int64_t c : counts) ++hist[c];
  return hist;
}

PowerLawFit FitPowerLaw(const std::map<int64_t, int64_t>& histogram) {
  std::vector<double> x, y;
  x.reserve(histogram.size());
  y.reserve(histogram.size());
  for (const auto& [value, freq] : histogram) {
    x.push_back(static_cast<double>(value));
    y.push_back(static_cast<double>(freq));
  }
  return FitPowerLaw(x, y);
}

}  // namespace iuad
