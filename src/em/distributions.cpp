#include "em/distributions.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace iuad::em {

namespace {
/// Large negative stand-in for log 0, keeping EM arithmetic NaN-free.
constexpr double kLogZero = -1e9;
constexpr double kMinTotalWeight = 1e-12;
}  // namespace

// --- Gaussian --------------------------------------------------------------

iuad::Status GaussianDist::FitWeighted(const std::vector<double>& xs,
                                       const std::vector<double>& weights) {
  if (xs.size() != weights.size()) {
    return iuad::Status::InvalidArgument("xs/weights size mismatch");
  }
  double wsum = 0.0, wx = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    wsum += weights[i];
    wx += weights[i] * xs[i];
  }
  if (wsum < kMinTotalWeight) {
    // No effective mass assigned to this component: keep previous params.
    return iuad::Status::OK();
  }
  // Table I: mu = sum(l_j * x_j) / sum(l_j); sigma^2 uses the same weights.
  mean_ = wx / wsum;
  double wvar = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double d = xs[i] - mean_;
    wvar += weights[i] * d * d;
  }
  variance_ = std::max(kVarianceFloor, wvar / wsum);
  return iuad::Status::OK();
}

double GaussianDist::LogPdf(double x) const {
  const double d = x - mean_;
  return -0.5 * std::log(2.0 * M_PI * variance_) - d * d / (2.0 * variance_);
}

std::string GaussianDist::ToString() const {
  return "Gaussian(mu=" + FormatDouble(mean_, 4) +
         ", var=" + FormatDouble(variance_, 6) + ")";
}

// --- Exponential -------------------------------------------------------------

iuad::Status ExponentialDist::FitWeighted(const std::vector<double>& xs,
                                          const std::vector<double>& weights) {
  if (xs.size() != weights.size()) {
    return iuad::Status::InvalidArgument("xs/weights size mismatch");
  }
  double wsum = 0.0, wx = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    wsum += weights[i];
    wx += weights[i] * std::max(0.0, xs[i]);
  }
  if (wsum < kMinTotalWeight) return iuad::Status::OK();
  // Table I: lambda = sum(l_j) / sum(l_j * x_j).
  lambda_ = (wx < kMinTotalWeight) ? kMaxLambda : std::min(kMaxLambda, wsum / wx);
  return iuad::Status::OK();
}

double ExponentialDist::LogPdf(double x) const {
  if (x < 0.0) return kLogZero;
  return std::log(lambda_) - lambda_ * x;
}

std::string ExponentialDist::ToString() const {
  return "Exponential(lambda=" + FormatDouble(lambda_, 4) + ")";
}

// --- Multinomial -------------------------------------------------------------

MultinomialDist::MultinomialDist(int num_bins, double lo, double hi)
    : num_bins_(std::max(1, num_bins)),
      lo_(lo),
      hi_(hi > lo ? hi : lo + 1.0),
      probs_(static_cast<size_t>(num_bins_),
             1.0 / static_cast<double>(num_bins_)) {}

iuad::Status MultinomialDist::SetProbabilities(std::vector<double> probs) {
  if (static_cast<int>(probs.size()) != num_bins_) {
    return iuad::Status::InvalidArgument(
        "multinomial restore: expected " + std::to_string(num_bins_) +
        " bin probabilities, got " + std::to_string(probs.size()));
  }
  for (double p : probs) {
    if (!(p > 0.0)) {
      return iuad::Status::InvalidArgument(
          "multinomial restore: nonpositive bin probability");
    }
  }
  probs_ = std::move(probs);
  return iuad::Status::OK();
}

int MultinomialDist::BinOf(double x) const {
  const double t = (x - lo_) / (hi_ - lo_);
  int bin = static_cast<int>(t * num_bins_);
  return std::clamp(bin, 0, num_bins_ - 1);
}

iuad::Status MultinomialDist::FitWeighted(const std::vector<double>& xs,
                                          const std::vector<double>& weights) {
  if (xs.size() != weights.size()) {
    return iuad::Status::InvalidArgument("xs/weights size mismatch");
  }
  std::vector<double> mass(static_cast<size_t>(num_bins_), 0.0);
  double wsum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mass[static_cast<size_t>(BinOf(xs[i]))] += weights[i];
    wsum += weights[i];
  }
  if (wsum < kMinTotalWeight) return iuad::Status::OK();
  // Table I multinomial row with Laplace smoothing heavy enough that a
  // nearly-empty bin cannot produce extreme log-odds (the same
  // boundedness rationale as the Gaussian variance floor).
  const double alpha = 0.5;
  const double denom = wsum + alpha * num_bins_;
  for (int b = 0; b < num_bins_; ++b) {
    probs_[static_cast<size_t>(b)] = (mass[static_cast<size_t>(b)] + alpha) / denom;
  }
  return iuad::Status::OK();
}

double MultinomialDist::LogPdf(double x) const {
  const double p = probs_[static_cast<size_t>(BinOf(x))];
  return p > 0.0 ? std::log(p) : kLogZero;
}

std::string MultinomialDist::ToString() const {
  std::string s = "Multinomial(";
  for (int b = 0; b < num_bins_ && b < 8; ++b) {
    if (b) s += ",";
    s += FormatDouble(probs_[static_cast<size_t>(b)], 3);
  }
  if (num_bins_ > 8) s += ",...";
  return s + ")";
}

std::unique_ptr<Distribution> MakeDistribution(FamilyType type) {
  switch (type) {
    case FamilyType::kGaussian: return std::make_unique<GaussianDist>();
    case FamilyType::kExponential: return std::make_unique<ExponentialDist>();
    case FamilyType::kMultinomial:
      return std::make_unique<MultinomialDist>(8, 0.0, 1.0);
  }
  return nullptr;
}

}  // namespace iuad::em
