#ifndef IUAD_EM_DISTRIBUTIONS_H_
#define IUAD_EM_DISTRIBUTIONS_H_

/// \file distributions.h
/// Univariate exponential-family marginals used by the generative model of
/// Sec. V-C. The paper models each similarity γ^(i) with a member of the
/// exponential family whose weighted MLEs are closed-form (Table I):
/// Gaussian, Exponential, and Multinomial. Each distribution supports
/// weighted fitting (the E-step responsibilities are the weights) and
/// log-density evaluation.

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace iuad::em {

enum class FamilyType { kGaussian, kExponential, kMultinomial };

/// Interface of a fittable univariate marginal.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Weighted maximum-likelihood fit: weights are E-step responsibilities in
  /// [0, 1]; `xs` and `weights` are parallel. Implementations must be robust
  /// to (near-)zero total weight and to degenerate samples.
  virtual iuad::Status FitWeighted(const std::vector<double>& xs,
                                   const std::vector<double>& weights) = 0;

  /// log p(x) under the current parameters. Never returns NaN; out-of-
  /// support points get a large negative value instead of -inf so EM stays
  /// numerically stable.
  virtual double LogPdf(double x) const = 0;

  /// Human-readable parameter dump for logging.
  virtual std::string ToString() const = 0;

  virtual FamilyType family() const = 0;

  /// Deep copy.
  virtual std::unique_ptr<Distribution> Clone() const = 0;
};

/// N(mu, sigma^2) with a variance floor for degenerate clusters.
class GaussianDist : public Distribution {
 public:
  GaussianDist(double mean = 0.0, double variance = 1.0)
      : mean_(mean), variance_(variance) {}

  iuad::Status FitWeighted(const std::vector<double>& xs,
                           const std::vector<double>& weights) override;
  double LogPdf(double x) const override;
  std::string ToString() const override;
  FamilyType family() const override { return FamilyType::kGaussian; }
  std::unique_ptr<Distribution> Clone() const override {
    return std::make_unique<GaussianDist>(*this);
  }

  double mean() const { return mean_; }
  double variance() const { return variance_; }

  /// Floor large enough that a point-mass component cannot dominate the
  /// posterior log-odds (a spike at γ = 0 with var -> 0 produces unbounded
  /// densities and makes the δ threshold inoperative).
  static constexpr double kVarianceFloor = 1e-4;

 private:
  double mean_;
  double variance_;
};

/// Exp(lambda) on [0, inf); negative observations are clamped to 0 when
/// fitting (similarities are nonnegative by construction, but floating-point
/// noise may dip below).
class ExponentialDist : public Distribution {
 public:
  explicit ExponentialDist(double lambda = 1.0) : lambda_(lambda) {}

  iuad::Status FitWeighted(const std::vector<double>& xs,
                           const std::vector<double>& weights) override;
  double LogPdf(double x) const override;
  std::string ToString() const override;
  FamilyType family() const override { return FamilyType::kExponential; }
  std::unique_ptr<Distribution> Clone() const override {
    return std::make_unique<ExponentialDist>(*this);
  }

  double lambda() const { return lambda_; }

  /// Rate cap bounding the density at 0 (log λ <= ~9.2), for the same
  /// log-odds-boundedness reason as GaussianDist::kVarianceFloor.
  static constexpr double kMaxLambda = 1e4;

 private:
  double lambda_;
};

/// Multinomial over `num_bins` equal-width bins spanning [lo, hi], with
/// Laplace smoothing. Out-of-range observations clamp to the boundary bins.
class MultinomialDist : public Distribution {
 public:
  MultinomialDist(int num_bins, double lo, double hi);

  iuad::Status FitWeighted(const std::vector<double>& xs,
                           const std::vector<double>& weights) override;
  double LogPdf(double x) const override;
  std::string ToString() const override;
  FamilyType family() const override { return FamilyType::kMultinomial; }
  std::unique_ptr<Distribution> Clone() const override {
    return std::make_unique<MultinomialDist>(*this);
  }

  int BinOf(double x) const;
  const std::vector<double>& probabilities() const { return probs_; }
  int num_bins() const { return num_bins_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Reinstates fitted bin probabilities (snapshot load, src/io). Rejects a
  /// vector whose size disagrees with num_bins or with nonpositive entries
  /// (fitting always Laplace-smooths, so every stored bin is > 0).
  iuad::Status SetProbabilities(std::vector<double> probs);

 private:
  int num_bins_;
  double lo_, hi_;
  std::vector<double> probs_;
};

/// Factory with per-family default parameters. Multinomial defaults to 16
/// bins on [0, 1].
std::unique_ptr<Distribution> MakeDistribution(FamilyType type);

}  // namespace iuad::em

#endif  // IUAD_EM_DISTRIBUTIONS_H_
