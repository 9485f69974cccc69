#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "em/distributions.h"
#include "em/mixture_model.h"
#include "util/rng.h"

namespace iuad::em {
namespace {

// --------------------------- Distributions ----------------------------------

TEST(GaussianDistTest, WeightedMleMatchesTableI) {
  GaussianDist g;
  // All weight on {1, 3}: mu = 2, population var = 1.
  ASSERT_TRUE(g.FitWeighted({1.0, 3.0, 100.0}, {1.0, 1.0, 0.0}).ok());
  EXPECT_NEAR(g.mean(), 2.0, 1e-12);
  EXPECT_NEAR(g.variance(), 1.0, 1e-12);
}

TEST(GaussianDistTest, FractionalWeights) {
  GaussianDist g;
  // Weighted mean: (0.25*0 + 0.75*4) / 1.0 = 3.
  ASSERT_TRUE(g.FitWeighted({0.0, 4.0}, {0.25, 0.75}).ok());
  EXPECT_NEAR(g.mean(), 3.0, 1e-12);
}

TEST(GaussianDistTest, VarianceFloorPreventsDegeneracy) {
  GaussianDist g;
  ASSERT_TRUE(g.FitWeighted({5.0, 5.0, 5.0}, {1.0, 1.0, 1.0}).ok());
  EXPECT_GE(g.variance(), GaussianDist::kVarianceFloor);
  EXPECT_TRUE(std::isfinite(g.LogPdf(5.0)));
}

TEST(GaussianDistTest, ZeroTotalWeightKeepsParams) {
  GaussianDist g(7.0, 2.0);
  ASSERT_TRUE(g.FitWeighted({1.0, 2.0}, {0.0, 0.0}).ok());
  EXPECT_DOUBLE_EQ(g.mean(), 7.0);
  EXPECT_DOUBLE_EQ(g.variance(), 2.0);
}

TEST(GaussianDistTest, LogPdfPeaksAtMean) {
  GaussianDist g(1.0, 0.5);
  EXPECT_GT(g.LogPdf(1.0), g.LogPdf(0.0));
  EXPECT_GT(g.LogPdf(1.0), g.LogPdf(2.0));
  EXPECT_NEAR(g.LogPdf(1.0), -0.5 * std::log(2.0 * M_PI * 0.5), 1e-12);
}

TEST(GaussianDistTest, SizeMismatchRejected) {
  GaussianDist g;
  EXPECT_FALSE(g.FitWeighted({1.0}, {1.0, 2.0}).ok());
}

TEST(ExponentialDistTest, MleIsInverseWeightedMean) {
  ExponentialDist e;
  // Table I: lambda = sum(w) / sum(w * x) = 2 / (0.5 + 1.5) = 1.
  ASSERT_TRUE(e.FitWeighted({0.5, 1.5}, {1.0, 1.0}).ok());
  EXPECT_NEAR(e.lambda(), 1.0, 1e-12);
}

TEST(ExponentialDistTest, NegativesClampToZeroInFit) {
  ExponentialDist e;
  ASSERT_TRUE(e.FitWeighted({-1.0, 2.0}, {1.0, 1.0}).ok());
  EXPECT_NEAR(e.lambda(), 1.0, 1e-12);  // 2 / (0 + 2)
}

TEST(ExponentialDistTest, AllZeroDataCapsLambda) {
  ExponentialDist e;
  ASSERT_TRUE(e.FitWeighted({0.0, 0.0}, {1.0, 1.0}).ok());
  EXPECT_DOUBLE_EQ(e.lambda(), ExponentialDist::kMaxLambda);
  EXPECT_TRUE(std::isfinite(e.LogPdf(0.0)));
}

TEST(ExponentialDistTest, LogPdfOutOfSupportIsVeryNegative) {
  ExponentialDist e(2.0);
  EXPECT_LT(e.LogPdf(-0.1), -1e8);
  EXPECT_NEAR(e.LogPdf(0.0), std::log(2.0), 1e-12);
}

TEST(MultinomialDistTest, BinningClampsToRange) {
  MultinomialDist m(4, 0.0, 1.0);
  EXPECT_EQ(m.BinOf(-5.0), 0);
  EXPECT_EQ(m.BinOf(0.1), 0);
  EXPECT_EQ(m.BinOf(0.3), 1);
  EXPECT_EQ(m.BinOf(0.99), 3);
  EXPECT_EQ(m.BinOf(7.0), 3);
}

TEST(MultinomialDistTest, FitConcentratesMass) {
  MultinomialDist m(4, 0.0, 1.0);
  ASSERT_TRUE(
      m.FitWeighted({0.1, 0.15, 0.12, 0.9}, {1.0, 1.0, 1.0, 1.0}).ok());
  // Laplace alpha = 0.5 over 4 bins: (3 + 0.5) / (4 + 2) = 0.583.
  EXPECT_GT(m.probabilities()[0], 0.55);
  EXPECT_GT(m.LogPdf(0.1), m.LogPdf(0.6));
  // Laplace smoothing keeps unseen bins finite.
  EXPECT_TRUE(std::isfinite(m.LogPdf(0.6)));
  double sum = 0.0;
  for (double p : m.probabilities()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DistributionFactoryTest, CreatesAllFamilies) {
  for (FamilyType f : {FamilyType::kGaussian, FamilyType::kExponential,
                       FamilyType::kMultinomial}) {
    auto d = MakeDistribution(f);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->family(), f);
    auto c = d->Clone();
    EXPECT_EQ(c->family(), f);
    EXPECT_FALSE(d->ToString().empty());
  }
}

// --------------------------- MixtureModel -----------------------------------

/// Two planted components over 3 features; matched pairs score higher on
/// all of them. Returns {gammas, truth}.
struct PlantedData {
  std::vector<std::vector<double>> gammas;
  std::vector<bool> matched;
};

PlantedData MakePlanted(int n, double match_frac, uint64_t seed) {
  iuad::Rng rng(seed);
  PlantedData d;
  for (int i = 0; i < n; ++i) {
    const bool m = rng.UniformDouble() < match_frac;
    std::vector<double> g(3);
    if (m) {
      g[0] = std::clamp(rng.Gaussian(0.75, 0.1), 0.0, 1.0);  // Gaussian-ish
      g[1] = rng.Exponential(0.8);                           // heavy overlap
      g[2] = std::clamp(rng.Gaussian(0.6, 0.15), -1.0, 1.0);
    } else {
      g[0] = std::clamp(rng.Gaussian(0.15, 0.1), 0.0, 1.0);
      g[1] = rng.Exponential(8.0);
      g[2] = std::clamp(rng.Gaussian(0.05, 0.15), -1.0, 1.0);
    }
    d.gammas.push_back(std::move(g));
    d.matched.push_back(m);
  }
  return d;
}

MixtureConfig ThreeFeatureConfig() {
  MixtureConfig cfg;
  cfg.families = {FamilyType::kGaussian, FamilyType::kExponential,
                  FamilyType::kGaussian};
  return cfg;
}

TEST(MixtureModelTest, RejectsEmptyAndMismatchedInput) {
  MixtureModel m(ThreeFeatureConfig());
  EXPECT_FALSE(m.Fit({}).ok());
  EXPECT_FALSE(m.Fit({{1.0, 2.0}}).ok());            // wrong dimension
  EXPECT_FALSE(m.Fit({{1.0, 2.0, 3.0}}, {0.5, 0.5}).ok());  // init size
}

TEST(MixtureModelTest, RecoversPlantedComponents) {
  auto data = MakePlanted(2000, 0.25, 31);
  MixtureModel m(ThreeFeatureConfig());
  ASSERT_TRUE(m.Fit(data.gammas).ok());
  EXPECT_TRUE(m.fitted());
  // Prior should be near the planted 25% (EM may land on either labeling of
  // the two components; the separation check below disambiguates).
  int correct = 0;
  for (size_t i = 0; i < data.gammas.size(); ++i) {
    const bool pred = m.MatchScore(data.gammas[i]) >= 0.0;
    if (pred == data.matched[i]) ++correct;
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(data.gammas.size());
  // Components are well separated; EM should nail almost everything (or be
  // fully label-swapped, which the quantile init prevents).
  EXPECT_GT(acc, 0.95);
  EXPECT_NEAR(m.prior_matched(), 0.25, 0.05);
}

TEST(MixtureModelTest, SupervisedInitRespected) {
  auto data = MakePlanted(800, 0.3, 33);
  MixtureModel m(ThreeFeatureConfig());
  std::vector<double> init(data.gammas.size());
  for (size_t i = 0; i < init.size(); ++i) {
    init[i] = data.matched[i] ? 0.99 : 0.01;  // oracle init
  }
  ASSERT_TRUE(m.Fit(data.gammas, init).ok());
  int correct = 0;
  for (size_t i = 0; i < data.gammas.size(); ++i) {
    if ((m.MatchScore(data.gammas[i]) >= 0.0) == data.matched[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.gammas.size(), 0.97);
}

TEST(MixtureModelTest, LogLikelihoodImprovesOverInit) {
  auto data = MakePlanted(600, 0.4, 34);
  MixtureConfig cfg = ThreeFeatureConfig();
  cfg.max_iterations = 1;
  MixtureModel one_step(cfg);
  ASSERT_TRUE(one_step.Fit(data.gammas).ok());
  cfg.max_iterations = 100;
  MixtureModel converged(cfg);
  ASSERT_TRUE(converged.Fit(data.gammas).ok());
  EXPECT_GE(converged.final_log_likelihood(),
            one_step.final_log_likelihood() - 1e-6);
  EXPECT_GT(converged.iterations_run(), 0);
}

TEST(MixtureModelTest, EStepOutputInvariantToThreadCount) {
  // The parallel E-step must be a pure speedup: per-sample slots + a
  // fixed-order log-likelihood sum make the fit byte-identical at any
  // thread count (including the serial path the small-n cutoff takes).
  auto data = MakePlanted(1500, 0.3, 37);
  MixtureConfig serial = ThreeFeatureConfig();
  serial.num_threads = 1;
  MixtureModel a(serial);
  ASSERT_TRUE(a.Fit(data.gammas).ok());
  for (int threads : {2, 4, 7}) {
    MixtureConfig cfg = ThreeFeatureConfig();
    cfg.num_threads = threads;
    MixtureModel b(cfg);
    ASSERT_TRUE(b.Fit(data.gammas).ok());
    EXPECT_DOUBLE_EQ(a.final_log_likelihood(), b.final_log_likelihood())
        << threads << " threads";
    EXPECT_DOUBLE_EQ(a.prior_matched(), b.prior_matched());
    EXPECT_EQ(a.iterations_run(), b.iterations_run());
    EXPECT_EQ(a.ToString(), b.ToString());  // every marginal parameter
    for (size_t j = 0; j < data.gammas.size(); j += 97) {
      EXPECT_DOUBLE_EQ(a.MatchScore(data.gammas[j]),
                       b.MatchScore(data.gammas[j]));
    }
  }
}

TEST(MixtureModelTest, DeterministicAcrossRuns) {
  auto data = MakePlanted(400, 0.3, 35);
  MixtureModel a(ThreeFeatureConfig()), b(ThreeFeatureConfig());
  ASSERT_TRUE(a.Fit(data.gammas).ok());
  ASSERT_TRUE(b.Fit(data.gammas).ok());
  EXPECT_DOUBLE_EQ(a.final_log_likelihood(), b.final_log_likelihood());
  EXPECT_DOUBLE_EQ(a.MatchScore(data.gammas[0]), b.MatchScore(data.gammas[0]));
}

TEST(MixtureModelTest, PriorClampKeepsBothComponentsAlive) {
  // All samples identical: EM must not collapse a prior to exactly 0/1.
  std::vector<std::vector<double>> gammas(50, {0.5, 0.5, 0.5});
  MixtureModel m(ThreeFeatureConfig());
  ASSERT_TRUE(m.Fit(gammas).ok());
  EXPECT_GT(m.prior_matched(), 0.0);
  EXPECT_LT(m.prior_matched(), 1.0);
  EXPECT_TRUE(std::isfinite(m.MatchScore({0.5, 0.5, 0.5})));
}

TEST(MixtureModelTest, ToStringListsAllFeatures) {
  auto data = MakePlanted(200, 0.3, 36);
  MixtureModel m(ThreeFeatureConfig());
  ASSERT_TRUE(m.Fit(data.gammas).ok());
  const std::string s = m.ToString();
  EXPECT_NE(s.find("f0"), std::string::npos);
  EXPECT_NE(s.find("f2"), std::string::npos);
  EXPECT_NE(s.find("Exponential"), std::string::npos);
}

// Property sweep: EM separates planted data across family assignments and
// match fractions.
class MixtureFamilyTest
    : public ::testing::TestWithParam<std::tuple<FamilyType, double>> {};

TEST_P(MixtureFamilyTest, SeparatesPlantedDataWithAnyFamilyOnFeature0) {
  const auto [family, match_frac] = GetParam();
  auto data = MakePlanted(1200, match_frac, 40);
  MixtureConfig cfg;
  cfg.families = {family, FamilyType::kExponential, FamilyType::kGaussian};
  MixtureModel m(cfg);
  ASSERT_TRUE(m.Fit(data.gammas).ok());
  int correct = 0;
  for (size_t i = 0; i < data.gammas.size(); ++i) {
    if ((m.MatchScore(data.gammas[i]) >= 0.0) == data.matched[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.gammas.size(), 0.9)
      << "family=" << static_cast<int>(family) << " frac=" << match_frac;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndFractions, MixtureFamilyTest,
    ::testing::Combine(::testing::Values(FamilyType::kGaussian,
                                         FamilyType::kExponential,
                                         FamilyType::kMultinomial),
                       ::testing::Values(0.1, 0.3, 0.5)));

}  // namespace
}  // namespace iuad::em
