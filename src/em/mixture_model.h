#ifndef IUAD_EM_MIXTURE_MODEL_H_
#define IUAD_EM_MIXTURE_MODEL_H_

/// \file mixture_model.h
/// The probabilistic generative model of Sec. V-C: candidate vertex pairs r_j
/// are generated by one of two latent classes — matched (M, both vertices are
/// one author) or unmatched (U) — with class prior p = P(r ∈ M), and the
/// similarity vector γ_j factorizes into independent exponential-family
/// marginals per class (the Fellegi-Sunter conditional-independence form).
/// Parameters Θ are learned by EM (Eq. 10 log-likelihood; Table I M-step);
/// decisions use the posterior log-odds score of Eq. 11.

#include <memory>
#include <string>
#include <vector>

#include "em/distributions.h"
#include "util/status.h"

namespace iuad::em {

/// Model and EM configuration.
struct MixtureConfig {
  /// Per-feature marginal family; length = similarity dimension m.
  std::vector<FamilyType> families;
  int max_iterations = 200;
  /// Stop when the per-sample log-likelihood improves by less than this.
  double tolerance = 1e-7;
  /// Deterministic initialization: samples whose summed standardized
  /// feature score is in the top (1 - q) quantile start with matched
  /// responsibility `init_high`, the rest `init_low`.
  double init_quantile = 0.9;
  double init_high = 0.9;
  double init_low = 0.1;
  /// Class-prior clamp, keeping both components alive.
  double min_prior = 1e-4;
  /// Worker threads of the E-step responsibility pass (the per-sample
  /// LogPdf evaluations, the O(n·m) hot loop of Fit). 0 = auto (hardware
  /// concurrency), 1 = serial. Output is identical at every setting:
  /// per-sample quantities land in slots indexed by sample position and
  /// the log-likelihood reduction is a fixed-order serial sum. Reachable
  /// from the pipeline as IuadConfig::em.num_threads.
  int num_threads = 0;
};

/// Two-component semi-naive-Bayes mixture with EM learning.
class MixtureModel {
 public:
  explicit MixtureModel(MixtureConfig config);

  /// Reinstates a fitted model from snapshot parts (src/io): per-feature
  /// matched/unmatched marginals plus the class prior and fit metadata.
  /// Both distribution vectors must match config.families in length and
  /// family, element-wise; the restored model scores byte-identically to
  /// the one that was saved (parameters round-trip as raw doubles).
  static iuad::Result<MixtureModel> Restore(
      MixtureConfig config,
      std::vector<std::unique_ptr<Distribution>> matched,
      std::vector<std::unique_ptr<Distribution>> unmatched,
      double prior_matched, double final_log_likelihood, int iterations_run);

  /// Fits Θ on N x m similarity vectors. Initial responsibilities follow
  /// MixtureConfig; pass `init_responsibilities` (size N, values in [0,1])
  /// to override (used by the vertex-splitting augmentation, whose planted
  /// pairs are known matches).
  iuad::Status Fit(const std::vector<std::vector<double>>& gammas);
  iuad::Status Fit(const std::vector<std::vector<double>>& gammas,
                   const std::vector<double>& init_responsibilities);

  /// Eq. 11: log [ P(r ∈ M | γ, Θ) / P(r ∈ U | γ, Θ) ].
  double MatchScore(const std::vector<double>& gamma) const;

  /// MatchScore with some features marginalized out: features whose mask
  /// entry is false contribute nothing (under the model's conditional
  /// independence, skipping a factor IS marginalization). Used by the
  /// incremental path, where γ2 (clique overlap) is structurally zero for
  /// any not-yet-inserted occurrence and would only inject the unmatched
  /// component's point-mass bias.
  double MatchScoreMasked(const std::vector<double>& gamma,
                          const std::vector<bool>& mask) const;

  /// log [ P(γ | M, Θ) / P(γ | U, Θ) ] — the score without the class-prior
  /// term, with optional feature masking. The class prior is estimated over
  /// the *candidate vertex pair* population; for single-paper (incremental)
  /// decisions, whose base rate is entirely different, the pure likelihood
  /// ratio is the calibrated quantity.
  double LikelihoodRatioMasked(const std::vector<double>& gamma,
                               const std::vector<bool>& mask) const;

  double prior_matched() const { return prior_matched_; }
  double final_log_likelihood() const { return final_log_likelihood_; }
  int iterations_run() const { return iterations_run_; }
  bool fitted() const { return fitted_; }
  int dimension() const { return static_cast<int>(config_.families.size()); }

  const Distribution& matched(int feature) const {
    return *matched_[static_cast<size_t>(feature)];
  }
  const Distribution& unmatched(int feature) const {
    return *unmatched_[static_cast<size_t>(feature)];
  }

  /// Parameter dump for logs.
  std::string ToString() const;

  /// The deterministic quantile-based initial responsibilities described in
  /// MixtureConfig. Public so callers blending in known-match pairs (the
  /// vertex-splitting augmentation) can start from the same baseline.
  std::vector<double> InitialResponsibilities(
      const std::vector<std::vector<double>>& gammas) const;

 private:
  double LogJoint(const std::vector<double>& gamma, bool matched,
                  const std::vector<bool>* mask = nullptr) const;

  MixtureConfig config_;
  std::vector<std::unique_ptr<Distribution>> matched_;
  std::vector<std::unique_ptr<Distribution>> unmatched_;
  double prior_matched_ = 0.5;
  double final_log_likelihood_ = 0.0;
  int iterations_run_ = 0;
  bool fitted_ = false;
};

}  // namespace iuad::em

#endif  // IUAD_EM_MIXTURE_MODEL_H_
