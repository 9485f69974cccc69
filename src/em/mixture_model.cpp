#include "em/mixture_model.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace iuad::em {
namespace {

/// Rejects an empty training set or a vector whose dimension is not `m`.
iuad::Status CheckGammas(const std::vector<std::vector<double>>& gammas,
                         size_t m) {
  if (gammas.empty()) {
    return iuad::Status::InvalidArgument("EM: no training vectors");
  }
  for (const auto& g : gammas) {
    if (g.size() != m) {
      return iuad::Status::InvalidArgument(
          "EM: similarity vector dimension mismatch");
    }
  }
  return iuad::Status::OK();
}

}  // namespace

MixtureModel::MixtureModel(MixtureConfig config) : config_(std::move(config)) {
  for (FamilyType f : config_.families) {
    matched_.push_back(MakeDistribution(f));
    unmatched_.push_back(MakeDistribution(f));
  }
}

iuad::Result<MixtureModel> MixtureModel::Restore(
    MixtureConfig config, std::vector<std::unique_ptr<Distribution>> matched,
    std::vector<std::unique_ptr<Distribution>> unmatched, double prior_matched,
    double final_log_likelihood, int iterations_run) {
  const size_t m = config.families.size();
  if (matched.size() != m || unmatched.size() != m) {
    return iuad::Status::InvalidArgument(
        "model restore: marginal count disagrees with families");
  }
  for (size_t f = 0; f < m; ++f) {
    if (matched[f] == nullptr || unmatched[f] == nullptr ||
        matched[f]->family() != config.families[f] ||
        unmatched[f]->family() != config.families[f]) {
      return iuad::Status::InvalidArgument(
          "model restore: marginal family mismatch at feature " +
          std::to_string(f));
    }
  }
  if (!(prior_matched > 0.0 && prior_matched < 1.0)) {
    return iuad::Status::InvalidArgument(
        "model restore: class prior outside (0, 1)");
  }
  MixtureModel model(std::move(config));
  model.matched_ = std::move(matched);
  model.unmatched_ = std::move(unmatched);
  model.prior_matched_ = prior_matched;
  model.final_log_likelihood_ = final_log_likelihood;
  model.iterations_run_ = iterations_run;
  model.fitted_ = true;
  return model;
}

std::vector<double> MixtureModel::InitialResponsibilities(
    const std::vector<std::vector<double>>& gammas) const {
  const size_t n = gammas.size();
  const size_t m = config_.families.size();
  // Standardize each feature, sum -> composite evidence score.
  std::vector<double> score(n, 0.0);
  for (size_t f = 0; f < m; ++f) {
    std::vector<double> col(n);
    for (size_t j = 0; j < n; ++j) col[j] = gammas[j][f];
    const double mu = Mean(col);
    const double sd = std::sqrt(std::max(1e-12, Variance(col)));
    for (size_t j = 0; j < n; ++j) score[j] += (col[j] - mu) / sd;
  }
  std::vector<double> sorted = score;
  std::sort(sorted.begin(), sorted.end());
  const size_t q_idx = std::min(
      n - 1, static_cast<size_t>(config_.init_quantile * static_cast<double>(n)));
  const double cut = sorted[q_idx];
  std::vector<double> resp(n);
  for (size_t j = 0; j < n; ++j) {
    resp[j] = score[j] >= cut ? config_.init_high : config_.init_low;
  }
  return resp;
}

iuad::Status MixtureModel::Fit(const std::vector<std::vector<double>>& gammas) {
  // Validate before InitialResponsibilities, which indexes every vector up
  // to the configured dimension.
  IUAD_RETURN_NOT_OK(CheckGammas(gammas, config_.families.size()));
  return Fit(gammas, InitialResponsibilities(gammas));
}

iuad::Status MixtureModel::Fit(const std::vector<std::vector<double>>& gammas,
                               const std::vector<double>& init_resp) {
  const size_t n = gammas.size();
  const size_t m = config_.families.size();
  IUAD_RETURN_NOT_OK(CheckGammas(gammas, m));
  if (init_resp.size() != n) {
    return iuad::Status::InvalidArgument("EM: init responsibilities size");
  }

  std::vector<double> resp = init_resp;  // l_j = P(r_j in M | ...)
  std::vector<double> col(n), w_matched(n), w_unmatched(n);

  // E-step fan-out. The pool outlives the iteration loop so workers spawn
  // once per Fit, not once per iteration; tiny inputs stay serial — the
  // dispatch overhead would dwarf the LogPdf work.
  const int threads = util::ResolveNumThreads(config_.num_threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1 && n >= 256) {
    pool = std::make_unique<util::ThreadPool>(threads);
  }
  std::vector<double> ll_term(n);

  double prev_ll = -1e300;
  iterations_run_ = 0;
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    ++iterations_run_;
    // ---- M-step: weighted MLEs of Table I, plus the class prior. --------
    double resp_sum = 0.0;
    for (size_t j = 0; j < n; ++j) resp_sum += resp[j];
    prior_matched_ =
        std::clamp(resp_sum / static_cast<double>(n), config_.min_prior,
                   1.0 - config_.min_prior);
    for (size_t f = 0; f < m; ++f) {
      for (size_t j = 0; j < n; ++j) {
        col[j] = gammas[j][f];
        w_matched[j] = resp[j];
        w_unmatched[j] = 1.0 - resp[j];
      }
      IUAD_RETURN_NOT_OK(matched_[f]->FitWeighted(col, w_matched));
      IUAD_RETURN_NOT_OK(unmatched_[f]->FitWeighted(col, w_unmatched));
    }

    // ---- E-step: responsibilities + observed-data log-likelihood. -------
    // Parallel over samples; each j writes only its own slots, and the
    // log-likelihood is reduced serially in sample order below, so the
    // result is byte-identical at any thread count (pinned in em_test).
    util::ForIndices(pool.get(), n, [&](size_t j) {
      const double log_m = LogJoint(gammas[j], true);
      const double log_u = LogJoint(gammas[j], false);
      const double mx = std::max(log_m, log_u);
      const double pm = std::exp(log_m - mx);
      const double pu = std::exp(log_u - mx);
      resp[j] = pm / (pm + pu);
      ll_term[j] = mx + std::log(pm + pu);
    });
    double ll = 0.0;
    for (size_t j = 0; j < n; ++j) ll += ll_term[j];
    final_log_likelihood_ = ll;
    if (std::abs(ll - prev_ll) <
        config_.tolerance * static_cast<double>(n)) {
      break;
    }
    prev_ll = ll;
  }
  fitted_ = true;
  return iuad::Status::OK();
}

double MixtureModel::LogJoint(const std::vector<double>& gamma,
                              bool is_matched,
                              const std::vector<bool>* mask) const {
  double lp = std::log(is_matched ? prior_matched_ : 1.0 - prior_matched_);
  const auto& dists = is_matched ? matched_ : unmatched_;
  for (size_t f = 0; f < dists.size(); ++f) {
    if (mask != nullptr && f < mask->size() && !(*mask)[f]) continue;
    lp += dists[f]->LogPdf(gamma[f]);
  }
  return lp;
}

double MixtureModel::MatchScore(const std::vector<double>& gamma) const {
  return LogJoint(gamma, true) - LogJoint(gamma, false);
}

double MixtureModel::MatchScoreMasked(const std::vector<double>& gamma,
                                      const std::vector<bool>& mask) const {
  return LogJoint(gamma, true, &mask) - LogJoint(gamma, false, &mask);
}

double MixtureModel::LikelihoodRatioMasked(const std::vector<double>& gamma,
                                           const std::vector<bool>& mask) const {
  const double prior_term =
      std::log(prior_matched_) - std::log(1.0 - prior_matched_);
  return MatchScoreMasked(gamma, mask) - prior_term;
}

std::string MixtureModel::ToString() const {
  std::string s = "MixtureModel(p_match=" + FormatDouble(prior_matched_, 4) +
                  ", ll=" + FormatDouble(final_log_likelihood_, 2) +
                  ", iters=" + std::to_string(iterations_run_) + ")\n";
  for (size_t f = 0; f < matched_.size(); ++f) {
    s += "  f" + std::to_string(f) + " M: " + matched_[f]->ToString() +
         "  U: " + unmatched_[f]->ToString() + "\n";
  }
  return s;
}

}  // namespace iuad::em
