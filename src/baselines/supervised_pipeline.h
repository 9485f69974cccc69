#ifndef IUAD_BASELINES_SUPERVISED_PIPELINE_H_
#define IUAD_BASELINES_SUPERVISED_PIPELINE_H_

/// \file supervised_pipeline.h
/// The supervised baselines of Table III: a pairwise same-author classifier
/// (AdaBoost / GBDT / RandomForest / XGBoost-style, features after
/// Treeratpituk & Giles) trained on *labeled* names disjoint from the test
/// names, applied to every paper pair of a test name and closed
/// transitively into clusters.

#include <memory>
#include <string>
#include <vector>

#include "data/paper_database.h"
#include "ml/adaboost.h"
#include "ml/gbdt.h"
#include "ml/pairwise_features.h"
#include "ml/random_forest.h"
#include "text/word2vec.h"
#include "util/status.h"

namespace iuad::baselines {

enum class SupervisedKind { kAdaBoost, kGbdt, kRandomForest, kXgboost };

const char* SupervisedKindName(SupervisedKind kind);

class SupervisedPipeline {
 public:
  SupervisedPipeline(SupervisedKind kind, const data::PaperDatabase& db,
                     const text::Word2Vec* word_vecs);

  /// Trains the pair classifier on the ground-truth labels of
  /// `training_names` in `labeled_db`. That may be a *different* database
  /// (e.g. an external labeled corpus) — the transfer protocol the
  /// published supervised baselines live under: annotation never comes from
  /// the evaluation data. Training names must not overlap the evaluation
  /// names.
  iuad::Status TrainOn(const data::PaperDatabase& labeled_db,
                       const std::vector<std::string>& training_names,
                       int max_pairs_per_name = 2000, uint64_t seed = 99);

  /// Clusters the papers of `name` from the pairwise predictions. Naive
  /// transitive closure of p >= 0.5 decisions collapses under a single
  /// false-positive bridge (quadratically many pairs per name), so the
  /// pipeline agglomerates with average linkage over distance 1 - p and
  /// stops at 0.5 — i.e. two clusters merge only while their *average*
  /// predicted same-author probability exceeds one half.
  std::vector<int> Disambiguate(const std::string& name) const;

  std::string Name() const { return SupervisedKindName(kind_); }
  bool trained() const { return trained_; }

 private:
  double PredictPair(const std::vector<float>& features) const;

  SupervisedKind kind_;
  const data::PaperDatabase& db_;
  const text::Word2Vec* word_vecs_;
  // Exactly one of these is fitted, per kind_.
  std::unique_ptr<ml::AdaBoost> adaboost_;
  std::unique_ptr<ml::Gbdt> gbdt_;
  std::unique_ptr<ml::RandomForest> forest_;
  bool trained_ = false;
};

}  // namespace iuad::baselines

#endif  // IUAD_BASELINES_SUPERVISED_PIPELINE_H_
