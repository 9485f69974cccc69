#include "baselines/supervised_pipeline.h"

#include "cluster/hac.h"

namespace iuad::baselines {

const char* SupervisedKindName(SupervisedKind kind) {
  switch (kind) {
    case SupervisedKind::kAdaBoost: return "AdaBoost";
    case SupervisedKind::kGbdt: return "GBDT";
    case SupervisedKind::kRandomForest: return "RF";
    case SupervisedKind::kXgboost: return "XGBoost";
  }
  return "Unknown";
}

SupervisedPipeline::SupervisedPipeline(SupervisedKind kind,
                                       const data::PaperDatabase& db,
                                       const text::Word2Vec* word_vecs)
    : kind_(kind), db_(db), word_vecs_(word_vecs) {}

iuad::Status SupervisedPipeline::TrainOn(
    const data::PaperDatabase& labeled_db,
    const std::vector<std::string>& training_names, int max_pairs_per_name,
    uint64_t seed) {
  iuad::Rng rng(seed);
  ml::PairwiseDataset ds = ml::BuildPairwiseDataset(
      labeled_db, training_names, word_vecs_, max_pairs_per_name, &rng);
  if (ds.x.empty()) {
    return iuad::Status::InvalidArgument(
        "supervised baseline: no labeled pairs from training names");
  }
  switch (kind_) {
    case SupervisedKind::kAdaBoost: {
      adaboost_ = std::make_unique<ml::AdaBoost>();
      IUAD_RETURN_NOT_OK(adaboost_->Fit(ds.x, ds.y));
      break;
    }
    case SupervisedKind::kGbdt: {
      gbdt_ = std::make_unique<ml::Gbdt>();
      IUAD_RETURN_NOT_OK(gbdt_->Fit(ds.x, ds.y));
      break;
    }
    case SupervisedKind::kRandomForest: {
      forest_ = std::make_unique<ml::RandomForest>();
      IUAD_RETURN_NOT_OK(forest_->Fit(ds.x, ds.y));
      break;
    }
    case SupervisedKind::kXgboost: {
      gbdt_ = std::make_unique<ml::Gbdt>(ml::XgboostStyleConfig());
      IUAD_RETURN_NOT_OK(gbdt_->Fit(ds.x, ds.y));
      break;
    }
  }
  trained_ = true;
  return iuad::Status::OK();
}

double SupervisedPipeline::PredictPair(
    const std::vector<float>& features) const {
  switch (kind_) {
    case SupervisedKind::kAdaBoost: return adaboost_->PredictProba(features);
    case SupervisedKind::kGbdt:
    case SupervisedKind::kXgboost: return gbdt_->PredictProba(features);
    case SupervisedKind::kRandomForest: return forest_->PredictProba(features);
  }
  return 0.5;
}

std::vector<int> SupervisedPipeline::Disambiguate(
    const std::string& name) const {
  const auto& papers = db_.PapersWithName(name);
  const size_t n = papers.size();
  if (!trained_ || n == 0) {
    // Untrained: bottom-up default, everything distinct.
    std::vector<int> singletons(n);
    for (size_t i = 0; i < n; ++i) singletons[i] = static_cast<int>(i);
    return singletons;
  }
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const auto f = ml::ExtractPairFeatures(db_, papers[i], papers[j], name,
                                             word_vecs_);
      const double d = 1.0 - PredictPair(f);
      dist[i][j] = dist[j][i] = d;
    }
  }
  cluster::HacConfig hc;
  hc.linkage = cluster::Linkage::kAverage;
  hc.distance_threshold = 0.5;
  auto labels = cluster::Hac(dist, hc);
  if (labels.ok()) return *labels;
  std::vector<int> singletons(n);
  for (size_t i = 0; i < n; ++i) singletons[i] = static_cast<int>(i);
  return singletons;
}

}  // namespace iuad::baselines
