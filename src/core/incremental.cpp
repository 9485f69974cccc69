#include "core/incremental.h"

#include <limits>

namespace iuad::core {

OccurrenceDecision ScoreOccurrence(const SimilarityComputer& sim,
                                   const em::MixtureModel& model,
                                   const graph::CollabGraph& graph,
                                   const data::Paper& paper,
                                   const std::string& name, double delta,
                                   uint64_t snapshot_version) {
  OccurrenceDecision d;
  d.snapshot_version = snapshot_version;
  // Two calibration differences vs the batch score (both documented in
  // DESIGN.md §5): γ2 is structurally 0 for a not-yet-inserted occurrence
  // and is marginalized out, and the candidate-pair class prior does not
  // describe the new-paper base rate, so the pure likelihood ratio is used.
  const std::vector<bool> mask{true, false, true, true, true, true};
  const std::vector<graph::VertexId>& candidates = graph.VerticesWithName(name);
  if (candidates.empty()) return d;  // a new name: nothing clears δ
  // The new occurrence's side is the same for every candidate: tokenize the
  // title and resolve the co-authors once.
  const SimilarityComputer::NewOccurrence occurrence =
      sim.PrepareNewOccurrence(paper, name);
  for (graph::VertexId v : candidates) {
    ++d.num_candidates;
    const double score = model.LikelihoodRatioMasked(
        sim.ComputeVsNewPaper(v, occurrence), mask);
    if (score > d.best_score) {
      d.best_score = score;
      d.target = v;
    }
  }
  if (d.best_score < delta) d.target = -1;
  return d;
}

iuad::Result<std::vector<IncrementalAssignment>> ApplyDecisions(
    const data::Paper& paper, const std::vector<OccurrenceDecision>& decisions,
    data::PaperDatabase* db, DisambiguationResult* result,
    std::vector<graph::VertexId>* touched) {
  graph::CollabGraph& graph = result->graph;
  const int pid = db->AddPaper(paper);
  std::vector<IncrementalAssignment> out(paper.author_names.size());
  std::vector<graph::VertexId> byline_vertices(paper.author_names.size());
  for (size_t i = 0; i < paper.author_names.size(); ++i) {
    const std::string& name = paper.author_names[i];
    IncrementalAssignment& a = out[i];
    a.name = name;
    a.best_score = decisions[i].best_score;
    a.num_candidates = decisions[i].num_candidates;
    if (decisions[i].target >= 0) {
      a.vertex = decisions[i].target;
      graph.AddVertexPapers(a.vertex, {pid});
      touched->push_back(a.vertex);
    } else {
      a.vertex = graph.AddVertex(name, {pid});
      a.created_new = true;
    }
    result->occurrences.AssignIfAbsent(pid, name, a.vertex);
    byline_vertices[i] = a.vertex;
  }
  // Recover this paper's collaborative relations immediately.
  for (size_t i = 0; i < byline_vertices.size(); ++i) {
    for (size_t j = i + 1; j < byline_vertices.size(); ++j) {
      if (byline_vertices[i] == byline_vertices[j]) continue;
      IUAD_RETURN_NOT_OK(
          graph.AddEdgePapers(byline_vertices[i], byline_vertices[j], {pid}));
      touched->push_back(byline_vertices[i]);
      touched->push_back(byline_vertices[j]);
    }
  }
  return out;
}

IncrementalDisambiguator::IncrementalDisambiguator(
    data::PaperDatabase* db, DisambiguationResult* result, IuadConfig config)
    : db_(db), result_(result), config_(std::move(config)) {
  Refresh();
}

void IncrementalDisambiguator::Refresh() {
  // Fold the adjacency overflow log into the packed base arrays while the
  // caches are being rebuilt anyway. Purely a storage change: neighbor
  // iteration order and content are identical before and after.
  result_->graph.Compact();
  // No WL ball is built here: γ1 is frozen at this snapshot by the
  // kernel's own adjacency copy (see SimilarityComputer), so balls filled
  // on first score match the sharded serving path's bit for bit. The
  // text/venue profiles are current (folded at every commit) and move to
  // the new computer as they are.
  auto next = std::make_unique<SimilarityComputer>(
      *db_, result_->graph, result_->embeddings, config_);
  if (sim_ != nullptr) next->AdoptProfiles(std::move(*sim_));
  sim_ = std::move(next);
  since_refresh_ = 0;
}

iuad::Result<std::vector<IncrementalAssignment>>
IncrementalDisambiguator::AddPaper(const data::Paper& paper) {
  if (result_->model == nullptr) {
    return iuad::Status::FailedPrecondition(
        "incremental disambiguation requires a fitted model (run the full "
        "pipeline, not SCN-only)");
  }
  if (paper.author_names.empty()) {
    return iuad::Status::InvalidArgument("paper with empty byline");
  }

  // Phase 1: score every occurrence against the existing same-name vertices
  // (decisions are taken on the pre-ingestion snapshot; Sec. V-E conditions
  // (1) arg-max and (2) threshold δ).
  std::vector<OccurrenceDecision> decisions(paper.author_names.size());
  for (size_t i = 0; i < paper.author_names.size(); ++i) {
    decisions[i] = ScoreOccurrence(*sim_, *result_->model, result_->graph,
                                   paper, paper.author_names[i], config_.delta,
                                   static_cast<uint64_t>(papers_ingested_));
  }

  // Phase 2: mutate database and graph; fold the new paper into the
  // touched vertices' profiles either way.
  std::vector<graph::VertexId> touched;
  auto out = ApplyDecisions(paper, decisions, db_, result_, &touched);
  for (graph::VertexId v : touched) sim_->FoldProfile(v);
  IUAD_RETURN_NOT_OK(out.status());

  ++papers_ingested_;
  if (++since_refresh_ >= config_.incremental_refresh_interval) Refresh();
  return out;
}

}  // namespace iuad::core
