#ifndef IUAD_CORE_INCREMENTAL_H_
#define IUAD_CORE_INCREMENTAL_H_

/// \file incremental.h
/// The single-paper disambiguation problem (Sec. V-E). A newly published
/// paper's author occurrence is an isolated vertex in the GCN; IUAD scores
/// it against every same-name vertex with the already-fitted model and
/// assigns it to the arg-max vertex when that score clears δ, otherwise a
/// new author is born. No retraining happens — this is the paper's headline
/// efficiency claim (< 50 ms/paper in Table VI).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "core/similarity.h"
#include "data/paper_database.h"
#include "util/status.h"

namespace iuad::core {

/// Outcome of one byline occurrence of a newly ingested paper.
struct IncrementalAssignment {
  std::string name;
  graph::VertexId vertex = -1;  ///< Owner after ingestion.
  bool created_new = false;     ///< True when a new author vertex was born.
  double best_score = 0.0;      ///< Max log-odds among candidates (Eq. 11).
  int num_candidates = 0;
};

/// Phase-1 verdict for one byline occurrence: the arg-max candidate after
/// the δ threshold (Sec. V-E conditions (1) and (2)), taken on the
/// pre-ingestion snapshot.
struct OccurrenceDecision {
  graph::VertexId target = -1;  ///< -1: found no vertex clearing δ.
  double best_score = -std::numeric_limits<double>::infinity();
  int num_candidates = 0;
  /// Commit version of the graph snapshot the score was taken on (the
  /// number of ApplyDecisions calls that had mutated the graph when
  /// ScoreOccurrence ran). A decision is valid for committing at version V
  /// iff no commit in (snapshot_version, V] wrote the byline's name block —
  /// which makes staleness *detectable* instead of assumed, and is what the
  /// pipelined shard router's block-level conflict tracking checks before
  /// deciding to rescore (shard_router.h). The sequential path stamps and
  /// commits at the same version, trivially valid.
  uint64_t snapshot_version = 0;
};

/// Scores the occurrence of `name` in the not-yet-ingested `paper` against
/// every live same-name vertex. Pure read of graph/model/db (cache fills in
/// `sim` aside), so decisions for distinct bylines may be computed
/// concurrently on distinct SimilarityComputers — the fan-out the shard
/// router (src/shard) exploits. γ2 is masked out and the class prior
/// dropped exactly as documented in DESIGN.md §5. `snapshot_version` is
/// recorded verbatim in the decision (see OccurrenceDecision).
OccurrenceDecision ScoreOccurrence(const SimilarityComputer& sim,
                                   const em::MixtureModel& model,
                                   const graph::CollabGraph& graph,
                                   const data::Paper& paper,
                                   const std::string& name, double delta,
                                   uint64_t snapshot_version = 0);

/// Phase 2: commits one paper's decided bylines — appends the paper to the
/// database, assigns/creates vertices, records occurrences, and recovers
/// the paper's collaborative relations — in exactly the order the
/// sequential AddPaper performs them. Every vertex that gained papers or
/// edges is appended to `touched`, including the ones mutated before a
/// mid-commit error; the caller owns folding them into its
/// SimilarityComputer(s) (SimilarityComputer::FoldProfile).
iuad::Result<std::vector<IncrementalAssignment>> ApplyDecisions(
    const data::Paper& paper, const std::vector<OccurrenceDecision>& decisions,
    data::PaperDatabase* db, DisambiguationResult* result,
    std::vector<graph::VertexId>* touched);

/// Streams new papers into an existing disambiguation result.
///
/// `db` must be the same database the result was built from (ids must
/// agree); both are mutated by AddPaper. The structure snapshot (WL kernel,
/// corpus frequencies) is rebuilt every config.incremental_refresh_interval
/// papers; new papers are visible to the text/venue features immediately
/// (each commit folds them into the touched profiles, which carry across
/// refreshes) and new edges to the structural features after the next
/// refresh.
class IncrementalDisambiguator {
 public:
  IncrementalDisambiguator(data::PaperDatabase* db,
                           DisambiguationResult* result, IuadConfig config);

  /// Ingests one paper: decides each byline occurrence, updates the
  /// database, graph and occurrence index, and recovers the paper's
  /// collaborative relations. Fails with FailedPrecondition when the result
  /// holds no fitted model (SCN-only runs cannot go incremental).
  iuad::Result<std::vector<IncrementalAssignment>> AddPaper(
      const data::Paper& paper);

  int papers_ingested() const { return papers_ingested_; }

 private:
  void Refresh();

  data::PaperDatabase* db_;
  DisambiguationResult* result_;
  IuadConfig config_;
  std::unique_ptr<SimilarityComputer> sim_;
  int papers_ingested_ = 0;
  int since_refresh_ = 0;
};

}  // namespace iuad::core

#endif  // IUAD_CORE_INCREMENTAL_H_
