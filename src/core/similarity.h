#ifndef IUAD_CORE_SIMILARITY_H_
#define IUAD_CORE_SIMILARITY_H_

/// \file similarity.h
/// The six similarity functions of Sec. V-B, computed between two same-name
/// vertices of the collaboration graph:
///   γ1  normalized Weisfeiler-Lehman subtree kernel          (Eq. 3-4)
///   γ2  co-author clique (triangle) coincidence ratio        (Eq. 5)
///   γ3  cosine of mean title-keyword embeddings              (Eq. 6)
///   γ4  time consistency of research interests               (Eq. 7)
///   γ5  representative-community (top venue) similarity      (Eq. 8)
///   γ6  Adamic/Adar research-community similarity            (Eq. 9)
///
/// Per-vertex text/venue profiles (keyword year lists, venue counts,
/// representative venue, keyword-embedding sum) are cached lazily and are a
/// pure function of the vertex's paper list and the trained embeddings:
/// FoldProfile folds the papers a commit appended into the cached profile,
/// and a refresh moves the profiles into the next computer (AdoptProfiles).
/// The incident-triangle names γ2 needs are a separate cache, filled only
/// by the batch Compute/PrewarmProfiles path; incremental scoring masks γ2.
///
/// Three deliberate deviations from the paper's formulas, all documented in
/// DESIGN.md: the γ4 exponent is e^(−α·min(b)) — the cited FutureRank decay;
/// the PDF's e^(α·min(b)) grows with the year gap, contradicting the prose —
/// the Adamic/Adar denominators use log(1 + F) to stay finite at F = 1, and
/// the unbounded overlap features γ2/γ4/γ5/γ6 are log1p-compressed so one
/// exponential marginal covers both prolific-vertex pairs (raw overlaps in
/// the tens) and single-paper pairs (raw overlaps of 0-2); without the
/// compression the EM matched component latches onto the large-profile
/// scale and single-paper evidence is mis-scored.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "data/paper_database.h"
#include "graph/collab_graph.h"
#include "graph/wl_kernel.h"
#include "text/word2vec.h"
#include "util/thread_pool.h"

namespace iuad::core {

/// One γ vector.
using SimilarityVector = std::vector<double>;

/// Computes γ vectors against one graph snapshot. The referenced database,
/// graph, and embeddings must outlive this object. Rebuild after bulk graph
/// mutation (merges / splits) — the WL kernel is snapshot-bound.
///
/// γ1 is a pure function of the construction-time graph: the WL kernel
/// keeps its own frozen copy of the adjacency and builds each vertex's ball
/// from it on the vertex's first score, so a ball is the same however many
/// papers have committed to the live graph since. That timing-independence
/// is what lets the pipelined shard router score a paper before its
/// sequence predecessors commit (shard_router.h) while staying
/// byte-identical to sequential ingestion. The text/venue profiles are not
/// snapshot-bound at all: each is a pure function of its vertex's current
/// paper list, kept current by FoldProfile and carried from one refresh's
/// computer to the next by AdoptProfiles. A copy shares the immutable WL
/// state and frequency tables and gets its own copy of the lazily filled
/// caches; only one thread at a time may score through one computer unless
/// its caches were prewarmed (ComputeBatch).
class SimilarityComputer {
 private:
  /// Cached text/venue view of one vertex: a pure function of the papers it
  /// covers and the trained embeddings. A profile covers a prefix of its
  /// vertex's sorted paper list, the first `num_papers` ids, the last of
  /// which is `last_paper`.
  struct Profile {
    int num_papers = 0;
    int last_paper = -1;
    std::unordered_map<std::string, std::vector<int>> keyword_years;  // sorted
    std::unordered_map<std::string, int> venue_counts;
    std::string representative_venue;
    /// Sum of the embedded keyword vectors, in paper-then-keyword order, and
    /// how many were added; the centered mean is derived when scoring
    /// (MeanEmbedding).
    text::Vec embedding_sum;
    int embedded_words = 0;
  };

 public:
  /// The new occurrence's side of ComputeVsNewPaper, built once per byline
  /// by PrepareNewOccurrence and shared by every candidate's score.
  struct NewOccurrence {
    Profile profile;           ///< Single-paper profile of the new paper.
    text::Vec mean_embedding;  ///< Its centered mean keyword embedding.
    /// The byline co-authors (every name but the occurrence's own) as WL
    /// iteration-0 labels.
    graph::WlVertexKernel::NameSet coauthors;
  };

  /// When `pool` is given, the snapshot-bound WL refinement runs across its
  /// workers (labels identical to a serial build); the pool is only used
  /// during construction and need not outlive this object.
  SimilarityComputer(const data::PaperDatabase& db,
                     const graph::CollabGraph& graph,
                     const text::Word2Vec& embeddings,
                     const IuadConfig& config,
                     util::ThreadPool* pool = nullptr);

  /// γ1..γ6 between two alive vertices (callers pair same-name vertices;
  /// the math does not require it).
  SimilarityVector Compute(graph::VertexId u, graph::VertexId v) const;

  /// γ vectors for every pair, in input order, computed on the caller-owned
  /// `pool` (so callers can score in bounded-memory chunks without
  /// respawning workers per chunk). Equivalent to calling Compute per pair:
  /// the lazily-built per-vertex profiles, triangle names and WL features
  /// are populated in a prepass (PrewarmProfiles), after which the parallel
  /// region is read-only, and results land in slots indexed by pair
  /// position — identical output at any thread count.
  std::vector<SimilarityVector> ComputeBatch(
      const std::vector<std::pair<graph::VertexId, graph::VertexId>>& pairs,
      util::ThreadPool* pool) const;

  /// Builds (and caches) profiles, triangle names and WL features of every
  /// vertex appearing in `pairs`, concurrently on `pool` when given.
  /// Subsequent Compute calls touching only these vertices are const in the
  /// deep sense and thread-safe.
  void PrewarmProfiles(
      const std::vector<std::pair<graph::VertexId, graph::VertexId>>& pairs,
      util::ThreadPool* pool = nullptr) const;

  /// The side of the *new occurrence* of `name` in `paper` that every
  /// candidate comparison shares. The paper need not be in the database.
  NewOccurrence PrepareNewOccurrence(const data::Paper& paper,
                                     const std::string& name) const;

  /// γ1..γ6 between vertex `v` and a prepared new occurrence — the
  /// isolated-vertex comparison of the incremental path (Sec. V-E).
  SimilarityVector ComputeVsNewPaper(graph::VertexId v,
                                     const NewOccurrence& occurrence) const;

  /// Brings v's cached state up to date after v gained papers or edges;
  /// between rebuilds the graph only inserts into a vertex's sorted paper
  /// list. Ids inserted after the profile's last paper are folded in —
  /// sorted year inserts, venue counts, the representative venue by the
  /// builder's rule, the embedding sum in the builder's order — so the
  /// result equals a fresh build bit for bit; an id inserted before it
  /// rebuilds the profile, and an unchanged list (an edge-only touch)
  /// leaves it as it is. v's triangle names, if cached, are dropped.
  void FoldProfile(graph::VertexId v);

  /// Moves `previous`'s cached profiles into this computer, which must be
  /// built over the same database and embeddings and hold no profile yet.
  /// A moved profile equals the one this computer would build (profiles
  /// depend only on the vertex's papers), so this changes when the work is
  /// done, never a score. Triangle names and WL balls stay behind: they
  /// are snapshot-bound.
  void AdoptProfiles(SimilarityComputer&& previous);

  const graph::WlVertexKernel& wl_kernel() const { return wl_; }

 private:
  /// Incident triangles as sorted interned-name-id pairs (identity by
  /// *name*: two same-name vertices never share neighbor vertices in an
  /// SCN, so the clique comparison of Eq. 5 is necessarily nominal — and
  /// name equality is exactly NameId equality).
  using TriangleNames = std::vector<std::pair<util::NameId, util::NameId>>;

  const Profile& ProfileOf(graph::VertexId v) const;
  const TriangleNames& TriangleNamesOf(graph::VertexId v) const;
  /// The cache-free computations behind ProfileOf and TriangleNamesOf;
  /// safe to run concurrently for distinct vertices.
  Profile BuildProfileFromPapers(const std::vector<int>& paper_ids) const;
  TriangleNames BuildTriangleNames(graph::VertexId v) const;
  Profile BuildProfileFromSinglePaper(const data::Paper& paper) const;
  /// Adds paper `pid`, which sorts after every paper `p` covers, to `p`.
  void FoldPaper(int pid, Profile* p) const;
  /// The centered mean keyword embedding of `p` (zero without any embedded
  /// keyword).
  text::Vec MeanEmbedding(const Profile& p) const;
  void FillTextAndVenueFeatures(const Profile& a, const text::Vec& mean_a,
                                const Profile& b, const text::Vec& mean_b,
                                SimilarityVector* gamma) const;
  /// Frequency-weighted mean of all word vectors. Mean keyword embeddings
  /// are strongly anisotropic (every profile's mean points roughly the same
  /// way, saturating the cosine near 1); subtracting this common component
  /// restores discriminative power for γ3.
  void ComputeEmbeddingCenter();

  /// Corpus statistics frozen at construction. γ4/γ6 weight keyword and
  /// venue overlaps by inverse corpus frequency (Eq. 7 / Eq. 9); between
  /// incremental refreshes those frequencies drift as papers commit, so a
  /// score would otherwise depend on exactly how many papers committed
  /// before it was computed. Snapshotting at refresh makes every score a
  /// pure function of (refresh snapshot, candidate papers) — the same
  /// staleness contract the WL features already have — and is what keeps
  /// pipelined scoring byte-identical to sequential. Shared (not copied) by
  /// the per-shard SimilarityComputer copies. For the batch fit the corpus
  /// is static during scoring, so frozen == live there.
  struct FrequencySnapshot {
    std::unordered_map<std::string, int64_t> venue;
    std::unordered_map<std::string, int64_t> keyword;
    int64_t VenueFrequency(const std::string& v) const {
      auto it = venue.find(v);
      return it == venue.end() ? 0 : it->second;
    }
    int64_t KeywordFrequency(const std::string& w) const {
      auto it = keyword.find(w);
      return it == keyword.end() ? 0 : it->second;
    }
  };

  const data::PaperDatabase& db_;
  const graph::CollabGraph& graph_;
  const text::Word2Vec& embeddings_;
  IuadConfig config_;
  graph::WlVertexKernel wl_;
  text::Vec embedding_center_;
  std::shared_ptr<const FrequencySnapshot> freqs_;
  mutable std::unordered_map<graph::VertexId, Profile> profiles_;
  mutable std::unordered_map<graph::VertexId, TriangleNames> triangles_;
};

}  // namespace iuad::core

#endif  // IUAD_CORE_SIMILARITY_H_
