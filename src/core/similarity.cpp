#include "core/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/triangles.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace iuad::core {

namespace {

/// Minimum |a_i - b_j| over two sorted year lists (the min(b) of Eq. 7).
int MinYearDiff(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0, j = 0;
  int best = std::numeric_limits<int>::max();
  while (i < a.size() && j < b.size()) {
    best = std::min(best, std::abs(a[i] - b[j]));
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

/// Finite Adamic/Adar weight: 1 / log(1 + freq). freq >= 1 always.
double AdamicAdar(int64_t freq) {
  return 1.0 / std::log(1.0 + static_cast<double>(std::max<int64_t>(freq, 1)));
}

}  // namespace

SimilarityComputer::SimilarityComputer(const data::PaperDatabase& db,
                                       const graph::CollabGraph& graph,
                                       const text::Word2Vec& embeddings,
                                       const IuadConfig& config,
                                       util::ThreadPool* pool)
    : db_(db),
      graph_(graph),
      embeddings_(embeddings),
      config_(config),
      wl_(graph, config.wl_iterations, pool),
      freqs_(std::make_shared<FrequencySnapshot>(FrequencySnapshot{
          db.venue_frequencies(), db.keyword_frequencies()})) {
  ComputeEmbeddingCenter();
}

void SimilarityComputer::ComputeEmbeddingCenter() {
  embedding_center_.assign(static_cast<size_t>(embeddings_.dim()), 0.0f);
  if (!embeddings_.trained()) return;
  const auto& vocab = embeddings_.vocabulary();
  double total = 0.0;
  text::Vec sum(static_cast<size_t>(embeddings_.dim()), 0.0f);
  for (int id = 0; id < vocab.size(); ++id) {
    const text::Vec* v = embeddings_.VectorOf(vocab.WordOf(id));
    if (v == nullptr) continue;
    const float w = static_cast<float>(vocab.CountOf(id));
    for (size_t i = 0; i < sum.size(); ++i) sum[i] += w * (*v)[i];
    total += w;
  }
  if (total > 0) {
    text::ScaleInPlace(&sum, static_cast<float>(1.0 / total));
    embedding_center_ = std::move(sum);
  }
}

void SimilarityComputer::FoldProfile(graph::VertexId v) {
  triangles_.erase(v);
  auto it = profiles_.find(v);
  if (it == profiles_.end()) return;
  Profile& p = it->second;
  const std::vector<int>& papers = graph_.vertex(v).papers;
  const size_t covered = static_cast<size_t>(p.num_papers);
  // The list is strictly increasing and only ever grows, so it still starts
  // with the covered prefix iff its covered-th entry is the profile's last
  // paper: an id inserted before it would shift a smaller id into that slot.
  const bool prefix_kept =
      papers.size() >= covered &&
      (covered == 0 || papers[covered - 1] == p.last_paper);
  if (!prefix_kept) {
    p = BuildProfileFromPapers(papers);
    return;
  }
  for (size_t k = covered; k < papers.size(); ++k) FoldPaper(papers[k], &p);
}

void SimilarityComputer::AdoptProfiles(SimilarityComputer&& previous) {
  IUAD_CHECK(&previous.db_ == &db_ && &previous.embeddings_ == &embeddings_)
      << "profiles carry only between computers over one corpus";
  IUAD_CHECK(profiles_.empty()) << "adopting into a used computer";
  profiles_ = std::move(previous.profiles_);
  previous.profiles_.clear();
}

SimilarityComputer::Profile SimilarityComputer::BuildProfileFromPapers(
    const std::vector<int>& paper_ids) const {
  Profile p;
  p.num_papers = static_cast<int>(paper_ids.size());
  if (!paper_ids.empty()) p.last_paper = paper_ids.back();
  p.embedding_sum.assign(static_cast<size_t>(embeddings_.dim()), 0.0f);
  for (int pid : paper_ids) {
    const data::Paper& paper = db_.paper(pid);
    ++p.venue_counts[paper.venue];
    for (const auto& kw : db_.KeywordsOf(pid)) {
      p.keyword_years[kw].push_back(paper.year);
      if (const text::Vec* v = embeddings_.VectorOf(kw)) {
        text::AddInPlace(&p.embedding_sum, *v);
        ++p.embedded_words;
      }
    }
  }
  for (auto& [kw, years] : p.keyword_years) {
    std::sort(years.begin(), years.end());
  }
  // Representative venue: most frequent, ties to the lexicographically
  // smallest for determinism.
  int best = -1;
  for (const auto& [venue, cnt] : p.venue_counts) {
    if (cnt > best || (cnt == best && venue < p.representative_venue)) {
      best = cnt;
      p.representative_venue = venue;
    }
  }
  return p;
}

void SimilarityComputer::FoldPaper(int pid, Profile* p) const {
  // BuildProfileFromPapers's steps for one more paper, in its order: the
  // maps see the same insertion sequence a fresh build would, so γ4/γ6
  // iterate them identically, and the embedding sum adds in the same order.
  const data::Paper& paper = db_.paper(pid);
  const int count = ++p->venue_counts[paper.venue];
  // Only this venue's count moved, so the (max count, smallest name)
  // winner is either the old one or this venue.
  const auto rep = p->venue_counts.find(p->representative_venue);
  const int rep_count = rep == p->venue_counts.end() ? 0 : rep->second;
  if (count > rep_count ||
      (count == rep_count && paper.venue < p->representative_venue)) {
    p->representative_venue = paper.venue;
  }
  for (const auto& kw : db_.KeywordsOf(pid)) {
    std::vector<int>& years = p->keyword_years[kw];
    years.insert(std::upper_bound(years.begin(), years.end(), paper.year),
                 paper.year);
    if (const text::Vec* v = embeddings_.VectorOf(kw)) {
      text::AddInPlace(&p->embedding_sum, *v);
      ++p->embedded_words;
    }
  }
  ++p->num_papers;
  p->last_paper = pid;
}

SimilarityComputer::Profile SimilarityComputer::BuildProfileFromSinglePaper(
    const data::Paper& paper) const {
  Profile p;
  p.num_papers = 1;
  ++p.venue_counts[paper.venue];
  p.representative_venue = paper.venue;
  p.embedding_sum.assign(static_cast<size_t>(embeddings_.dim()), 0.0f);
  for (const auto& kw : text::ExtractKeywords(paper.title)) {
    p.keyword_years[kw].push_back(paper.year);
    if (const text::Vec* v = embeddings_.VectorOf(kw)) {
      text::AddInPlace(&p.embedding_sum, *v);
      ++p.embedded_words;
    }
  }
  return p;
}

text::Vec SimilarityComputer::MeanEmbedding(const Profile& p) const {
  text::Vec mean = p.embedding_sum;
  if (p.embedded_words > 0) {
    text::ScaleInPlace(&mean, 1.0f / static_cast<float>(p.embedded_words));
    // Remove the corpus-wide common component (see ComputeEmbeddingCenter).
    for (size_t i = 0; i < mean.size(); ++i) mean[i] -= embedding_center_[i];
  }
  return mean;
}

const SimilarityComputer::Profile& SimilarityComputer::ProfileOf(
    graph::VertexId v) const {
  auto it = profiles_.find(v);
  if (it != profiles_.end()) return it->second;
  return profiles_.emplace(v, BuildProfileFromPapers(graph_.vertex(v).papers))
      .first->second;
}

const SimilarityComputer::TriangleNames& SimilarityComputer::TriangleNamesOf(
    graph::VertexId v) const {
  auto it = triangles_.find(v);
  if (it != triangles_.end()) return it->second;
  return triangles_.emplace(v, BuildTriangleNames(v)).first->second;
}

SimilarityComputer::TriangleNames SimilarityComputer::BuildTriangleNames(
    graph::VertexId v) const {
  // Incident triangles by co-author names (L(v) of Eq. 5), as id pairs.
  TriangleNames names;
  for (const auto& [a, b] : graph::TrianglesOf(graph_, v)) {
    util::NameId na = graph_.vertex(a).name_id;
    util::NameId nb = graph_.vertex(b).name_id;
    if (nb < na) std::swap(na, nb);
    names.emplace_back(na, nb);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void SimilarityComputer::PrewarmProfiles(
    const std::vector<std::pair<graph::VertexId, graph::VertexId>>& pairs,
    util::ThreadPool* pool) const {
  std::vector<graph::VertexId> vertices;
  vertices.reserve(pairs.size() * 2);
  for (const auto& [u, v] : pairs) {
    vertices.push_back(u);
    vertices.push_back(v);
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  wl_.PrewarmFeatures(vertices, pool);

  // A vertex lacking either cache gets both built; emplace keeps whichever
  // one it already had.
  std::vector<graph::VertexId> missing;
  for (graph::VertexId v : vertices) {
    if (profiles_.find(v) == profiles_.end() ||
        triangles_.find(v) == triangles_.end()) {
      missing.push_back(v);
    }
  }
  if (missing.empty()) return;
  std::vector<Profile> built(missing.size());
  std::vector<TriangleNames> built_triangles(missing.size());
  util::ForIndices(pool, missing.size(), [&](size_t i) {
    built[i] = BuildProfileFromPapers(graph_.vertex(missing[i]).papers);
    built_triangles[i] = BuildTriangleNames(missing[i]);
  });
  for (size_t i = 0; i < missing.size(); ++i) {
    profiles_.emplace(missing[i], std::move(built[i]));
    triangles_.emplace(missing[i], std::move(built_triangles[i]));
  }
}

std::vector<SimilarityVector> SimilarityComputer::ComputeBatch(
    const std::vector<std::pair<graph::VertexId, graph::VertexId>>& pairs,
    util::ThreadPool* pool) const {
  std::vector<SimilarityVector> gammas(pairs.size());
  if (pairs.empty()) return gammas;
  PrewarmProfiles(pairs, pool);
  // Read-only from here: every profile and WL feature map is cached, so
  // concurrent Compute calls never touch the mutable caches.
  util::ForIndices(pool, pairs.size(), [&](size_t i) {
    gammas[i] = Compute(pairs[i].first, pairs[i].second);
  });
  return gammas;
}

void SimilarityComputer::FillTextAndVenueFeatures(
    const Profile& a, const text::Vec& mean_a, const Profile& b,
    const text::Vec& mean_b, SimilarityVector* gamma) const {
  const double tau =
      static_cast<double>(std::max(1, std::min(a.num_papers, b.num_papers)));
  // Scale compression for the unbounded overlap features (see header).
  auto squash = [](double x) { return std::log1p(x); };

  // γ3 (Eq. 6): cosine of mean keyword embeddings.
  (*gamma)[2] = text::Cosine(mean_a, mean_b);

  // γ4 (Eq. 7): decay-weighted rare-keyword overlap. Iterate the smaller map.
  const Profile& small = a.keyword_years.size() <= b.keyword_years.size() ? a : b;
  const Profile& large = a.keyword_years.size() <= b.keyword_years.size() ? b : a;
  double g4 = 0.0;
  for (const auto& [word, years_s] : small.keyword_years) {
    auto it = large.keyword_years.find(word);
    if (it == large.keyword_years.end()) continue;
    const int diff = MinYearDiff(years_s, it->second);
    g4 += std::exp(-config_.time_decay_alpha * diff) *
          AdamicAdar(freqs_->KeywordFrequency(word));
  }
  (*gamma)[3] = squash(g4 / tau);

  // γ5 (Eq. 8): cross counts of the representative venues.
  auto count_in = [](const Profile& p, const std::string& venue) {
    auto it = p.venue_counts.find(venue);
    return it == p.venue_counts.end() ? 0 : it->second;
  };
  (*gamma)[4] = squash((count_in(b, a.representative_venue) +
                        count_in(a, b.representative_venue)) /
                       tau);

  // γ6 (Eq. 9): Adamic/Adar venue-multiset overlap (multiplicity = min).
  const Profile& vs = a.venue_counts.size() <= b.venue_counts.size() ? a : b;
  const Profile& vl = a.venue_counts.size() <= b.venue_counts.size() ? b : a;
  double g6 = 0.0;
  for (const auto& [venue, cnt_s] : vs.venue_counts) {
    auto it = vl.venue_counts.find(venue);
    if (it == vl.venue_counts.end()) continue;
    g6 += std::min(cnt_s, it->second) * AdamicAdar(freqs_->VenueFrequency(venue));
  }
  (*gamma)[5] = squash(g6 / tau);
}

SimilarityVector SimilarityComputer::Compute(graph::VertexId u,
                                             graph::VertexId v) const {
  SimilarityVector gamma(kNumSimilarities, 0.0);
  const Profile& pu = ProfileOf(u);
  const Profile& pv = ProfileOf(v);
  const double tau =
      static_cast<double>(std::max(1, std::min(pu.num_papers, pv.num_papers)));

  // γ1 (Eq. 3-4): normalized WL subtree kernel.
  gamma[0] = wl_.NormalizedKernel(u, v);

  // γ2 (Eq. 5): common co-author cliques (triangles, by name) over τ.
  const TriangleNames& tu = TriangleNamesOf(u);
  const TriangleNames& tv = TriangleNamesOf(v);
  TriangleNames common;
  std::set_intersection(tu.begin(), tu.end(), tv.begin(), tv.end(),
                        std::back_inserter(common));
  gamma[1] = std::log1p(static_cast<double>(common.size()) / tau);

  FillTextAndVenueFeatures(pu, MeanEmbedding(pu), pv, MeanEmbedding(pv),
                           &gamma);
  return gamma;
}

SimilarityComputer::NewOccurrence SimilarityComputer::PrepareNewOccurrence(
    const data::Paper& paper, const std::string& name) const {
  NewOccurrence occ;
  occ.profile = BuildProfileFromSinglePaper(paper);
  occ.mean_embedding = MeanEmbedding(occ.profile);
  // γ1: the new occurrence is a star whose neighbors are its byline
  // co-authors.
  std::vector<std::string> coauthors;
  for (const auto& other : paper.author_names) {
    if (other != name) coauthors.push_back(other);
  }
  occ.coauthors = wl_.ResolveNameSet(coauthors);
  return occ;
}

SimilarityVector SimilarityComputer::ComputeVsNewPaper(
    graph::VertexId v, const NewOccurrence& occurrence) const {
  SimilarityVector gamma(kNumSimilarities, 0.0);
  const Profile& pv = ProfileOf(v);
  // γ1: the co-author names against v's WL ball.
  gamma[0] = wl_.NormalizedKernelVsNameSet(v, occurrence.coauthors);
  // γ2: an unattached occurrence participates in no cliques yet.
  gamma[1] = 0.0;
  FillTextAndVenueFeatures(pv, MeanEmbedding(pv), occurrence.profile,
                           occurrence.mean_embedding, &gamma);
  return gamma;
}

}  // namespace iuad::core
