#include "io/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/occurrence_index.h"
#include "em/distributions.h"
#include "em/mixture_model.h"
#include "graph/collab_graph.h"
#include "io/byte_codec.h"
#include "io/fsync_util.h"
#include "shard/placement.h"
#include "text/vocabulary.h"
#include "text/word2vec.h"
#include "util/thread_pool.h"

namespace iuad::io {

namespace {

constexpr char kMagic[8] = {'I', 'U', 'A', 'D', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderSize = 40;  // magic + version + fp + size + 2 checksums

/// Section kinds (the table's `kind` field).
constexpr uint32_t kSectionCommon = 0;
constexpr uint32_t kSectionShard = 1;
/// One section-table entry: kind u32 + size u64 + checksum u64.
constexpr size_t kSectionEntrySize = 20;

// ---- Section: config ------------------------------------------------------

void WriteConfig(const core::IuadConfig& c, Writer* w) {
  w->I64(c.eta);
  w->Bool(c.triangle_gated_insertion);
  w->I32(c.wl_iterations);
  w->F64(c.time_decay_alpha);
  w->I32(c.word2vec.dim);
  w->I32(c.word2vec.window);
  w->I32(c.word2vec.negatives);
  w->I32(c.word2vec.epochs);
  w->F64(c.word2vec.learning_rate);
  w->I32(c.word2vec.min_count);
  w->F64(c.word2vec.subsample);
  w->U64(c.word2vec.seed);
  w->I32(c.word2vec.num_threads);
  w->I32(c.word2vec.num_shards);
  w->F64(c.delta);
  w->F64(c.sample_rate);
  w->Bool(c.vertex_splitting);
  w->I32(c.split_min_papers);
  w->I32(c.max_split_vertices);
  w->I32(c.max_pairs_per_name);
  w->U64(c.families.size());
  for (em::FamilyType f : c.families) w->U8(static_cast<uint8_t>(f));
  w->I32(c.em.max_iterations);
  w->F64(c.em.tolerance);
  w->F64(c.em.init_quantile);
  w->F64(c.em.init_high);
  w->F64(c.em.init_low);
  w->F64(c.em.min_prior);
  w->I32(c.num_threads);
  w->I32(c.incremental_refresh_interval);
  w->U64(c.seed);
  w->I32(c.ingest_queue_capacity);
  w->I32(c.ingest_refresh_window);
  w->I32(c.num_shards);
  w->U8(static_cast<uint8_t>(c.shard_placement));
  w->I32(c.em.num_threads);
  // snapshot_path / persist_snapshot are runtime knobs of the *saving*
  // process, not properties of the fitted state; pair_label_oracle is a
  // std::function and cannot round-trip. None are serialized.
}

core::IuadConfig ReadConfig(Reader* r) {
  core::IuadConfig c;
  c.eta = r->I64();
  c.triangle_gated_insertion = r->Bool();
  c.wl_iterations = r->I32();
  c.time_decay_alpha = r->F64();
  c.word2vec.dim = r->I32();
  c.word2vec.window = r->I32();
  c.word2vec.negatives = r->I32();
  c.word2vec.epochs = r->I32();
  c.word2vec.learning_rate = r->F64();
  c.word2vec.min_count = r->I32();
  c.word2vec.subsample = r->F64();
  c.word2vec.seed = r->U64();
  c.word2vec.num_threads = r->I32();
  c.word2vec.num_shards = r->I32();
  c.delta = r->F64();
  c.sample_rate = r->F64();
  c.vertex_splitting = r->Bool();
  c.split_min_papers = r->I32();
  c.max_split_vertices = r->I32();
  c.max_pairs_per_name = r->I32();
  const uint64_t nf = r->U64();
  c.families.clear();
  for (uint64_t i = 0; i < nf && r->ok(); ++i) {
    c.families.push_back(static_cast<em::FamilyType>(r->U8()));
  }
  c.em.max_iterations = r->I32();
  c.em.tolerance = r->F64();
  c.em.init_quantile = r->F64();
  c.em.init_high = r->F64();
  c.em.init_low = r->F64();
  c.em.min_prior = r->F64();
  c.num_threads = r->I32();
  c.incremental_refresh_interval = r->I32();
  c.seed = r->U64();
  c.ingest_queue_capacity = r->I32();
  c.ingest_refresh_window = r->I32();
  c.num_shards = r->I32();
  c.shard_placement = static_cast<core::ShardPlacement>(r->U8());
  c.em.num_threads = r->I32();
  return c;
}

// ---- Section: embeddings --------------------------------------------------

void WriteEmbeddings(const text::Word2Vec& w2v, Writer* w) {
  w->Bool(w2v.trained());
  if (!w2v.trained()) return;
  const text::Vocabulary& vocab = w2v.vocabulary();
  w->I32(w2v.dim());
  w->U64(static_cast<uint64_t>(vocab.size()));
  for (int id = 0; id < vocab.size(); ++id) {
    w->Str(vocab.WordOf(id));
    w->I64(vocab.CountOf(id));
    const text::Vec* v = w2v.VectorOf(vocab.WordOf(id));
    w->FloatVec(*v);
  }
  w->F64(w2v.final_learning_rate());
  w->I64(w2v.trained_tokens());
}

iuad::Result<text::Word2Vec> ReadEmbeddings(const text::Word2VecConfig& cfg,
                                            Reader* r) {
  if (!r->Bool()) return text::Word2Vec(cfg);  // untrained (SCN-only save)
  const int dim = r->I32();
  if (dim != cfg.dim) {
    return iuad::Status::IoError(
        "snapshot: embedding dimension disagrees with stored config");
  }
  const uint64_t n = r->U64();
  text::Vocabulary vocab;
  std::vector<text::Vec> vectors;
  // `n` is as hostile as any other payload count (checksums are over public
  // data): never let it drive a giant reserve. Growth past the bound is
  // organic push_back, and a lying count fails the r->ok() loop guard on
  // the first short read.
  vectors.reserve(static_cast<size_t>(std::min<uint64_t>(n, 1u << 16)));
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    const std::string word = r->Str();
    const int64_t count = r->I64();
    vocab.AddCount(word, count);
    vectors.push_back(r->FloatVec());
  }
  const double final_lr = r->F64();
  const int64_t trained_tokens = r->I64();
  IUAD_RETURN_NOT_OK(r->status());
  return text::Word2Vec::Restore(cfg, std::move(vocab), std::move(vectors),
                                 final_lr, trained_tokens);
}

// ---- Section: model -------------------------------------------------------

void WriteDistribution(const em::Distribution& d, Writer* w) {
  w->U8(static_cast<uint8_t>(d.family()));
  switch (d.family()) {
    case em::FamilyType::kGaussian: {
      const auto& g = static_cast<const em::GaussianDist&>(d);
      w->F64(g.mean());
      w->F64(g.variance());
      break;
    }
    case em::FamilyType::kExponential: {
      const auto& e = static_cast<const em::ExponentialDist&>(d);
      w->F64(e.lambda());
      break;
    }
    case em::FamilyType::kMultinomial: {
      const auto& m = static_cast<const em::MultinomialDist&>(d);
      w->U32(static_cast<uint32_t>(m.num_bins()));
      w->F64(m.lo());
      w->F64(m.hi());
      w->F64Vec(m.probabilities());
      break;
    }
  }
}

iuad::Result<std::unique_ptr<em::Distribution>> ReadDistribution(Reader* r) {
  const auto family = static_cast<em::FamilyType>(r->U8());
  switch (family) {
    case em::FamilyType::kGaussian: {
      const double mean = r->F64();
      const double variance = r->F64();
      IUAD_RETURN_NOT_OK(r->status());
      return {std::make_unique<em::GaussianDist>(mean, variance)};
    }
    case em::FamilyType::kExponential: {
      const double lambda = r->F64();
      IUAD_RETURN_NOT_OK(r->status());
      return {std::make_unique<em::ExponentialDist>(lambda)};
    }
    case em::FamilyType::kMultinomial: {
      const auto num_bins = static_cast<int>(r->U32());
      const double lo = r->F64();
      const double hi = r->F64();
      std::vector<double> probs = r->F64Vec();
      IUAD_RETURN_NOT_OK(r->status());
      auto m = std::make_unique<em::MultinomialDist>(num_bins, lo, hi);
      IUAD_RETURN_NOT_OK(m->SetProbabilities(std::move(probs)));
      return {std::move(m)};
    }
  }
  return iuad::Status::IoError("snapshot: unknown distribution family");
}

void WriteModel(const em::MixtureModel* model, Writer* w) {
  w->Bool(model != nullptr);
  if (model == nullptr) return;
  w->U32(static_cast<uint32_t>(model->dimension()));
  w->F64(model->prior_matched());
  w->F64(model->final_log_likelihood());
  w->I32(model->iterations_run());
  for (int f = 0; f < model->dimension(); ++f) {
    WriteDistribution(model->matched(f), w);
    WriteDistribution(model->unmatched(f), w);
  }
}

iuad::Result<std::unique_ptr<em::MixtureModel>> ReadModel(
    const core::IuadConfig& config, Reader* r) {
  if (!r->Bool()) return {std::unique_ptr<em::MixtureModel>()};  // SCN-only
  const auto m = static_cast<int>(r->U32());
  const double prior = r->F64();
  const double final_ll = r->F64();
  const int iterations = r->I32();
  std::vector<std::unique_ptr<em::Distribution>> matched, unmatched;
  for (int f = 0; f < m && r->ok(); ++f) {
    IUAD_ASSIGN_OR_RETURN(auto dm, ReadDistribution(r));
    IUAD_ASSIGN_OR_RETURN(auto du, ReadDistribution(r));
    matched.push_back(std::move(dm));
    unmatched.push_back(std::move(du));
  }
  IUAD_RETURN_NOT_OK(r->status());
  em::MixtureConfig mc = config.em;
  mc.families = config.families;  // as GcnBuilder assembles it before Fit
  IUAD_ASSIGN_OR_RETURN(
      auto model,
      em::MixtureModel::Restore(std::move(mc), std::move(matched),
                                std::move(unmatched), prior, final_ll,
                                iterations));
  return {std::make_unique<em::MixtureModel>(std::move(model))};
}

// ---- Section: stats -------------------------------------------------------

void WriteStats(const core::DisambiguationResult& res, Writer* w) {
  w->I64(res.scn_stats.num_scrs);
  w->I32(res.scn_stats.num_vertices);
  w->I32(res.scn_stats.num_edges);
  w->I64(res.scn_stats.covered_occurrences);
  w->I64(res.scn_stats.singleton_occurrences);
  w->I32(res.scn_stats.conflict_merges);
  w->I64(res.gcn_stats.names_with_candidates);
  w->I64(res.gcn_stats.candidate_pairs);
  w->I64(res.gcn_stats.training_pairs);
  w->I64(res.gcn_stats.augmented_pairs);
  w->I64(res.gcn_stats.merges);
  w->I64(res.gcn_stats.recovered_edges);
  w->F64(res.gcn_stats.em_log_likelihood);
  w->I32(res.gcn_stats.em_iterations);
  w->F64(res.embed_seconds);
  w->F64(res.scn_seconds);
  w->F64(res.gcn_seconds);
}

void ReadStats(Reader* r, core::DisambiguationResult* res) {
  res->scn_stats.num_scrs = r->I64();
  res->scn_stats.num_vertices = r->I32();
  res->scn_stats.num_edges = r->I32();
  res->scn_stats.covered_occurrences = r->I64();
  res->scn_stats.singleton_occurrences = r->I64();
  res->scn_stats.conflict_merges = r->I32();
  res->gcn_stats.names_with_candidates = r->I64();
  res->gcn_stats.candidate_pairs = r->I64();
  res->gcn_stats.training_pairs = r->I64();
  res->gcn_stats.augmented_pairs = r->I64();
  res->gcn_stats.merges = r->I64();
  res->gcn_stats.recovered_edges = r->I64();
  res->gcn_stats.em_log_likelihood = r->F64();
  res->gcn_stats.em_iterations = r->I32();
  res->embed_seconds = r->F64();
  res->scn_seconds = r->F64();
  res->gcn_seconds = r->F64();
}

// ---- Section assembly -----------------------------------------------------

/// Common section: everything global — config, the total vertex count the
/// shard-slice merge pre-sizes with, the interned author-name table,
/// embeddings, fitted model, and stats.
std::string BuildCommonSection(const core::DisambiguationResult& result,
                               const core::IuadConfig& config) {
  Writer w;
  WriteConfig(config, &w);
  w.U64(static_cast<uint64_t>(result.graph.num_vertices()));
  const util::StringInterner& names = result.graph.interner();
  w.U64(static_cast<uint64_t>(names.size()));
  for (util::NameId id = 0; id < names.size(); ++id) w.Str(names.View(id));
  WriteEmbeddings(result.embeddings, &w);
  WriteModel(result.model.get(), &w);
  WriteStats(result, &w);
  return w.buffer();
}

/// One shard's slice of the serialized state, bucketed in a single pass
/// over vertices/edges/occurrences (placement lookups are paid once per
/// element, not once per element per shard).
struct ShardBucket {
  std::vector<graph::VertexId> vertices;  ///< Explicit ids; dead included.
  std::vector<const graph::EdgeRecord*> edges;  ///< Owned by u's block.
  std::vector<const core::OccurrenceIndex::Entry*> occurrences;
};

std::vector<ShardBucket> BucketByShard(
    const core::DisambiguationResult& result,
    const shard::BlockPlacement& placement,
    const std::vector<graph::EdgeRecord>& edges,
    const std::vector<core::OccurrenceIndex::Entry>& occurrences) {
  const graph::CollabGraph& g = result.graph;
  std::vector<ShardBucket> buckets(
      static_cast<size_t>(placement.num_shards()));
  // Vertex owners double as the edge-owner lookup (owner of u), saving the
  // per-edge name hash.
  std::vector<int> owner(static_cast<size_t>(g.num_vertices()));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    owner[static_cast<size_t>(v)] =
        placement.ShardOf(g.vertex(v).name_id, g.NameOf(v));
    buckets[static_cast<size_t>(owner[static_cast<size_t>(v)])]
        .vertices.push_back(v);
  }
  for (const auto& e : edges) {
    buckets[static_cast<size_t>(owner[static_cast<size_t>(e.u)])]
        .edges.push_back(&e);
  }
  for (const auto& e : occurrences) {
    buckets[static_cast<size_t>(placement.ShardOf(e.name))]
        .occurrences.push_back(&e);
  }
  return buckets;
}

std::string BuildShardSection(const core::DisambiguationResult& result,
                              int s, const ShardBucket& bucket) {
  const graph::CollabGraph& g = result.graph;
  Writer w;
  w.U32(static_cast<uint32_t>(s));
  w.U64(bucket.vertices.size());
  for (graph::VertexId v : bucket.vertices) {
    const graph::Vertex& vx = g.vertex(v);
    w.U32(static_cast<uint32_t>(v));
    w.I32(vx.name_id);
    w.Bool(vx.alive);
    w.IntVec(vx.papers);
  }
  w.U64(bucket.edges.size());
  for (const graph::EdgeRecord* e : bucket.edges) {
    w.I32(e->u);
    w.I32(e->v);
    w.IntVec(e->papers);
  }
  w.U64(bucket.occurrences.size());
  for (const core::OccurrenceIndex::Entry* e : bucket.occurrences) {
    w.I32(e->paper_id);
    // Occurrence names are vertex names in every normal run; the id=-1
    // escape keeps the format total if one ever isn't interned.
    const util::NameId id = g.interner().Lookup(e->name);
    w.I32(id);
    if (id == util::kInvalidNameId) w.Str(e->name);
    w.I32(e->vertex);
  }
  return w.buffer();
}

/// Parsed-but-unmerged content of one shard section.
struct SliceVertex {
  uint32_t id = 0;
  util::NameId name_id = util::kInvalidNameId;
  bool alive = true;
  std::vector<int> papers;
};

struct ShardSlice {
  std::vector<SliceVertex> vertices;
  std::vector<graph::EdgeRecord> edges;
  std::vector<core::OccurrenceIndex::Entry> occurrences;
};

iuad::Result<ShardSlice> ParseShardSection(
    const char* data, size_t size,
    const std::vector<std::string>& name_table) {
  Reader r(data, size);
  ShardSlice slice;
  (void)r.U32();  // shard index: self-description only; order is the table's
  const uint64_t nv = r.U64();
  for (uint64_t i = 0; i < nv && r.ok(); ++i) {
    SliceVertex vx;
    vx.id = r.U32();
    vx.name_id = r.I32();
    vx.alive = r.Bool();
    vx.papers = r.IntVec();
    slice.vertices.push_back(std::move(vx));
  }
  const uint64_t ne = r.U64();
  for (uint64_t i = 0; i < ne && r.ok(); ++i) {
    graph::EdgeRecord e;
    e.u = r.I32();
    e.v = r.I32();
    e.papers = r.IntVec();
    slice.edges.push_back(std::move(e));
  }
  const uint64_t no = r.U64();
  for (uint64_t i = 0; i < no && r.ok(); ++i) {
    core::OccurrenceIndex::Entry e;
    e.paper_id = r.I32();
    const util::NameId id = r.I32();
    if (id == util::kInvalidNameId) {
      e.name = r.Str();
    } else if (static_cast<size_t>(id) < name_table.size()) {
      e.name = name_table[static_cast<size_t>(id)];
    } else {
      return iuad::Status::IoError(
          "occurrence name id outside the snapshot name table");
    }
    e.vertex = r.I32();
    slice.occurrences.push_back(std::move(e));
  }
  IUAD_RETURN_NOT_OK(r.status());
  if (!r.exhausted()) {
    return iuad::Status::IoError("trailing bytes in shard section");
  }
  return slice;
}

std::string BuildHeader(uint64_t fingerprint, const std::string& payload,
                        uint64_t table_checksum) {
  Writer header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.U32(kSnapshotFormatVersion);
  header.U64(fingerprint);
  header.U64(payload.size());
  header.U64(table_checksum);
  header.U32(static_cast<uint32_t>(
      Fnv1a(header.buffer().data(), header.buffer().size())));
  return header.buffer();
}

// ---- Load -----------------------------------------------------------------

iuad::Result<Snapshot> LoadSections(const std::string& path,
                                    const char* payload, size_t payload_size,
                                    uint64_t table_checksum) {
  // Section table.
  if (payload_size < sizeof(uint32_t)) {
    return iuad::Status::IoError(path + ": snapshot payload truncated");
  }
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, payload, sizeof(num_sections));
  const uint64_t table_size =
      sizeof(uint32_t) +
      static_cast<uint64_t>(num_sections) * kSectionEntrySize;
  if (table_size > payload_size) {
    return iuad::Status::IoError(path + ": snapshot section table truncated");
  }
  if (Fnv1a(payload, table_size) != table_checksum) {
    return iuad::Status::IoError(path +
                                 ": snapshot section table checksum mismatch");
  }
  struct Section {
    uint32_t kind = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    const char* data = nullptr;
  };
  std::vector<Section> sections(num_sections);
  {
    Reader table(payload + sizeof(uint32_t), table_size - sizeof(uint32_t));
    for (auto& s : sections) {
      s.kind = table.U32();
      s.size = table.U64();
      s.checksum = table.U64();
    }
  }
  uint64_t at = table_size;
  for (auto& s : sections) {
    if (s.size > payload_size - at) {
      return iuad::Status::IoError(path + ": snapshot sections truncated");
    }
    s.data = payload + at;
    at += s.size;
  }
  if (at != payload_size) {
    return iuad::Status::IoError(path + ": trailing bytes after snapshot");
  }
  if (sections.empty() || sections[0].kind != kSectionCommon) {
    return iuad::Status::IoError(path +
                                 ": snapshot missing its common section");
  }
  for (size_t i = 1; i < sections.size(); ++i) {
    if (sections[i].kind != kSectionShard) {
      return iuad::Status::IoError(path + ": snapshot section " +
                                   std::to_string(i) + " has unknown kind");
    }
  }

  // Verify every section independently, in parallel: a bad shard section is
  // pinpointed by index and never taints the verdict on its neighbors.
  const int threads = std::min<int>(static_cast<int>(sections.size()),
                                    util::ResolveNumThreads(0));
  util::ThreadPool pool(threads);
  std::vector<uint8_t> section_ok(sections.size(), 0);
  pool.ParallelFor(sections.size(), [&](size_t i) {
    section_ok[i] =
        Fnv1a(sections[i].data, sections[i].size) == sections[i].checksum;
  });
  for (size_t i = 0; i < sections.size(); ++i) {
    if (!section_ok[i]) {
      return iuad::Status::IoError(
          path + ": snapshot section " + std::to_string(i) +
          " checksum mismatch (" +
          (sections[i].kind == kSectionCommon ? "common" : "shard slice") +
          "); remaining sections verified clean");
    }
  }

  // Common section first: the shard slices need nothing from it to parse,
  // but the result shell (config, embeddings, model, stats) lives here.
  Snapshot snap;
  uint64_t num_vertices = 0;
  std::vector<std::string> name_table;
  {
    Reader r(sections[0].data, sections[0].size);
    snap.config = ReadConfig(&r);
    IUAD_RETURN_NOT_OK(r.status());
    num_vertices = r.U64();
    const uint64_t num_names = r.U64();
    name_table.reserve(
        static_cast<size_t>(std::min<uint64_t>(num_names, 1u << 16)));
    for (uint64_t i = 0; i < num_names && r.ok(); ++i) {
      name_table.push_back(r.Str());
    }
    IUAD_ASSIGN_OR_RETURN(snap.result.embeddings,
                          ReadEmbeddings(snap.config.word2vec, &r));
    IUAD_ASSIGN_OR_RETURN(snap.result.model, ReadModel(snap.config, &r));
    ReadStats(&r, &snap.result);
    IUAD_RETURN_NOT_OK(r.status());
    if (!r.exhausted()) {
      return iuad::Status::IoError(path + ": trailing bytes in common section");
    }
  }

  // Shard slices in parallel; each parses into its own slot.
  const size_t num_slices = sections.size() - 1;
  std::vector<iuad::Result<ShardSlice>> slices;
  slices.reserve(num_slices);
  for (size_t i = 0; i < num_slices; ++i) {
    slices.push_back(iuad::Status::IoError("shard section not parsed"));
  }
  pool.ParallelFor(num_slices, [&](size_t i) {
    slices[i] = ParseShardSection(sections[i + 1].data, sections[i + 1].size,
                                  name_table);
  });
  for (size_t i = 0; i < num_slices; ++i) {
    if (!slices[i].ok()) {
      return iuad::Status::IoError(path + ": snapshot section " +
                                   std::to_string(i + 1) + ": " +
                                   slices[i].status().message());
    }
  }

  // Deterministic merge: vertices land by explicit id, edges and
  // occurrences re-sort into canonical (u, v) and (paper, name) order. The
  // vertex count is checked against the records actually present before it
  // sizes anything; with that equal, every id in range and none repeated,
  // no id can be missing.
  if (num_vertices > (1u << 30)) {
    return iuad::Status::IoError(path + ": implausible snapshot vertex count");
  }
  uint64_t num_records = 0;
  for (const auto& slice : slices) num_records += slice->vertices.size();
  if (num_records != num_vertices) {
    return iuad::Status::IoError(
        path + ": snapshot holds " + std::to_string(num_records) +
        " vertex records for " + std::to_string(num_vertices) + " vertices");
  }
  std::vector<graph::Vertex> vertices(num_vertices);
  std::vector<uint8_t> seen(num_vertices, 0);
  std::vector<graph::EdgeRecord> edges;
  std::vector<core::OccurrenceIndex::Entry> occurrences;
  for (auto& slice : slices) {
    for (SliceVertex& vx : slice->vertices) {
      if (vx.id >= num_vertices || seen[vx.id]) {
        return iuad::Status::IoError(
            path + ": snapshot shard sections disagree on vertex ids");
      }
      seen[vx.id] = 1;
      if (vx.name_id < 0 ||
          static_cast<size_t>(vx.name_id) >= name_table.size()) {
        return iuad::Status::IoError(
            path + ": vertex name id outside the snapshot name table");
      }
      vertices[vx.id] =
          graph::Vertex{vx.name_id, std::move(vx.papers), vx.alive};
    }
    std::move(slice->edges.begin(), slice->edges.end(),
              std::back_inserter(edges));
    std::move(slice->occurrences.begin(), slice->occurrences.end(),
              std::back_inserter(occurrences));
  }
  std::sort(edges.begin(), edges.end(),
            [](const graph::EdgeRecord& a, const graph::EdgeRecord& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  IUAD_ASSIGN_OR_RETURN(
      snap.result.graph,
      graph::CollabGraph::Restore(name_table, std::move(vertices), edges));
  std::sort(occurrences.begin(), occurrences.end(),
            [](const core::OccurrenceIndex::Entry& a,
               const core::OccurrenceIndex::Entry& b) {
              return a.paper_id != b.paper_id ? a.paper_id < b.paper_id
                                              : a.name < b.name;
            });
  for (const auto& e : occurrences) {
    snap.result.occurrences.AssignIfAbsent(e.paper_id, e.name, e.vertex);
  }
  return snap;
}

}  // namespace

iuad::Status SaveSnapshot(const std::string& path,
                          const data::PaperDatabase& db,
                          const core::DisambiguationResult& result,
                          const core::IuadConfig& config) {
  // Common section + one slice per shard, sectioned with the same placement
  // the serving router uses so a shard's state is one contiguous checksummed
  // span.
  const int num_shards = std::max(config.num_shards, 1);
  const shard::BlockPlacement placement = shard::BlockPlacement::Build(
      result.graph, num_shards, config.shard_placement);
  const std::vector<graph::EdgeRecord> edges = result.graph.Edges();
  const auto occurrences = result.occurrences.Entries();
  const std::vector<ShardBucket> buckets =
      BucketByShard(result, placement, edges, occurrences);

  std::vector<std::string> blobs;
  blobs.push_back(BuildCommonSection(result, config));
  for (int s = 0; s < num_shards; ++s) {
    blobs.push_back(
        BuildShardSection(result, s, buckets[static_cast<size_t>(s)]));
  }

  Writer table;
  table.U32(static_cast<uint32_t>(blobs.size()));
  for (size_t i = 0; i < blobs.size(); ++i) {
    table.U32(i == 0 ? kSectionCommon : kSectionShard);
    table.U64(blobs[i].size());
    table.U64(Fnv1a(blobs[i].data(), blobs[i].size()));
  }
  std::string body = table.buffer();
  for (const std::string& blob : blobs) body += blob;

  return WriteFileDurably(
      path,
      BuildHeader(db.Fingerprint(), body,
                  Fnv1a(table.buffer().data(), table.buffer().size())),
      body);
}

iuad::Result<Snapshot> LoadSnapshot(const std::string& path,
                                    const data::PaperDatabase& db) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return iuad::Status::IoError("cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return iuad::Status::IoError("read error on " + path);

  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return iuad::Status::InvalidArgument(path + " is not an IUAD snapshot");
  }
  Reader header(bytes.data() + sizeof(kMagic), kHeaderSize - sizeof(kMagic));
  const uint32_t version = header.U32();
  const uint64_t fingerprint = header.U64();
  const uint64_t payload_size = header.U64();
  const uint64_t table_checksum = header.U64();
  const uint32_t header_checksum = header.U32();
  if (static_cast<uint32_t>(Fnv1a(bytes.data(), kHeaderSize - sizeof(uint32_t))) !=
      header_checksum) {
    return iuad::Status::IoError(path + ": snapshot header checksum mismatch");
  }
  if (version != kSnapshotFormatVersion) {
    return iuad::Status::InvalidArgument(
        path + ": unsupported snapshot format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + " only)");
  }
  if (bytes.size() - kHeaderSize != payload_size) {
    return iuad::Status::IoError(path + ": snapshot payload truncated");
  }
  if (fingerprint != db.Fingerprint()) {
    return iuad::Status::FailedPrecondition(
        path + ": snapshot was saved against a different corpus "
               "(fingerprint mismatch); load it next to the database it was "
               "fitted on");
  }
  return LoadSections(path, bytes.data() + kHeaderSize, payload_size,
                      table_checksum);
}

}  // namespace iuad::io
