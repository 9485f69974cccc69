/// Snapshot persistence (src/io): the round-trip contract is that a
/// reloaded DisambiguationResult is indistinguishable from the one that was
/// saved — same graph, same attribution, same fitted parameters, and (the
/// property that matters for serving) byte-identical incremental
/// assignments for any held-out paper stream. Plus the rejection paths:
/// corruption, foreign files, other versions, wrong corpus, and hostile
/// files whose checksums were restamped to pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "io/byte_codec.h"
#include "io/snapshot.h"
#include "testing_utils.h"

namespace iuad::io {
namespace {

core::IuadConfig FastConfig() {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Pipeline + holdout fixture shared by the round-trip tests.
struct Fitted {
  data::PaperDatabase history;
  std::vector<data::Paper> stream;
  core::DisambiguationResult result;
  core::IuadConfig config;
};

Fitted FitOn(uint64_t seed, int holdout = 40) {
  Fitted f;
  auto corpus = iuad::testing::SmallCorpus(seed);
  auto [history, stream] = corpus.db.HoldOutLatest(holdout);
  f.history = std::move(history);
  f.stream = std::move(stream);
  f.config = FastConfig();
  auto result = core::IuadPipeline(f.config).Run(f.history);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  f.result = std::move(*result);
  return f;
}

/// Ingests `stream` and returns the flat assignment trace.
std::vector<core::IncrementalAssignment> IngestAll(
    data::PaperDatabase* db, core::DisambiguationResult* result,
    const core::IuadConfig& config, const std::vector<data::Paper>& stream) {
  core::IncrementalDisambiguator inc(db, result, config);
  std::vector<core::IncrementalAssignment> trace;
  for (const auto& paper : stream) {
    auto r = inc.AddPaper(paper);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) trace.insert(trace.end(), r->begin(), r->end());
  }
  return trace;
}

void ExpectSameGraph(const graph::CollabGraph& a, const graph::CollabGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_alive(), b.num_alive());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.NameOf(v), b.NameOf(v));
    EXPECT_EQ(a.vertex(v).alive, b.vertex(v).alive);
    EXPECT_EQ(a.vertex(v).papers, b.vertex(v).papers);
  }
  const auto ea = a.Edges(), eb = b.Edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u);
    EXPECT_EQ(ea[i].v, eb[i].v);
    EXPECT_EQ(ea[i].papers, eb[i].papers);
  }
  EXPECT_EQ(a.Names(), b.Names());
}

TEST(SnapshotTest, RoundTripPreservesStateExactly) {
  Fitted f = FitOn(41);
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(path, f.history, f.result, f.config).ok());

  auto loaded = LoadSnapshot(path, f.history);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ExpectSameGraph(f.result.graph, loaded->result.graph);
  // Attribution: every occurrence resolves identically.
  for (const auto& p : f.history.papers()) {
    for (const auto& name : p.author_names) {
      EXPECT_EQ(f.result.occurrences.Lookup(p.id, name),
                loaded->result.occurrences.Lookup(p.id, name));
    }
  }
  // Fitted model: parameter dumps are textual but exhaustive.
  ASSERT_TRUE(loaded->result.model != nullptr);
  EXPECT_EQ(f.result.model->ToString(), loaded->result.model->ToString());
  EXPECT_EQ(f.result.model->prior_matched(),
            loaded->result.model->prior_matched());
  // Embeddings: same vocabulary, bit-identical vectors.
  const auto& va = f.result.embeddings.vocabulary();
  const auto& vb = loaded->result.embeddings.vocabulary();
  ASSERT_EQ(va.size(), vb.size());
  for (int id = 0; id < va.size(); ++id) {
    EXPECT_EQ(va.WordOf(id), vb.WordOf(id));
    EXPECT_EQ(va.CountOf(id), vb.CountOf(id));
    const text::Vec* x = f.result.embeddings.VectorOf(va.WordOf(id));
    const text::Vec* y = loaded->result.embeddings.VectorOf(va.WordOf(id));
    ASSERT_TRUE(x != nullptr && y != nullptr);
    EXPECT_EQ(*x, *y);
  }
  // Config round trip (spot checks; the oracle is documented as dropped).
  EXPECT_EQ(loaded->config.eta, f.config.eta);
  EXPECT_EQ(loaded->config.word2vec.dim, f.config.word2vec.dim);
  EXPECT_EQ(loaded->config.seed, f.config.seed);
  EXPECT_EQ(loaded->config.incremental_refresh_interval,
            f.config.incremental_refresh_interval);
  // Stats survive too (the serve CLI reports them).
  EXPECT_EQ(loaded->result.scn_stats.num_scrs, f.result.scn_stats.num_scrs);
  EXPECT_EQ(loaded->result.gcn_stats.merges, f.result.gcn_stats.merges);

  std::remove(path.c_str());
}

/// The acceptance property: save → load → AddPaper over a held-out stream
/// is byte-identical to ingesting into the never-serialized result, across
/// random corpora.
TEST(SnapshotTest, PropertyReloadedIngestionMatchesInMemory) {
  for (uint64_t seed : {3u, 17u, 90u}) {
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    Fitted f = FitOn(seed);
    const std::string path =
        TempPath("property" + std::to_string(seed) + ".snap");
    ASSERT_TRUE(SaveSnapshot(path, f.history, f.result, f.config).ok());
    auto loaded = LoadSnapshot(path, f.history);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    data::PaperDatabase db_mem = f.history;
    data::PaperDatabase db_load = f.history;
    const auto mem = IngestAll(&db_mem, &f.result, f.config, f.stream);
    const auto rel =
        IngestAll(&db_load, &loaded->result, loaded->config, f.stream);

    ASSERT_EQ(mem.size(), rel.size());
    for (size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(mem[i].name, rel[i].name);
      EXPECT_EQ(mem[i].vertex, rel[i].vertex);
      EXPECT_EQ(mem[i].created_new, rel[i].created_new);
      EXPECT_EQ(mem[i].best_score, rel[i].best_score);  // bitwise-equal double
      EXPECT_EQ(mem[i].num_candidates, rel[i].num_candidates);
    }
    ExpectSameGraph(f.result.graph, loaded->result.graph);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, ScnOnlyResultRoundTripsWithoutModel) {
  auto db = iuad::testing::Fig2Database();
  core::IuadConfig cfg = FastConfig();
  auto result = core::IuadPipeline(cfg).RunScnOnly(db);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->model == nullptr);
  const std::string path = TempPath("scn_only.snap");
  ASSERT_TRUE(SaveSnapshot(path, db, *result, cfg).ok());
  auto loaded = LoadSnapshot(path, db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->result.model == nullptr);
  EXPECT_FALSE(loaded->result.embeddings.trained());
  ExpectSameGraph(result->graph, loaded->result.graph);
  std::remove(path.c_str());
}

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = iuad::testing::Fig2Database();
    cfg_ = FastConfig();
    auto result = core::IuadPipeline(cfg_).Run(db_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    path_ = TempPath("rejection.snap");
    ASSERT_TRUE(SaveSnapshot(path_, db_, *result, cfg_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the stored format version and re-stamps the header checksum
  /// (so the version check, not the checksum, is what trips).
  void PatchVersion(uint32_t version) {
    std::memcpy(&bytes_[8], &version, sizeof(version));
    const uint32_t check = static_cast<uint32_t>(Fnv1a(bytes_.data(), 36));
    std::memcpy(&bytes_[36], &check, sizeof(check));
    WriteFileBytes(path_, bytes_);
  }

  data::PaperDatabase db_;
  core::IuadConfig cfg_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotRejectionTest, CorruptedHeaderIsRejected) {
  std::string corrupt = bytes_;
  corrupt[20] ^= 0x5a;  // inside the header, after the magic
  WriteFileBytes(path_, corrupt);
  auto r = LoadSnapshot(path_, db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotRejectionTest, CorruptedPayloadIsRejected) {
  std::string corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0x5a;
  WriteFileBytes(path_, corrupt);
  auto r = LoadSnapshot(path_, db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotRejectionTest, TruncatedFileIsRejected) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() - 17));
  auto r = LoadSnapshot(path_, db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotRejectionTest, ForeignFileIsRejected) {
  WriteFileBytes(path_, "not a snapshot at all, sorry");
  auto r = LoadSnapshot(path_, db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotRejectionTest, VersionMismatchIsRejected) {
  // 1 and 2 are the retired monolithic and inline-name formats: a file
  // stamped with either is as foreign as a future version.
  for (uint32_t version : {1u, 2u, kSnapshotFormatVersion + 7}) {
    SCOPED_TRACE("version " + std::to_string(version));
    PatchVersion(version);
    auto r = LoadSnapshot(path_, db_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(
                  "reads version " + std::to_string(kSnapshotFormatVersion)),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(SnapshotRejectionTest, WrongCorpusIsRejected) {
  // Same shape, one extra paper: a different corpus fingerprint.
  data::PaperDatabase other = db_;
  other.AddPaper(iuad::testing::MakePaper({"x", "y"}, "unrelated work"));
  auto r = LoadSnapshot(path_, other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotRejectionTest, MissingFileIsIoError) {
  auto r = LoadSnapshot(TempPath("no_such.snap"), db_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// --------------------------- Sharded sections ------------------------------

/// Byte offsets of every section, recovered from the on-disk table:
/// {offset, size} per section, in table order.
std::vector<std::pair<size_t, size_t>> SectionSpansOf(
    const std::string& bytes) {
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, bytes.data() + 40, sizeof(num_sections));
  std::vector<std::pair<size_t, size_t>> spans;
  size_t at = 40 + 4 + static_cast<size_t>(num_sections) * 20;  // past table
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint64_t size = 0;
    std::memcpy(&size, bytes.data() + 40 + 4 + i * 20 + 4, sizeof(size));
    spans.emplace_back(at, static_cast<size_t>(size));
    at += size;
  }
  return spans;
}

TEST(SnapshotSectionTest, MultiShardSectionsRoundTripExactly) {
  Fitted f = FitOn(50);
  f.config.num_shards = 3;  // 1 common + 3 shard sections
  const std::string path = TempPath("sharded.snap");
  ASSERT_TRUE(SaveSnapshot(path, f.history, f.result, f.config).ok());
  const std::string bytes = ReadFileBytes(path);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, kSnapshotFormatVersion);
  EXPECT_EQ(SectionSpansOf(bytes).size(), 4u);

  auto loaded = LoadSnapshot(path, f.history);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config.num_shards, 3);
  ExpectSameGraph(f.result.graph, loaded->result.graph);
  for (const auto& p : f.history.papers()) {
    for (const auto& name : p.author_names) {
      EXPECT_EQ(f.result.occurrences.Lookup(p.id, name),
                loaded->result.occurrences.Lookup(p.id, name));
    }
  }
  ASSERT_TRUE(loaded->result.model != nullptr);
  EXPECT_EQ(f.result.model->ToString(), loaded->result.model->ToString());

  // The sharded sections feed the same byte-identical ingestion contract.
  data::PaperDatabase db_mem = f.history;
  data::PaperDatabase db_load = f.history;
  const auto mem = IngestAll(&db_mem, &f.result, f.config, f.stream);
  const auto rel =
      IngestAll(&db_load, &loaded->result, loaded->config, f.stream);
  ASSERT_EQ(mem.size(), rel.size());
  for (size_t i = 0; i < mem.size(); ++i) {
    EXPECT_EQ(mem[i].vertex, rel[i].vertex);
    EXPECT_EQ(mem[i].best_score, rel[i].best_score);  // bitwise-equal double
  }
  std::remove(path.c_str());
}

TEST(SnapshotSectionTest, CorruptingAnySingleSectionIsDetectedAndNamed) {
  Fitted f = FitOn(51, 10);
  f.config.num_shards = 3;
  const std::string path = TempPath("section_corrupt.snap");
  ASSERT_TRUE(SaveSnapshot(path, f.history, f.result, f.config).ok());
  const std::string pristine = ReadFileBytes(path);
  const auto spans = SectionSpansOf(pristine);
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    ASSERT_GT(spans[i].second, 0u);
    std::string corrupt = pristine;
    corrupt[spans[i].first + spans[i].second / 2] ^= 0x5a;
    WriteFileBytes(path, corrupt);
    auto r = LoadSnapshot(path, f.history);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    // The one bad section is identified by index; its neighbors verified
    // clean — corruption never poisons the rest of the file.
    EXPECT_NE(r.status().message().find("section " + std::to_string(i)),
              std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("remaining sections verified clean"),
              std::string::npos);
  }
  // And the pristine bytes still load after all that.
  WriteFileBytes(path, pristine);
  EXPECT_TRUE(LoadSnapshot(path, f.history).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSectionTest, CorruptedSectionTableIsRejected) {
  Fitted f = FitOn(52, 10);
  const std::string path = TempPath("section_table.snap");
  ASSERT_TRUE(SaveSnapshot(path, f.history, f.result, f.config).ok());
  std::string corrupt = ReadFileBytes(path);
  corrupt[44] ^= 0x5a;  // inside the section table (first entry's kind)
  WriteFileBytes(path, corrupt);
  auto r = LoadSnapshot(path, f.history);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("table"), std::string::npos);
  std::remove(path.c_str());
}

// --------------------------- Hostile files past the checksums --------------

/// A snapshot cut into its header and sections. Restamp() reassembles it
/// with the payload size, every section checksum, the table checksum and
/// the header checksum recomputed. FNV-1a is computed over public bytes, so
/// any writer can do the same: only the parser's structural checks stand
/// between such a file and the graph.
struct SectionedFile {
  std::string header;  ///< The 40 header bytes as read.
  std::vector<uint32_t> kinds;
  std::vector<std::string> sections;

  static SectionedFile Split(const std::string& bytes) {
    SectionedFile f;
    f.header = bytes.substr(0, 40);
    for (const auto& [at, size] : SectionSpansOf(bytes)) {
      uint32_t kind = 0;
      std::memcpy(&kind, bytes.data() + 44 + f.kinds.size() * 20,
                  sizeof(kind));
      f.kinds.push_back(kind);
      f.sections.push_back(bytes.substr(at, size));
    }
    return f;
  }

  std::string Restamp() const {
    Writer table;
    table.U32(static_cast<uint32_t>(sections.size()));
    for (size_t i = 0; i < sections.size(); ++i) {
      table.U32(kinds[i]);
      table.U64(sections[i].size());
      table.U64(Fnv1a(sections[i].data(), sections[i].size()));
    }
    std::string body = table.buffer();
    for (const std::string& s : sections) body += s;
    Writer head;
    head.Bytes(header.data(), 20);  // magic, version, corpus fingerprint
    head.U64(body.size());
    head.U64(Fnv1a(table.buffer().data(), table.buffer().size()));
    head.U32(static_cast<uint32_t>(
        Fnv1a(head.buffer().data(), head.buffer().size())));
    return head.buffer() + body;
  }
};

/// One shard section, decoded field by field so a test can rewrite any
/// record and encode it back.
struct SliceImage {
  struct VertexRec {
    uint32_t id = 0;
    int32_t name_id = 0;
    bool alive = true;
    std::vector<int> papers;
  };
  struct EdgeRec {
    int32_t u = 0, v = 0;
    std::vector<int> papers;
  };
  struct OccurrenceRec {
    int32_t paper_id = 0;
    int32_t name_id = 0;
    std::string name;  ///< Only when name_id is -1.
    int32_t vertex = 0;
  };
  uint32_t shard = 0;
  std::vector<VertexRec> vertices;
  std::vector<EdgeRec> edges;
  std::vector<OccurrenceRec> occurrences;

  static SliceImage Decode(const std::string& bytes) {
    Reader r(bytes.data(), bytes.size());
    SliceImage s;
    s.shard = r.U32();
    s.vertices.resize(r.U64());
    for (auto& v : s.vertices) {
      v.id = r.U32();
      v.name_id = r.I32();
      v.alive = r.Bool();
      v.papers = r.IntVec();
    }
    s.edges.resize(r.U64());
    for (auto& e : s.edges) {
      e.u = r.I32();
      e.v = r.I32();
      e.papers = r.IntVec();
    }
    s.occurrences.resize(r.U64());
    for (auto& o : s.occurrences) {
      o.paper_id = r.I32();
      o.name_id = r.I32();
      if (o.name_id == -1) o.name = r.Str();
      o.vertex = r.I32();
    }
    EXPECT_TRUE(r.ok() && r.exhausted());
    return s;
  }

  std::string Encode() const {
    Writer w;
    w.U32(shard);
    w.U64(vertices.size());
    for (const auto& v : vertices) {
      w.U32(v.id);
      w.I32(v.name_id);
      w.Bool(v.alive);
      w.IntVec(v.papers);
    }
    w.U64(edges.size());
    for (const auto& e : edges) {
      w.I32(e.u);
      w.I32(e.v);
      w.IntVec(e.papers);
    }
    w.U64(occurrences.size());
    for (const auto& o : occurrences) {
      w.I32(o.paper_id);
      w.I32(o.name_id);
      if (o.name_id == -1) w.Str(o.name);
      w.I32(o.vertex);
    }
    return w.buffer();
  }
};

/// The common section's vertex count and name table, which sit back to
/// back: u64 vertex count, u64 name count, then the length-prefixed names.
std::string NameTableBytes(uint64_t num_vertices,
                           const std::vector<std::string>& names) {
  Writer w;
  w.U64(num_vertices);
  w.U64(names.size());
  for (const std::string& name : names) w.Str(name);
  return w.buffer();
}

class SnapshotHostileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fitted_ = FitOn(56, 10);
    fitted_.config.num_shards = 3;  // 1 common + 3 shard sections
    path_ = TempPath("hostile.snap");
    ASSERT_TRUE(
        SaveSnapshot(path_, fitted_.history, fitted_.result, fitted_.config)
            .ok());
    pristine_ = SectionedFile::Split(ReadFileBytes(path_));
    ASSERT_EQ(pristine_.sections.size(), 4u);
    // The helpers must reproduce the writer's bytes before any mutation
    // can mean anything.
    ASSERT_EQ(pristine_.Restamp(), ReadFileBytes(path_));
    for (size_t i = 1; i < 4; ++i) {
      slices_.push_back(SliceImage::Decode(pristine_.sections[i]));
      ASSERT_EQ(slices_.back().Encode(), pristine_.sections[i]);
      ASSERT_FALSE(slices_.back().vertices.empty());
      ASSERT_FALSE(slices_.back().occurrences.empty());
    }
    const util::StringInterner& interner = fitted_.result.graph.interner();
    for (util::NameId id = 0; id < interner.size(); ++id) {
      names_.emplace_back(interner.View(id));
    }
    ASSERT_GE(names_.size(), 2u);
    const std::string table =
        NameTableBytes(fitted_.result.graph.num_vertices(), names_);
    table_at_ = pristine_.sections[0].find(table);
    ASSERT_NE(table_at_, std::string::npos);
    table_size_ = table.size();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites shard slice `i` (0-based over the shard sections).
  SectionedFile WithSlice(size_t i, const SliceImage& slice) const {
    SectionedFile f = pristine_;
    f.sections[i + 1] = slice.Encode();
    return f;
  }

  /// Rewrites the common section's vertex count and name table.
  SectionedFile WithNameTable(uint64_t num_vertices,
                              const std::vector<std::string>& names) const {
    SectionedFile f = pristine_;
    f.sections[0].replace(table_at_, table_size_,
                          NameTableBytes(num_vertices, names));
    return f;
  }

  /// Loads the restamped file: it must fail with a Status, never crash,
  /// and name the check that tripped.
  void ExpectRejected(const SectionedFile& f, const std::string& why) {
    WriteFileBytes(path_, f.Restamp());
    auto r = LoadSnapshot(path_, fitted_.history);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(why), std::string::npos)
        << r.status().ToString();
  }

  Fitted fitted_;
  std::string path_;
  SectionedFile pristine_;
  std::vector<SliceImage> slices_;
  std::vector<std::string> names_;
  size_t table_at_ = 0;
  size_t table_size_ = 0;
};

TEST_F(SnapshotHostileTest, RestampedPristineFileLoads) {
  WriteFileBytes(path_, pristine_.Restamp());
  EXPECT_TRUE(LoadSnapshot(path_, fitted_.history).ok());
}

TEST_F(SnapshotHostileTest, VertexNameIdPastTheNameTableIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(names_.size()), int32_t{1} << 30,
                      int32_t{-2}}) {
    SCOPED_TRACE("name id " + std::to_string(bad));
    SliceImage slice = slices_[0];
    slice.vertices[0].name_id = bad;
    ExpectRejected(WithSlice(0, slice),
                   "vertex name id outside the snapshot name table");
  }
}

TEST_F(SnapshotHostileTest, OccurrenceNameIdOutsideTheNameTableIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(names_.size()), int32_t{-2}}) {
    SCOPED_TRACE("name id " + std::to_string(bad));
    SliceImage slice = slices_[1];
    slice.occurrences[0].name_id = bad;
    ExpectRejected(WithSlice(1, slice),
                   "occurrence name id outside the snapshot name table");
  }
}

TEST_F(SnapshotHostileTest, SameVertexIdInTwoShardSectionsIsRejected) {
  SliceImage slice = slices_[2];
  slice.vertices[0].id = slices_[0].vertices[0].id;
  ExpectRejected(WithSlice(2, slice), "disagree on vertex ids");
}

TEST_F(SnapshotHostileTest, VertexIdPastTheVertexCountIsRejected) {
  SliceImage slice = slices_[1];
  slice.vertices[0].id =
      static_cast<uint32_t>(fitted_.result.graph.num_vertices());
  ExpectRejected(WithSlice(1, slice), "disagree on vertex ids");
}

TEST_F(SnapshotHostileTest, MissingVertexIdIsRejected) {
  SliceImage slice = slices_[0];
  slice.vertices.erase(slice.vertices.begin());
  ExpectRejected(WithSlice(0, slice), "vertex records for");
}

TEST_F(SnapshotHostileTest, VertexCountBeyondTheRecordsIsRejected) {
  // At the plausibility bound a count still passes that check; it must be
  // refused before it sizes any buffer.
  ExpectRejected(WithNameTable(uint64_t{1} << 30, names_),
                 "vertex records for");
  ExpectRejected(WithNameTable((uint64_t{1} << 30) + 1, names_),
                 "implausible snapshot vertex count");
}

TEST_F(SnapshotHostileTest, DuplicateNameTableEntryIsRejected) {
  std::vector<std::string> names = names_;
  names[1] = names[0];
  ExpectRejected(
      WithNameTable(fitted_.result.graph.num_vertices(), names),
      "duplicate entry in interned name table");
}

}  // namespace
}  // namespace iuad::io
