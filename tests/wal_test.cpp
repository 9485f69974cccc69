/// wal::Log + wal::ReplayTail: the durability contract (DESIGN.md §9).
/// The acceptance property is crash-safety: kill the serving process at an
/// arbitrary committed sequence (and optionally tear the final record at an
/// arbitrary byte offset), recover from checkpoint + log replay, and the
/// resulting assignments — score bits included — are byte-identical to an
/// uninterrupted sequential run. Around that property: recovery edge cases
/// (fresh dir, torn tail, corrupt mid-log record, wrong corpus, compaction
/// across a segment boundary) pin the torn-write rule of wal.h.

#include <gtest/gtest.h>

#include <csignal>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <future>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "data/paper_database.h"
#include "io/snapshot.h"
#include "shard/shard_router.h"
#include "testing_utils.h"
#include "util/build_info.h"
#include "wal/wal.h"

namespace iuad::wal {
namespace {

core::IuadConfig FastConfig() {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  return cfg;
}

struct Fixture {
  data::PaperDatabase history;
  std::vector<data::Paper> stream;
  core::DisambiguationResult result;
};

Fixture MakeFixture(uint64_t seed, int holdout, const core::IuadConfig& cfg) {
  Fixture f;
  auto corpus = iuad::testing::SmallCorpus(seed);
  auto [history, stream] = corpus.db.HoldOutLatest(holdout);
  f.history = std::move(history);
  f.stream = std::move(stream);
  auto result = core::IuadPipeline(cfg).Run(f.history);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  f.result = std::move(*result);
  return f;
}

/// Order-sensitive digest including the score bits: "byte-identical" means
/// bitwise-equal doubles, not just the same argmax (same as shard_test).
std::string TraceOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string t;
  for (const auto& a : as) {
    double score = a.best_score;
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(score), "double is 64-bit");
    std::memcpy(&bits, &score, sizeof(bits));
    t += a.name + ":" + std::to_string(a.vertex) +
         (a.created_new ? "*" : "") + "#" + std::to_string(bits) + "/" +
         std::to_string(a.num_candidates) + ";";
  }
  return t;
}

/// Sequential ground truth: one AddPaper per stream paper, in order.
std::vector<std::string> SequentialTraces(const core::IuadConfig& cfg,
                                          uint64_t seed, int holdout) {
  Fixture f = MakeFixture(seed, holdout, cfg);
  core::IncrementalDisambiguator inc(&f.history, &f.result, cfg);
  std::vector<std::string> traces;
  for (const auto& paper : f.stream) {
    auto r = inc.AddPaper(paper);
    EXPECT_TRUE(r.ok());
    traces.push_back(TraceOf(*r));
  }
  return traces;
}

/// A fresh per-test WAL directory under the test temp dir. Log::Open
/// creates it; a unique name per test keeps runs independent.
std::string FreshWalDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "wal_test_" + tag + "_" +
                    std::to_string(::getpid());
  // Clear leftovers from a previous crashed run of the same pid-recycled
  // name: remove every regular file, then the directory itself.
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
  return dir;
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("wal-", 0) == 0) out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : -1;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr size_t kSegmentHeaderSize = 24;  // magic + base fp + start seq
constexpr size_t kRecordHeaderSize = 12;   // payload len u32 + crc u64

/// Byte offset of record `index` within a segment file's raw bytes.
size_t RecordOffset(const std::string& raw, int index) {
  size_t pos = kSegmentHeaderSize;
  for (int i = 0; i < index; ++i) {
    uint32_t len = 0;
    std::memcpy(&len, raw.data() + pos, sizeof(len));
    pos += kRecordHeaderSize + len;
  }
  return pos;
}

TEST(WalLogTest, EmptyDirRoundTripsAppendedRecords) {
  const std::string dir = FreshWalDir("roundtrip");
  Options opts;
  opts.fsync_every_n = 1;
  {
    auto log = Log::Open(dir, /*base_fingerprint=*/42, opts);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_FALSE((*log)->has_checkpoint());
    EXPECT_EQ((*log)->snapshot_seq(), 0u);
    EXPECT_EQ((*log)->durable_next(), 0u);
    EXPECT_TRUE((*log)->tail().empty());
    (*log)->Append(0, iuad::testing::MakePaper({"a", "b"}, "alpha", "V1",
                                               2019, {3, 7}));
    (*log)->Append(1, iuad::testing::MakePaper({"c"}, "beta", "V2", 2020));
    (*log)->Append(2, iuad::testing::MakePaper({"a", "c"}, "gamma"));
    ASSERT_TRUE((*log)->Flush().ok());
    EXPECT_EQ((*log)->durable_next(), 3u);
  }
  auto log = Log::Open(dir, 42, opts);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_FALSE((*log)->has_checkpoint());
  EXPECT_EQ((*log)->durable_next(), 3u);
  ASSERT_EQ((*log)->tail().size(), 3u);
  const TailRecord& r0 = (*log)->tail()[0];
  EXPECT_EQ(r0.seq, 0u);
  EXPECT_EQ(r0.paper.title, "alpha");
  EXPECT_EQ(r0.paper.venue, "V1");
  EXPECT_EQ(r0.paper.year, 2019);
  EXPECT_EQ(r0.paper.author_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r0.paper.true_author_ids, (std::vector<data::AuthorId>{3, 7}));
  EXPECT_EQ((*log)->tail()[1].seq, 1u);
  EXPECT_EQ((*log)->tail()[1].paper.title, "beta");
  EXPECT_EQ((*log)->tail()[2].seq, 2u);
  EXPECT_EQ((*log)->tail()[2].paper.author_names,
            (std::vector<std::string>{"a", "c"}));
}

TEST(WalLogTest, AppendIsIdempotentBelowDurableNext) {
  const std::string dir = FreshWalDir("idempotent");
  Options opts;
  opts.fsync_every_n = 1;
  {
    auto log = Log::Open(dir, 42, opts);
    ASSERT_TRUE(log.ok());
    (*log)->Append(0, iuad::testing::MakePaper({"a"}, "one"));
    (*log)->Append(1, iuad::testing::MakePaper({"b"}, "two"));
    ASSERT_TRUE((*log)->Flush().ok());
  }
  // Reopen and re-append the already-durable prefix — the replay-through-
  // the-normal-path pattern. Nothing may be double-logged.
  auto log = Log::Open(dir, 42, opts);
  ASSERT_TRUE(log.ok());
  (*log)->Append(0, iuad::testing::MakePaper({"a"}, "one"));
  (*log)->Append(1, iuad::testing::MakePaper({"b"}, "two"));
  (*log)->Append(2, iuad::testing::MakePaper({"c"}, "three"));
  ASSERT_TRUE((*log)->Flush().ok());
  EXPECT_EQ((*log)->durable_next(), 3u);
  EXPECT_TRUE((*log)->status().ok());
  log->reset();
  auto reread = Log::Open(dir, 42, opts);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ((*reread)->tail().size(), 3u);
  EXPECT_EQ((*reread)->tail()[2].paper.title, "three");
}

TEST(WalLogTest, TornFinalRecordIsSilentlyTruncated) {
  const std::string dir = FreshWalDir("torn");
  Options opts;
  opts.fsync_every_n = 1;
  {
    auto log = Log::Open(dir, 42, opts);
    ASSERT_TRUE(log.ok());
    (*log)->Append(0, iuad::testing::MakePaper({"a"}, "one"));
    (*log)->Append(1, iuad::testing::MakePaper({"b"}, "two"));
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string seg = dir + "/" + segments[0];
  const int64_t clean_size = FileSize(seg);
  // A torn write: a complete-looking length header promising 100 payload
  // bytes, followed by only 4 — the expected artifact of a mid-record crash.
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    uint32_t len = 100;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write("torn", 4);
  }
  ASSERT_GT(FileSize(seg), clean_size);
  auto log = Log::Open(dir, 42, opts);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->durable_next(), 2u);
  ASSERT_EQ((*log)->tail().size(), 2u);
  EXPECT_EQ((*log)->tail()[1].paper.title, "two");
  EXPECT_EQ(FileSize(seg), clean_size);  // the torn bytes are gone
}

TEST(WalLogTest, CorruptMidLogRecordIsRejectedLoudlyWithSequence) {
  const std::string dir = FreshWalDir("corrupt");
  Options opts;
  opts.fsync_every_n = 1;
  {
    auto log = Log::Open(dir, 42, opts);
    ASSERT_TRUE(log.ok());
    (*log)->Append(0, iuad::testing::MakePaper({"a"}, "one"));
    (*log)->Append(1, iuad::testing::MakePaper({"b"}, "two"));
    (*log)->Append(2, iuad::testing::MakePaper({"c"}, "three"));
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string seg = dir + "/" + segments[0];
  std::string raw = ReadAll(seg);
  // Flip one payload byte of the MIDDLE record (sequence 1). The record is
  // complete, so this is not a torn write: it must be rejected loudly,
  // pinpointed by sequence, never silently truncated.
  const size_t off = RecordOffset(raw, 1) + kRecordHeaderSize + 9;
  ASSERT_LT(off, raw.size());
  raw[off] = static_cast<char>(raw[off] ^ 0x5A);
  WriteAll(seg, raw);
  auto log = Log::Open(dir, 42, opts);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), iuad::StatusCode::kIoError);
  EXPECT_NE(log.status().ToString().find("checksum"), std::string::npos)
      << log.status().ToString();
  EXPECT_NE(log.status().ToString().find("1"), std::string::npos)
      << log.status().ToString();
}

TEST(WalLogTest, MismatchedCorpusFingerprintIsRejected) {
  const std::string dir = FreshWalDir("fingerprint");
  Options opts;
  {
    auto log = Log::Open(dir, 42, opts);
    ASSERT_TRUE(log.ok());
    (*log)->Append(0, iuad::testing::MakePaper({"a"}, "one"));
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto wrong = Log::Open(dir, 43, opts);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), iuad::StatusCode::kFailedPrecondition);
  EXPECT_NE(wrong.status().ToString().find("corpus"), std::string::npos)
      << wrong.status().ToString();
  // The right fingerprint still opens: the rejection did not damage the dir.
  auto right = Log::Open(dir, 42, opts);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ((*right)->durable_next(), 1u);
}

/// Drives a WAL-backed one-shard ShardRouter (default pipeline depth)
/// through checkpoints and segment rotations, then recovers from the
/// checkpoint + tail and verifies the recovered read state equals an
/// uninterrupted run's. The window cap must keep every checkpoint on a
/// refresh boundary even though windows span several papers.
TEST(WalCheckpointTest, CompactionRetiresSegmentsAndReplayCrossesBoundary) {
  core::IuadConfig cfg = FastConfig();
  cfg.incremental_refresh_interval = 5;
  cfg.wal_checkpoint_every_n = 5;
  const uint64_t kSeed = 57;
  const int kHoldout = 24;
  const std::string dir = FreshWalDir("compaction");
  Options opts;
  opts.fsync_every_n = 1;
  opts.segment_records = 3;  // force rotations between checkpoints

  Fixture f = MakeFixture(kSeed, kHoldout, cfg);
  const uint64_t fp = f.history.Fingerprint();
  {
    auto log = Log::Open(dir, fp, opts);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    shard::ShardRouter router(&f.history, &f.result, cfg, log->get());
    std::vector<std::future<shard::ShardRouter::Assignments>> futures;
    for (size_t i = 0; i < f.stream.size(); ++i) {
      futures.push_back(router.SubmitAt(i, f.stream[i]));
    }
    for (auto& fut : futures) ASSERT_TRUE(fut.get().ok());
    router.Stop();
    ASSERT_TRUE((*log)->status().ok()) << (*log)->status().ToString();
    // Checkpoints land at refresh boundaries 5, 10, 15, 20; the last one
    // covers [0, 20).
    EXPECT_EQ((*log)->last_checkpoint_seq(), 20u);
    const auto stats = router.Stats();
    EXPECT_EQ(stats.wal_appended, 24);
    EXPECT_EQ(stats.wal_last_checkpoint_seq, 20);
    EXPECT_GE(stats.wal_last_checkpoint_age_s, 0.0);
    EXPECT_GT(stats.wal_fsyncs, 0);
    EXPECT_GT(stats.wal_bytes, 0);
  }

  // Everything below sequence 20 must have been retired from disk: the
  // survivors are the sealed segment [20, 23) and the active one at 23 —
  // the replay tail crosses that segment boundary.
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 2u) << segments.size() << " segments left";

  auto log = Log::Open(dir, fp, opts);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->has_checkpoint());
  EXPECT_EQ((*log)->snapshot_seq(), 20u);
  EXPECT_EQ((*log)->durable_next(), 24u);
  ASSERT_EQ((*log)->tail().size(), 4u);
  EXPECT_EQ((*log)->tail().front().seq, 20u);
  EXPECT_EQ((*log)->tail().back().seq, 23u);

  // Recover: checkpoint corpus + snapshot, then replay the 4-record tail.
  auto ckpt_db = data::PaperDatabase::LoadTsv((*log)->checkpoint_corpus_path());
  ASSERT_TRUE(ckpt_db.ok()) << ckpt_db.status().ToString();
  auto snap = io::LoadSnapshot((*log)->checkpoint_snapshot_path(), *ckpt_db);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  shard::ShardRouter recovered(&*ckpt_db, &snap->result, cfg, log->get());
  auto replayed = ReplayTail(**log, &recovered);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 4u);
  const auto rstats = recovered.Stats();
  EXPECT_EQ(rstats.recovery_replayed, 4);
  EXPECT_EQ(rstats.papers_applied, 4);

  // The recovered read state must equal an uninterrupted run's, vertex ids
  // and paper attributions included.
  Fixture g = MakeFixture(kSeed, kHoldout, cfg);
  shard::ShardRouter uninterrupted(&g.history, &g.result, cfg);
  for (size_t i = 0; i < g.stream.size(); ++i) {
    uninterrupted.SubmitAt(i, g.stream[i]);
  }
  uninterrupted.Drain();
  const auto want = uninterrupted.Stats();
  EXPECT_EQ(rstats.num_alive_vertices, want.num_alive_vertices);
  EXPECT_EQ(rstats.num_edges, want.num_edges);
  std::set<std::string> names;
  for (const auto& p : g.stream) {
    for (const auto& n : p.author_names) names.insert(n);
  }
  for (const auto& name : names) {
    const auto got_authors = recovered.AuthorsByName(name);
    const auto want_authors = uninterrupted.AuthorsByName(name);
    ASSERT_EQ(got_authors.size(), want_authors.size()) << name;
    for (size_t i = 0; i < got_authors.size(); ++i) {
      EXPECT_EQ(got_authors[i].vertex, want_authors[i].vertex) << name;
      EXPECT_EQ(got_authors[i].num_papers, want_authors[i].num_papers)
          << name;
      EXPECT_EQ(recovered.PublicationsOf(got_authors[i].vertex),
                uninterrupted.PublicationsOf(want_authors[i].vertex))
          << name;
    }
  }
  recovered.Stop();
  uninterrupted.Stop();
}

/// The crash-safety property. For each (shards, depth) combination: fork a
/// child that serves through a WAL-backed ShardRouter, commits a
/// pseudo-random prefix of the stream, and dies by SIGKILL without any
/// shutdown; the parent then recovers from the log (for odd combinations,
/// after additionally tearing the final record at a random byte offset),
/// replays, submits the remainder, and requires every post-recovery
/// assignment byte-identical — score bits included — to the sequential run.
TEST(WalCrashRecoveryTest, RecoveredAssignmentsMatchSequential) {
  if (std::string(util::BuildSanitizer()) != "none") {
    GTEST_SKIP() << "fork-based crash test is incompatible with sanitizers";
  }
  const core::IuadConfig base = FastConfig();
  const uint64_t kSeed = 71;
  const int kHoldout = 40;
  const auto sequential = SequentialTraces(base, kSeed, kHoldout);
  ASSERT_EQ(sequential.size(), static_cast<size_t>(kHoldout));

  std::mt19937_64 rng(0xC0FFEE);
  const struct {
    int shards;
    int depth;
  } kCombos[] = {{1, 1}, {1, 8}, {4, 1}, {4, 8}};
  int combo_index = 0;
  for (const auto& combo : kCombos) {
    SCOPED_TRACE("shards=" + std::to_string(combo.shards) +
                 " depth=" + std::to_string(combo.depth));
    core::IuadConfig cfg = base;
    cfg.num_shards = combo.shards;
    cfg.pipeline_depth = combo.depth;
    const int crash_k =
        5 + static_cast<int>(rng() % static_cast<uint64_t>(kHoldout - 10));
    const bool tear_tail = (combo_index++ % 2) == 1;
    const std::string dir =
        FreshWalDir("crash_s" + std::to_string(combo.shards) + "_d" +
                    std::to_string(combo.depth));
    Options opts;
    opts.fsync_every_n = 1;  // every committed prefix record is durable

    // The fixture is built BEFORE the fork: the child mutates its
    // copy-on-write pages and dies; the parent's copy stays pristine and
    // becomes the recovery baseline. DisambiguationResult is move-only, so
    // this is also what keeps the test to one pipeline fit per combination.
    Fixture f = MakeFixture(kSeed, kHoldout, cfg);
    const uint64_t fp = f.history.Fingerprint();

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // ---- child: serve, commit crash_k papers durably, die hard. -------
      auto log = Log::Open(dir, fp, opts);
      if (!log.ok()) ::_exit(7);
      shard::ShardRouter router(&f.history, &f.result, cfg, log->get());
      std::vector<std::future<shard::ShardRouter::Assignments>> futures;
      for (int i = 0; i < crash_k; ++i) {
        futures.push_back(
            router.SubmitAt(static_cast<uint64_t>(i), f.stream[i]));
      }
      for (auto& fut : futures) {
        if (!fut.get().ok()) ::_exit(8);
      }
      router.Drain();  // forces the WAL flush: all crash_k records durable
      std::raise(SIGKILL);
      ::_exit(9);  // unreachable
    }

    // ---- parent: reap the crash, optionally tear the tail, recover. -----
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    int expect_durable = crash_k;
    if (tear_tail) {
      // Simulate an fsync that never completed: chop a random 1..12 bytes
      // off the active segment, leaving its final record incomplete.
      const auto segments = SegmentFiles(dir);
      ASSERT_EQ(segments.size(), 1u);
      const std::string seg = dir + "/" + segments[0];
      const int64_t size = FileSize(seg);
      const int64_t cut = 1 + static_cast<int64_t>(rng() % 12);
      ASSERT_EQ(::truncate(seg.c_str(), size - cut), 0);
      expect_durable = crash_k - 1;
    }

    auto log = Log::Open(dir, fp, opts);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_EQ((*log)->durable_next(),
              static_cast<uint64_t>(expect_durable));
    shard::ShardRouter recovered(&f.history, &f.result, cfg, log->get());
    auto replayed = ReplayTail(**log, &recovered);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(*replayed, static_cast<uint64_t>(expect_durable));

    std::vector<std::future<shard::ShardRouter::Assignments>> futures;
    for (int i = expect_durable; i < kHoldout; ++i) {
      futures.push_back(
          recovered.SubmitAt(static_cast<uint64_t>(i), f.stream[i]));
    }
    for (size_t j = 0; j < futures.size(); ++j) {
      auto r = futures[j].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(TraceOf(*r),
                sequential[static_cast<size_t>(expect_durable) + j])
          << "post-recovery divergence at sequence "
          << (expect_durable + static_cast<int>(j));
    }
    recovered.Drain();
    const auto stats = recovered.Stats();
    EXPECT_EQ(stats.recovery_replayed, expect_durable);
    // Replay never re-appends the durable prefix; only the remainder hits
    // the log in this session.
    EXPECT_EQ(stats.wal_appended, kHoldout - expect_durable);
    recovered.Stop();
    ASSERT_TRUE((*log)->status().ok()) << (*log)->status().ToString();
  }
}

}  // namespace
}  // namespace iuad::wal
