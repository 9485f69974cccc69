#ifndef IUAD_SHARD_SHARD_ROUTER_H_
#define IUAD_SHARD_SHARD_ROUTER_H_

/// \file shard_router.h
/// The serving front end for the incremental path, and the only
/// serve::Frontend implementation: a ShardRouter partitions the fitted
/// DisambiguationResult's name blocks across N >= 1 shard workers
/// (shard/placement.h) and drives them from one global ingestion sequence;
/// one shard is just the N = 1 case. The paper's bottom-up design makes
/// candidate scoring block-local by construction — a byline competes only
/// against same-name vertices — so each byline is scored on the shard that
/// owns its block, concurrently with the other bylines of the same paper,
/// while cross-shard collaboration-edge deltas commit under a single global
/// sequence number.
///
/// Consistency contract (the whole point — pinned by tests/shard_test.cpp):
/// assignments are byte-identical to sequential
/// IncrementalDisambiguator::AddPaper calls in sequence order at ANY shard
/// count, ANY producer count, and ANY pipeline depth. The protocol that
/// guarantees it:
///
///   1. WINDOW   — the router extracts up to config.pipeline_depth
///      consecutive-sequence papers already queued (never waiting for
///      more), additionally capped so no similarity-cache refresh can fall
///      inside the window. Each in-flight paper's byline names are interned
///      to NameIds: its name-block set, which is both its read set (a
///      byline competes only against same-name vertices) and its write set
///      (commits append papers/vertices/edges only under its byline
///      blocks).
///   2. SCATTER  — bylines whose block does NOT appear in any in-window
///      predecessor's block set are scored speculatively: grouped by owning
///      shard and fanned out across all in-flight papers at once, every
///      shard reading the same frozen pre-window snapshot through its OWN
///      SimilarityComputer (profile caches partitioned by block ownership,
///      not replicated). Frozen is exact, not approximate: WL labels, the
///      adjacency WL balls are built from, and corpus frequency tables are
///      snapshotted at refresh time (core::SimilarityComputer), so a ball
///      first built mid-window equals one built at the refresh; a text/venue
///      profile is a pure function of its vertex's papers, which only
///      same-block commits change; and γ2 (the one live cross-block read,
///      triangles) is masked out of incremental scoring — so a
///      speculatively-scored decision is bit-equal to the one sequential
///      AddPaper would compute after the disjoint predecessors commit.
///      Bylines that DO conflict are deferred (the scoreboard records which
///      commit version each decision read, so staleness is detected, not
///      assumed).
///   3. COMMIT   — strictly in sequence order, on the router thread (the
///      only writer, ever): deferred bylines are first rescored on their
///      owning shard against the now-current snapshot (the "speculative
///      rescore" path; with every predecessor committed this is exactly the
///      sequential scoring state), then the same ApplyDecisions as the
///      sequential path runs, the paper is folded into the touched
///      vertices' profiles on the owning shards (bit-equal to a rebuild),
///      the promise resolves, and the admission window advances.
///   4. REFRESH  — every config.incremental_refresh_interval applied papers
///      (the same cadence as the raw incremental path), after the
///      window's promises resolve, one SimilarityComputer is rebuilt on
///      the current graph (WL refinement across the shard pool) and copied
///      per shard; the copies share its immutable WL state, WL balls are
///      built from the kernel's frozen adjacency when first scored, and
///      each shard's profile map moves into its new copy. The window cap
///      puts the refresh after a window's last paper, and the next window
///      is extracted only after it: a full pipeline barrier at exactly
///      the sequential path's paper counts.
///
/// pipeline_depth = 1 degenerates to the pre-pipeline router: one paper per
/// window, nothing deferred, scatter/commit per paper.
///
/// Submission, the admission bound, the dense-sequence SubmitAt contract
/// and Drain/Stop follow the shared contract in serve/frontend.h; a reorder
/// buffer holds SubmitAt arrivals that are early for their sequence.
///
/// Reads are shard-local: each shard publishes an immutable view of its
/// owned blocks every config.ingest_refresh_window applied papers (and at
/// Drain/Stop). AuthorsByName routes to the one owning shard; Stats
/// aggregates all shards plus router-level health (queue depth, reorder
/// occupancy, epoch). Readers never touch the live graph, so they are safe
/// concurrent with ingestion and at most one refresh window behind.

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/similarity.h"
#include "data/paper_database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "shard/placement.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iuad::wal {
class Log;
}  // namespace iuad::wal

namespace iuad::shard {

/// Name-block-sharded MPSC ingestion + concurrent read service: the
/// serve::Frontend implementation, at any shard count.
class ShardRouter : public serve::Frontend {
 public:
  /// Starts the router thread and its shard worker pool. `config` must
  /// already Validate() OK; num_shards / shard_placement / queue / window
  /// knobs are read from it. `db` and `result` are caller-owned, must
  /// outlive the router, and are exclusively the router's until
  /// Stop()/destruction.
  ///
  /// `wal`, when non-null, is an opened wal::Log (caller-owned, outliving
  /// the router) the router thread logs every commit attempt into,
  /// group-committing the fsync across each pipelined window and — when
  /// config.wal_checkpoint_every_n > 0 — checkpointing at shard-refresh
  /// boundaries, which the window cap pins to window boundaries
  /// (DESIGN.md §9).
  ShardRouter(data::PaperDatabase* db, core::DisambiguationResult* result,
              core::IuadConfig config, wal::Log* wal = nullptr);

  /// Stops accepting work, applies everything admitted, joins the router.
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Frontend — see frontend.h for the shared submission/read contract.
  std::future<Assignments> Submit(data::Paper paper) override;
  std::future<Assignments> SubmitAt(uint64_t seq, data::Paper paper) override;
  std::vector<std::future<Assignments>> SubmitBatch(
      std::vector<data::Paper> papers) override;

  /// Blocks until everything admitted at call time is applied, published
  /// and, with a WAL, flushed to it.
  void Drain() override;

  /// Drains, refuses further submissions, joins. Idempotent.
  void Stop() override;

  // ---- Read-only queries (epoch snapshot; safe during ingestion) ---------

  /// Routed to the one shard owning `name`'s block: alive author candidates
  /// bearing `name`, in vertex-id order.
  std::vector<serve::AuthorRecord> AuthorsByName(
      const std::string& name) const override;

  /// Paper ids attributed to vertex `v` (scatter-gather: the owning shard's
  /// view answers; empty for unknown / not-yet-published vertices).
  std::vector<int> PublicationsOf(graph::VertexId v) const override;

  /// Aggregated totals + per-shard health (stats.shards) at the last
  /// published epoch; queue depth and reorder occupancy are read live.
  serve::ServiceStats Stats() const override;
  obs::Registry* Metrics() override { return &registry_; }

  /// The block→shard route for `name` (exposed for tests and ops).
  int ShardOf(const std::string& name) const {
    return placement_.ShardOf(name);
  }

 private:
  struct Request {
    data::Paper paper;
    std::promise<Assignments> promise;
    /// Admission stamp (clock_.Now()); 0 only when metrics and tracing are
    /// both off.
    int64_t submit_ns = 0;
  };

  /// One shard's mutable state. The similarity computer is only ever used
  /// by the task the router schedules for this shard (or by the router
  /// itself between fences), never concurrently.
  struct Shard {
    std::unique_ptr<core::SimilarityComputer> sim;
    serve::ShardHealth health;
  };

  /// Immutable published read state, swapped atomically per epoch. Author
  /// lookup keys are interned name ids, not strings: the protocol-boundary
  /// name resolves through the graph interner (concurrent-reader safe, and
  /// ids are never reused) so the view itself stores no string copies.
  struct ReadView {
    /// Per shard: owned-block author lookup + publication lists.
    struct ShardView {
      std::unordered_map<util::NameId, std::vector<serve::AuthorRecord>>
          by_name;
      std::unordered_map<graph::VertexId, std::vector<int>> papers_of;
    };
    std::vector<ShardView> shards;
    serve::ServiceStats stats;
  };

  /// One pipelined paper: its request plus the conflict scoreboard entry.
  struct InFlight {
    uint64_t seq = 0;
    data::Paper paper;
    std::promise<Assignments> promise;
    std::vector<util::NameId> blocks;  ///< Per byline: owning block id.
    std::vector<int> owners;           ///< Per byline: owning shard.
    /// Per byline: block written by an in-window predecessor — do not
    /// score speculatively, rescore at commit time instead.
    std::vector<bool> deferred;
    /// Per byline: sequence of the nearest in-window predecessor that
    /// claimed this byline's block (meaningful only where deferred[i]) —
    /// the deferral-blame the scoreboard records for traces/exemplars.
    std::vector<uint64_t> blocked_by;
    std::vector<core::OccurrenceDecision> decisions;
    bool overlapped = false;  ///< >= 1 byline scored in the scatter phase.
    // Paper-path span stamps/durations (nanoseconds) from clock_, 0 when
    // metrics and tracing are both off; they feed the histograms,
    // the flight recorder, and the slow-commit exemplars.
    int64_t submit_ns = 0;   ///< Admission stamp (from Request).
    int64_t extract_ns = 0;  ///< Window-extraction stamp.
    int64_t scatter_ns = 0;  ///< Scatter-phase duration of this window.
    int64_t rescore_ns = 0;  ///< Deferred-byline rescore duration.
    int64_t apply_ns = 0;    ///< Commit (apply + profile fold) duration.
  };

  void RouterLoop();
  std::future<Assignments> SubmitLocked(uint64_t seq, data::Paper paper,
                                        std::unique_lock<std::mutex>* lock);
  /// Window/scatter/commit/refresh for one extracted window (unlocked; the
  /// per-paper commit tail re-locks to advance the applied frontier).
  void RunWindow(std::vector<InFlight> window);
  /// Speculative scatter: scores every non-deferred byline of the window,
  /// grouped by owning shard, against the frozen pre-window snapshot.
  void ScatterWindow(std::vector<InFlight>* window);
  /// Phase 2 for one in-flight paper at its turn in the sequence: rescore
  /// deferred bylines, ApplyDecisions, fold profiles, count.
  Assignments CommitPaper(InFlight* w);
  /// Rebuilds the similarity state on the current graph and gives every
  /// shard its own computer over it (γ1 is frozen at this snapshot; see
  /// core::SimilarityComputer), moving the shard's profiles into it. Builds
  /// no WL ball.
  void RefreshShards();
  void PublishView();
  std::shared_ptr<const ReadView> CurrentView() const;

  data::PaperDatabase* db_;
  core::DisambiguationResult* result_;
  core::IuadConfig config_;
  wal::Log* wal_;  ///< Null when serving without durability.
  /// Commit attempts since the last WAL checkpoint (router-thread-owned).
  int64_t wal_since_checkpoint_ = 0;
  BlockPlacement placement_;
  std::vector<Shard> shards_;
  /// Scatter pool: one slot per shard; the router thread doubles as
  /// worker 0, so num_shards = 1 degenerates to fully inline execution.
  std::unique_ptr<util::ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable admit_cv_;
  std::condition_variable ready_cv_;
  std::condition_variable applied_cv_;
  std::map<uint64_t, Request> pending_;  ///< Reorder buffer, keyed by seq.
  uint64_t next_ticket_ = 0;
  uint64_t next_apply_ = 0;
  /// End of the extracted in-flight window: sequences in
  /// [next_apply_, in_flight_hi_) are being pipelined and sit in neither
  /// pending_ nor the applied range; duplicate detection must still reject
  /// them. Equals next_apply_ when the router is between windows.
  uint64_t in_flight_hi_ = 0;
  uint64_t published_through_ = 0;
  /// Sequences below this are flushed to wal_ (or met its sticky flush
  /// error); Drain waits for it too. Unused without a WAL. A window
  /// advances it when its cadence flush fires, and every window that
  /// leaves the router idle flushes and advances it, so the router never
  /// sleeps with it behind next_apply_.
  uint64_t durable_through_ = 0;
  int drain_waiters_ = 0;
  bool stopping_ = false;
  bool join_claimed_ = false;
  bool joined_ = false;

  // Control-flow state owned by the router thread. Event *counts* moved
  // into the registry below (still router-thread-single-writer, so the
  // registry counters are exact); only state that steers behavior stays as
  // plain members — metrics never feed back into ingestion (DESIGN.md §7).
  int64_t epoch_ = 0;
  int since_publish_ = 0;
  int since_refresh_ = 0;
  /// Monotone count of ApplyDecisions calls (successful or not — a
  /// mid-commit failure may still have written its blocks): the version
  /// OccurrenceDecision::snapshot_version is stamped from.
  uint64_t commit_version_ = 0;

  // Observability (src/obs). Instruments are resolved once at construction
  // and recorded lock-free thereafter; every stage stamp goes through
  // clock_, which decides when the clock is read and which sink records.
  obs::Registry registry_;
  const obs::StageClock clock_;
  const int64_t start_ns_;  ///< Construction stamp, for uptime_seconds.
  obs::Counter* ctr_papers_applied_;
  obs::Counter* ctr_papers_failed_;
  obs::Counter* ctr_assignments_;
  obs::Counter* ctr_new_authors_;
  obs::Counter* ctr_windows_;            ///< Pipeline windows formed.
  obs::Counter* ctr_overlapped_papers_;  ///< >= 1 scatter-scored byline.
  obs::Counter* ctr_conflict_stalls_;    ///< Fully serialized by conflicts.
  obs::Counter* ctr_speculative_rescores_;  ///< Deferred bylines rescored.
  obs::Counter* ctr_publishes_;
  obs::Counter* ctr_refreshes_;
  obs::Gauge* gauge_queue_depth_;
  obs::Histogram* hist_enqueue_wait_us_;
  obs::Histogram* hist_scatter_us_;  ///< Whole scatter phase, per window.
  obs::Histogram* hist_rescore_us_;
  obs::Histogram* hist_apply_us_;
  obs::Histogram* hist_publish_us_;
  obs::Histogram* hist_refresh_us_;
  obs::Histogram* hist_commit_latency_us_;
  /// Per-shard scatter-task latency ("shard<i>_scatter_us"): how long each
  /// shard's slice of a window took — the skew signal for placement.
  std::vector<obs::Histogram*> hist_shard_scatter_us_;
  /// WAL instruments, cached at construction so const Stats() can read
  /// values without the (non-const) registry lookup. Null when wal_ is.
  obs::Counter* ctr_wal_appended_ = nullptr;
  obs::Counter* ctr_wal_fsyncs_ = nullptr;
  obs::Counter* ctr_wal_bytes_ = nullptr;
  obs::Counter* ctr_recovery_replayed_ = nullptr;
  obs::Gauge* gauge_wal_ckpt_seq_ = nullptr;
  obs::Gauge* gauge_wal_ckpt_ts_ = nullptr;
  obs::Histogram* hist_wal_fsync_wait_us_ = nullptr;
  /// Top-K slowest commits (config.trace_exemplars); offered to only on
  /// the already-slow path, surfaced through Stats().
  obs::ExemplarTable exemplars_;

  mutable std::mutex view_mu_;
  std::shared_ptr<const ReadView> view_;

  std::thread router_;
};

}  // namespace iuad::shard

#endif  // IUAD_SHARD_SHARD_ROUTER_H_
