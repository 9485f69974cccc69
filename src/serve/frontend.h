#ifndef IUAD_SERVE_FRONTEND_H_
#define IUAD_SERVE_FRONTEND_H_

/// \file frontend.h
/// The one serving interface. A Frontend is a live, queryable collaboration
/// network accepting newly published papers (Sec. V-E). The name-block-
/// sharded shard::ShardRouter implements it at every shard count; the CLI
/// serve loop, the typed src/api layer, wal::ReplayTail, benchmarks and
/// examples all drive one `Frontend*`.
///
/// Shared contract (pinned by tests/shard_test.cpp, tests/api_test.cpp):
///
///  * WRITES are totally ordered by sequence number; the ingestion outcome
///    equals sequential IncrementalDisambiguator::AddPaper calls in
///    sequence order, byte-identical at any producer / shard count.
///    Submit() takes the next free sequence; SubmitAt() pins one (the
///    dense-sequence contract: every sequence in [0, N) exactly once);
///    SubmitBatch() reserves one contiguous range for a whole vector under
///    a single lock acquisition, so batch producers stop round-tripping
///    the submission lock per paper.
///  * ADMISSION is bounded by config.ingest_queue_capacity; submissions
///    block past it. The next-to-apply sequence is always admissible,
///    which keeps the bound deadlock-free.
///  * READS (AuthorsByName / PublicationsOf / Stats) are wait-free against
///    ingestion: they see the last published epoch, at most one refresh
///    window behind.

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "data/paper.h"
#include "graph/collab_graph.h"
#include "obs/trace.h"
#include "util/status.h"

namespace iuad::obs {
class Registry;
}  // namespace iuad::obs

namespace iuad::serve {

/// One author candidate as seen by readers at the last published epoch.
struct AuthorRecord {
  graph::VertexId vertex = -1;
  int num_papers = 0;
};

/// Per-shard health, published with the read views: one entry per shard,
/// including at one shard.
struct ShardHealth {
  int shard = 0;
  int64_t owned_blocks = 0;      ///< Blocks placed at fit time.
  int64_t placement_weight = 0;  ///< Their summed placement weight.
  int64_t papers_scored = 0;     ///< Papers with >= 1 byline scored here.
  int64_t bylines_scored = 0;
  int64_t assignments = 0;       ///< Bylines this shard's blocks absorbed.
  int64_t new_authors = 0;       ///< Of those, newly-born vertices.
};

/// Service health counters, one shape for every Frontend. Snapshot
/// semantics: all fields are from the same published epoch except
/// queued_now and reorder_held, which are read live under the queue lock
/// (they describe the queue, not the applied state, and would otherwise
/// always publish as stale zeros).
struct ServiceStats {
  int64_t epoch = 0;             ///< Published-view epoch (0 = pre-ingest).
  int64_t papers_applied = 0;    ///< Papers fully ingested.
  int64_t assignments = 0;       ///< Byline occurrences decided.
  int64_t new_authors = 0;       ///< Occurrences that founded a new vertex.
  int num_alive_vertices = 0;
  int num_edges = 0;
  int queued_now = 0;            ///< Live queue depth (incl. reorder holds).
  /// Live reorder-buffer occupancy: admitted papers waiting behind a
  /// sequence hole (SubmitAt arrivals the applier cannot consume yet).
  /// Persistently > 0 with an idle applier means a producer died holding a
  /// sequence — the first thing on-call should look at.
  int reorder_held = 0;
  int queue_capacity = 0;        ///< config.ingest_queue_capacity, for UIs.
  int num_shards = 1;            ///< Serving topology (name-block shards).
  // Ingestion-pipeline health (shard_router.h).
  int pipeline_depth = 1;        ///< config.pipeline_depth in effect.
  int64_t pipeline_windows = 0;  ///< Scoring windows formed so far.
  /// Mean papers per window whose phase-1 scoring actually overlapped with
  /// other in-flight papers (scored before every predecessor committed).
  /// ~pipeline_depth on block-disjoint traffic; 1.0 when conflicts (or
  /// depth 1) fully serialize the pipeline.
  double pipeline_occupancy = 0.0;
  /// Papers that could not overlap at all: every byline's name block was
  /// written by an uncommitted in-window predecessor, so scoring waited for
  /// the commits — the pipeline ran sequentially for them.
  int64_t conflict_stalls = 0;
  /// Bylines scored against a post-predecessor-commit snapshot because
  /// their block conflicted inside a window (the stale-decision path the
  /// OccurrenceDecision::snapshot_version stamp detects).
  int64_t speculative_rescores = 0;
  // Process-level liveness, read at Stats() call time (not epoch-bound):
  // resident set via util::CurrentRssMb and seconds since this Frontend
  // was constructed — memory visible live, not only in BENCH_*.json.
  double rss_mb = 0.0;
  double uptime_seconds = 0.0;
  /// Slowest retained commits (top-K by latency) with per-stage span
  /// breakdowns and deferral blame — populated once a commit breaches
  /// config.slow_commit_ms (DESIGN.md §8). Ordered slowest-first.
  std::vector<obs::SlowCommitExemplar> slow_commits;
  // Durability (src/wal, DESIGN.md §9). All zero / -1 when serving without
  // --wal-dir. Read live from the WAL instruments at Stats() call time, not
  // epoch-bound — durability state is process liveness, like rss_mb.
  int64_t wal_appended = 0;        ///< Commit attempts logged this session.
  int64_t wal_fsyncs = 0;          ///< Group-commit fsync batches issued.
  int64_t wal_bytes = 0;           ///< Record bytes written (excl. headers).
  int64_t recovery_replayed = 0;   ///< Tail records replayed at startup.
  /// Sequences covered by the last checkpoint (0 = none yet): everything
  /// below this lives in the snapshot, everything at or above in segments.
  int64_t wal_last_checkpoint_seq = 0;
  /// Seconds since the last checkpoint committed; -1 when no checkpoint
  /// exists (or no WAL). Alarms on this catch a stuck compactor.
  double wal_last_checkpoint_age_s = -1.0;
  double wal_fsync_wait_us_p99 = 0.0;  ///< p99 fsync stall seen by commits.
  std::vector<ShardHealth> shards;  ///< Per-shard breakdown, one per shard.
};

/// Abstract serving front end over one fitted disambiguation result.
class Frontend {
 public:
  using Assignments = iuad::Result<std::vector<core::IncrementalAssignment>>;

  virtual ~Frontend() = default;

  /// Enqueues `paper` at the next free sequence number. Blocks while the
  /// admission window is full. The future resolves once the paper is
  /// applied, with the same assignments a sequential AddPaper call at that
  /// position would return. Fails fast (immediately-resolved future) after
  /// Stop().
  virtual std::future<Assignments> Submit(data::Paper paper) = 0;

  /// Enqueues `paper` at an explicit sequence slot (dense-sequence
  /// contract; see the header comment). Blocks while `seq` is outside the
  /// admission window. Duplicate sequences fail the returned future with
  /// InvalidArgument.
  virtual std::future<Assignments> SubmitAt(uint64_t seq,
                                            data::Paper paper) = 0;

  /// Enqueues every paper of `papers` at one contiguous, atomically
  /// reserved sequence range (in vector order). Equivalent to |papers|
  /// uncontended Submit calls, but the range reservation takes the
  /// submission lock once — and no interleaving producer can split the
  /// batch's sequences. Returns one future per paper, in order.
  virtual std::vector<std::future<Assignments>> SubmitBatch(
      std::vector<data::Paper> papers) = 0;

  /// Blocks until every paper admitted at call time is applied and a fresh
  /// read view is published.
  virtual void Drain() = 0;

  /// Drains, refuses further submissions, joins worker threads.
  /// Idempotent. After Stop() the caller again owns the database/result
  /// passed at construction.
  virtual void Stop() = 0;

  // ---- Read-only queries (epoch snapshot; safe during ingestion) ---------

  /// Alive author candidates bearing `name`, in vertex-id order.
  virtual std::vector<AuthorRecord> AuthorsByName(
      const std::string& name) const = 0;

  /// Paper ids attributed to vertex `v` at the last published epoch
  /// (empty for unknown / dead / not-yet-published vertices).
  virtual std::vector<int> PublicationsOf(graph::VertexId v) const = 0;

  virtual ServiceStats Stats() const = 0;

  /// The frontend-owned metrics registry (src/obs): every serving layer
  /// stacked on this frontend — dispatcher, API server, metrics endpoint —
  /// records into and scrapes from this one registry. Never null; valid
  /// for the frontend's lifetime (including after Stop()).
  virtual obs::Registry* Metrics() = 0;
};

}  // namespace iuad::serve

#endif  // IUAD_SERVE_FRONTEND_H_
