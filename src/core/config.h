#ifndef IUAD_CORE_CONFIG_H_
#define IUAD_CORE_CONFIG_H_

/// \file config.h
/// All knobs of the IUAD pipeline in one place. Defaults follow the paper's
/// experimental settings where stated (η-SCRs with η = 2 as in the running
/// example, 10% candidate-pair sampling, α = 0.62 time decay) and DESIGN.md
/// documents every choice the paper leaves open.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "em/mixture_model.h"
#include "graph/collab_graph.h"
#include "text/word2vec.h"
#include "util/status.h"

namespace iuad::core {

/// Number of similarity functions γ1..γ6 (Sec. V-B).
constexpr int kNumSimilarities = 6;

/// How name blocks are mapped onto serving shards (src/shard). Placement
/// never changes assignments — scoring is deterministic wherever it runs —
/// only load balance.
enum class ShardPlacement {
  /// FNV hash of the block name modulo the shard count. Stateless, so any
  /// process that knows the shard count can route; skewed under the
  /// scale-free block-size distributions real corpora exhibit.
  kHash = 0,
  /// Greedy longest-processing-time packing of the fitted result's blocks
  /// by scoring weight (candidate vertices + attributed papers), heaviest
  /// block first onto the lightest shard. Blocks born after the fit (names
  /// first seen during ingestion) fall back to the hash rule.
  kSizeAware = 1,
};

struct IuadConfig {
  // --- Stage 1: SCN construction (Sec. IV) -----------------------------
  /// η: minimum co-occurrence count of a stable collaborative relation.
  int64_t eta = 2;
  /// The Fig. 4 insertion rule: a new SCR endpoint reuses an existing
  /// vertex only when an incident triangle of SCRs supports it. Disabling
  /// (ablation) merges same-name endpoints unconditionally — precision
  /// collapses, which is the point of the bottom-up design.
  bool triangle_gated_insertion = true;

  // --- Similarities (Sec. V-B) ------------------------------------------
  /// h: Weisfeiler-Lehman refinement depth for γ1.
  int wl_iterations = 2;
  /// α: time-decay factor of γ4 (the paper cites FutureRank's 0.62).
  double time_decay_alpha = 0.62;
  /// Embedding trainer for γ3 (replaces the paper's pretrained vectors).
  text::Word2VecConfig word2vec;

  // --- Stage 2: GCN construction (Sec. V) --------------------------------
  /// δ: decision threshold on the posterior log-odds score (Eq. 11).
  double delta = 0.0;
  /// Fraction of candidate pairs used to train the generative model
  /// (Sec. VI-A3 samples 10%).
  double sample_rate = 0.10;
  /// Vertex-splitting augmentation against class imbalance (Sec. V-F2).
  /// Small vertices are split too (min 2 papers): the planted matched pairs
  /// must cover the *small-profile* similarity scale as well, or the EM
  /// matched component learns only the prolific-author regime and
  /// mis-scores single-paper evidence (the incremental case).
  bool vertex_splitting = true;
  int split_min_papers = 2;    ///< Vertices with >= this many papers split.
  int max_split_vertices = 300;
  /// Safety cap: names sharing more vertices than this have their candidate
  /// pairs deterministically subsampled (the paper's DBLP run needs none).
  int max_pairs_per_name = 20000;
  /// Per-feature exponential-family choice (order γ1..γ6). γ1 (normalized
  /// WL) is semi-discrete — exactly 0 for the many pairs with no shared
  /// ball labels — so it gets the binned Multinomial, which absorbs point
  /// masses gracefully; γ3 (cosine) is bounded and bell-ish => Gaussian;
  /// the overlap-style similarities are nonnegative and heavy-tailed =>
  /// Exponential. See DESIGN.md §5; ablated in bench/ablation_design_choices.
  std::vector<em::FamilyType> families = {
      em::FamilyType::kMultinomial, em::FamilyType::kExponential,
      em::FamilyType::kGaussian,    em::FamilyType::kExponential,
      em::FamilyType::kExponential, em::FamilyType::kExponential,
  };
  /// EM settings (init quantile, tolerance, ...).
  em::MixtureConfig em;

  // --- Semi-supervision (the paper's stated future work, Sec. VII) -------
  /// Optional label oracle over candidate vertex pairs. Return 1 for a
  /// known match, 0 for a known non-match, -1 for unknown. Known labels
  /// pin the EM initial responsibilities (0.99 / 0.01) for those training
  /// pairs; everything else stays unsupervised. Typical source: a few
  /// manually-curated author profiles.
  std::function<int(const graph::CollabGraph&, graph::VertexId,
                    graph::VertexId)>
      pair_label_oracle;

  // --- Execution ---------------------------------------------------------
  /// Worker threads for the pairwise-similarity hot path (the γ1..γ6
  /// batches of GCN construction, Sec. V-B). 0 = auto (hardware
  /// concurrency). Output is identical at every setting: per-vertex
  /// profiles and WL features are prewarmed before the parallel region and
  /// scores are applied in fixed candidate-pair order regardless of
  /// completion order. CLI flag: --threads.
  int num_threads = 0;

  // --- Incremental mode (Sec. V-E) ---------------------------------------
  /// Rebuild the WL kernel / similarity caches after this many ingested
  /// papers (stale structure in between is tolerated by design — the paper
  /// never retrains on new papers).
  int incremental_refresh_interval = 64;

  // --- Serving & persistence (src/serve, src/io) -------------------------
  /// Bound of the shard::ShardRouter admission window: at most this many
  /// submitted papers may be queued (or held for sequence reordering) ahead
  /// of the router thread; further Submit calls block. Must be >= 1 — the
  /// paper whose sequence number is next to apply is always admissible,
  /// which is what makes the bound deadlock-free.
  int ingest_queue_capacity = 256;
  /// The router republishes its read-only query view (author lookups,
  /// publication lists, stats) every this-many applied papers. Purely a
  /// freshness/throughput trade-off for concurrent readers: ingestion
  /// results never depend on it (similarity-cache refresh batching is
  /// incremental_refresh_interval, as in the raw incremental path).
  int ingest_refresh_window = 64;
  /// Where --save-snapshot / --load-snapshot persistence lives. Only
  /// consulted when persist_snapshot is set; must then be non-empty.
  std::string snapshot_path;
  /// Set by callers requesting snapshot persistence (the CLI flags); makes
  /// an empty snapshot_path a configuration error instead of a late IoError.
  bool persist_snapshot = false;

  // --- Sharded serving (src/shard) ---------------------------------------
  /// Shard count of the shard::ShardRouter serving front end; 1 (the
  /// default) scores every byline on one shard. Also the shard-section count
  /// of a saved snapshot (src/io), so a snapshot saved by an N-shard service
  /// loads its sections in parallel. Assignments are byte-identical at every
  /// value. CLI flag: --shards on `serve`.
  int num_shards = 1;
  /// Block→shard placement policy (see ShardPlacement).
  ShardPlacement shard_placement = ShardPlacement::kSizeAware;
  /// Bound on the ShardRouter's ingestion pipeline: up to this many
  /// consecutive-sequence papers may be in flight at once, with phase-1
  /// scoring overlapped across them and commits strictly in sequence order.
  /// Papers whose name blocks collide with an uncommitted predecessor have
  /// exactly the conflicted bylines rescored after that predecessor commits,
  /// so assignments are byte-identical to sequential AddPaper at every
  /// depth; 1 degenerates to the pre-pipeline one-paper-at-a-time router.
  /// The effective window is additionally capped by the refresh cadence
  /// (a similarity-cache refresh is a full pipeline barrier) and by what is
  /// actually queued. CLI flag: --pipeline-depth on `serve`.
  int pipeline_depth = 4;

  // --- Query/ingest API (src/api) ----------------------------------------
  /// TCP port of api::Server (`iuad serve --port P`). 0 binds an ephemeral
  /// port (the server reports the one it got); the stdio transport ignores
  /// it. Must fit a uint16.
  int api_port = 0;
  /// Connection worker threads of api::Server: at most this many client
  /// connections are served concurrently; further accepted connections are
  /// turned away with a protocol-level ResourceExhausted response. 0 =
  /// auto (hardware concurrency). CLI flag: --workers.
  int api_num_workers = 0;
  /// Largest paper batch one IngestPaper request may carry; bigger batches
  /// are rejected with ResourceExhausted before touching the ingest queue.
  /// CLI flag: --max-batch.
  int api_max_batch = 64;

  // --- Observability (src/obs) -------------------------------------------
  /// Gates latency recording (the clock reads and histogram updates) on the
  /// serving hot paths. Counters and the stats/metrics surfaces stay live
  /// either way — disabling only stops timing. Assignments are
  /// byte-identical at either setting (DESIGN.md §7); the flag exists to
  /// prove it and to shave the last clock reads off benchmark runs.
  /// CLI flag: --no-metrics on `serve`.
  bool metrics_enabled = true;
  /// Port of the Prometheus-style text exposition endpoint (`serve
  /// --metrics-port`). -1 disables the endpoint (default); 0 binds an
  /// ephemeral port (reported at startup); otherwise must fit a uint16.
  int metrics_port = -1;
  /// Period in seconds of the live stats dump to stderr while serving
  /// (`serve --stats-interval`). 0 disables it.
  double stats_interval_s = 0.0;
  /// Commits slower than this many milliseconds (submit-to-applied) retain
  /// their per-stage span breakdown in the slow-commit exemplar table
  /// (surfaced through GetStats and the stderr stats dump). 0 disables
  /// slow-commit retention. Only consulted when stage stamps exist, i.e.
  /// metrics or tracing is enabled. CLI flag: --slow-commit-ms.
  double slow_commit_ms = 0.0;
  /// Gates the flight recorder (per-paper trace events on the serving hot
  /// paths). Like metrics_enabled, the flag gates clock reads and ring
  /// stores only — assignments are byte-identical at either setting
  /// (DESIGN.md §8). CLI flag: --no-trace on `serve`.
  bool trace_enabled = true;
  /// Path the serve CLI writes the Chrome trace-event JSON to on shutdown;
  /// also the stem of the crash dump (`<trace_out>.crash`). Empty disables
  /// the file (the `trace` op and /trace endpoint still work). CLI flag:
  /// --trace-out.
  std::string trace_out;
  /// Flight-recorder ring capacity, events per recording thread.
  int trace_ring_capacity = 4096;
  /// Capacity K of the slow-commit exemplar table (top-K by latency).
  int trace_exemplars = 8;

  // --- Durability (src/wal) ----------------------------------------------
  /// Directory of the write-ahead log (`serve --wal-dir`). Empty disables
  /// durability: a crash loses everything since the last explicit
  /// checkpoint. Non-empty makes every commit attempt a logged record and
  /// recovery automatic on the next serve against the same directory.
  std::string wal_dir;
  /// Group-commit width: the WAL fsyncs after this many buffered records.
  /// 1 = fsync once per pipelined window of at most pipeline_depth records
  /// (strictest, slowest). CLI flag: --wal-fsync-every.
  int wal_fsync_every_n = 64;
  /// Time trigger of the group commit: flush+fsync on append once this
  /// many milliseconds have passed since the last sync, even when fewer
  /// than wal_fsync_every_n records are buffered. Bounds durability lag
  /// under sustained slow load; keep it well above the fsync cost itself
  /// or batches degenerate to a couple of records (wal_io in
  /// BENCH_serving.json). 0 disables the time trigger (the
  /// idle-transition flush still runs). CLI flag: --wal-fsync-ms.
  double wal_fsync_interval_ms = 50.0;
  /// Checkpoint cadence: once at least this many papers have been applied
  /// since the last checkpoint, the commit thread writes one at the next
  /// similarity-cache refresh boundary (the only point where recovery can
  /// reconstruct cache state exactly — DESIGN.md §9). 0 disables automatic
  /// checkpoints (the log grows until a manual one). CLI flag:
  /// --wal-checkpoint-every.
  int wal_checkpoint_every_n = 0;

  /// Seed for every randomized component (sampling, splitting, embeddings).
  uint64_t seed = 1234;

  /// Rejects misconfigurations before any work happens, so the pipeline
  /// returns InvalidArgument instead of hitting UB deep inside training
  /// (e.g. a zero-dimension embedding table or a division by sample_rate).
  /// Negative num_threads is NOT an error: ResolveNumThreads maps <= 0 to
  /// hardware concurrency. Called at the top of IuadPipeline::Run /
  /// RunScnOnly; standalone users of the builders may call it themselves.
  iuad::Status Validate() const {
    auto bad = [](const std::string& msg) {
      return iuad::Status::InvalidArgument("config: " + msg);
    };
    if (eta < 1) return bad("eta must be >= 1");
    if (wl_iterations < 0) return bad("wl_iterations must be >= 0");
    if (time_decay_alpha < 0.0) return bad("time_decay_alpha must be >= 0");
    if (word2vec.dim <= 0) return bad("word2vec.dim must be positive");
    if (word2vec.window <= 0) return bad("word2vec.window must be positive");
    if (word2vec.epochs <= 0) return bad("word2vec.epochs must be positive");
    if (word2vec.negatives < 0) return bad("word2vec.negatives must be >= 0");
    if (word2vec.learning_rate <= 0.0) {
      return bad("word2vec.learning_rate must be positive");
    }
    if (word2vec.min_count < 1) return bad("word2vec.min_count must be >= 1");
    if (word2vec.subsample < 0.0) return bad("word2vec.subsample must be >= 0");
    if (word2vec.num_shards < 0) return bad("word2vec.num_shards must be >= 0");
    if (!(sample_rate > 0.0 && sample_rate <= 1.0)) {
      return bad("sample_rate must be in (0, 1]");
    }
    if (split_min_papers < 2) return bad("split_min_papers must be >= 2");
    if (max_split_vertices < 0) return bad("max_split_vertices must be >= 0");
    if (max_pairs_per_name < 1) return bad("max_pairs_per_name must be >= 1");
    if (static_cast<int>(families.size()) != kNumSimilarities) {
      return bad("families must list exactly one family per similarity");
    }
    if (incremental_refresh_interval < 1) {
      return bad("incremental_refresh_interval must be >= 1");
    }
    if (ingest_queue_capacity < 1) {
      return bad("ingest_queue_capacity must be >= 1");
    }
    if (ingest_refresh_window < 1) {
      return bad("ingest_refresh_window must be >= 1");
    }
    if (num_shards < 1) return bad("num_shards must be >= 1");
    if (shard_placement != ShardPlacement::kHash &&
        shard_placement != ShardPlacement::kSizeAware) {
      return bad("shard_placement must be a known policy");
    }
    if (pipeline_depth < 1 || pipeline_depth > 1024) {
      return bad("pipeline_depth must be in [1, 1024]");
    }
    if (api_port < 0 || api_port > 65535) {
      return bad("api_port must be in [0, 65535]");
    }
    if (api_num_workers < 0) return bad("api_num_workers must be >= 0");
    if (api_max_batch < 1) return bad("api_max_batch must be >= 1");
    if (metrics_port < -1 || metrics_port > 65535) {
      return bad("metrics_port must be -1 (disabled) or in [0, 65535]");
    }
    if (stats_interval_s < 0.0) return bad("stats_interval_s must be >= 0");
    if (slow_commit_ms < 0.0) return bad("slow_commit_ms must be >= 0");
    if (trace_ring_capacity < 64 || trace_ring_capacity > (1 << 20)) {
      return bad("trace_ring_capacity must be in [64, 1048576]");
    }
    if (trace_exemplars < 1 || trace_exemplars > 1024) {
      return bad("trace_exemplars must be in [1, 1024]");
    }
    if (wal_fsync_every_n < 1) return bad("wal_fsync_every_n must be >= 1");
    if (wal_fsync_interval_ms < 0.0) {
      return bad("wal_fsync_interval_ms must be >= 0");
    }
    if (wal_checkpoint_every_n < 0) {
      return bad("wal_checkpoint_every_n must be >= 0");
    }
    if (persist_snapshot && snapshot_path.empty()) {
      return bad("snapshot_path must be non-empty when persistence is "
                 "requested");
    }
    return iuad::Status::OK();
  }
};

}  // namespace iuad::core

#endif  // IUAD_CORE_CONFIG_H_
