/// `iuad` — command-line front end for the library.
///
/// Subcommands:
///   iuad generate <out.tsv> [--papers N] [--seed S]
///       Emit a synthetic labeled corpus (the DBLP stand-in) as a paper TSV.
///   iuad run <papers.tsv> [--eta N] [--delta X] [--graph out_graph.tsv]
///            [--clusters out_clusters.tsv] [--save-snapshot out.snap]
///       Reconstruct the collaboration network; optionally persist the
///       network, the per-occurrence author attribution, and/or the full
///       fitted state as a binary snapshot (src/io) for later serving.
///   iuad evaluate <papers.tsv>
///       Run the pipeline and score it against the TSV's ground-truth
///       column (pairwise micro metrics over ambiguous names).
///   iuad serve <papers.tsv> --load-snapshot in.snap [--stream new.tsv]
///              [--shards S] [--producers N] [--queue C] [--window W]
///              [--pipeline-depth D]
///              [--name "A. Name"] [--port P | --stdio] [--workers W]
///              [--max-batch B] [--save-snapshot-on-stop out.snap]
///              [--save-corpus out.tsv]
///              [--metrics-port P] [--stats-interval S]
///              [--slow-commit-ms M] [--no-metrics]
///              [--trace-out out.json] [--no-trace]
///              [--wal-dir DIR] [--wal-fsync-every N] [--wal-fsync-ms M]
///              [--wal-checkpoint-every N]
///       Load a fitted snapshot next to the corpus it was saved against and
///       bring up the name-block-sharded ShardRouter (src/shard) behind the
///       serve::Frontend interface, with --shards S name-block shards
///       (default 1). With --stream, feed every paper of the stream TSV
///       through the service from N concurrent producers (assignments are
///       identical at any N and any S); with --name, look
///       the author up in the post-ingestion read view. --port P exposes
///       the network query/ingest API (src/api): a TCP listener speaking
///       newline-delimited JSON until SIGINT/SIGTERM; --stdio speaks the
///       same protocol over stdin/stdout until EOF (the CI-scriptable
///       transport). --save-snapshot-on-stop persists the post-ingestion
///       state (a snapshot) once the service drains — pair it with
///       --save-corpus, which writes the post-ingestion corpus TSV the new
///       snapshot fingerprints against, to make the state reloadable. This
///       is the demo shape of the long-running system: fit once, reload in
///       milliseconds, serve queries and keep ingesting, checkpoint on the
///       way down. Observability (src/obs): --metrics-port P exposes the
///       frontend's metrics registry as Prometheus-style text (0 =
///       ephemeral, port printed); --stats-interval S dumps the service
///       stats to stderr every S seconds; --slow-commit-ms M retains a
///       full span timeline for commits over M ms in the top-K exemplar
///       table (surfaced by GetStats and the stderr dump); --no-metrics
///       turns the timing instrumentation off. The flight recorder
///       (src/obs/trace.h) traces every paper through the pipeline:
///       --trace-out PATH writes the recorder's drain as Chrome
///       trace-event JSON (Perfetto-loadable) on shutdown and arms a
///       SIGSEGV/SIGABRT post-mortem dump to PATH.crash; --no-trace turns
///       recording off. Assignments are byte-identical with metrics and
///       tracing on or off, in any combination (DESIGN.md §7).
///       Durability (src/wal, DESIGN.md §9): --wal-dir DIR write-ahead-logs
///       every commit into DIR and recovers from it at startup — if DIR
///       holds a previous session's checkpoint and log tail, the serve
///       loads the checkpoint instead of the CLI corpus/snapshot pair and
///       replays the tail before accepting traffic, reproducing the
///       pre-crash assignments bit-for-bit. --wal-fsync-every N /
///       --wal-fsync-ms M tune the group-commit fsync cadence (1/0 =
///       strictest); --wal-checkpoint-every N compacts the log with a
///       checkpoint roughly every N commits (0 = only recover, never
///       compact).
///
/// Exit status: 0 on success, 1 on any error (message on stderr).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/pipeline.h"
#include "data/corpus_generator.h"
#include "eval/evaluator.h"
#include "graph/graph_io.h"
#include "io/snapshot.h"
#include "serve/frontend.h"
#include "shard/shard_router.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/tsv.h"
#include "wal/wal.h"

using namespace iuad;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "iuad: %s\n", msg.c_str());
  return 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  iuad generate <out.tsv> [--papers N] [--seed S]\n"
               "  iuad run <papers.tsv> [--eta N] [--delta X] [--threads T]\n"
               "           [--shards S] [--graph out_graph.tsv]"
               " [--clusters out.tsv]\n"
               "           [--save-snapshot out.snap]\n"
               "  iuad evaluate <papers.tsv> [--eta N] [--delta X]"
               " [--threads T] [--shards S]\n"
               "  iuad serve <papers.tsv> --load-snapshot in.snap"
               " [--stream new.tsv]\n"
               "           [--shards S] [--producers N] [--queue C]"
               " [--window W]\n"
               "           [--pipeline-depth D]"
               " [--name \"A. Name\"] [--port P | --stdio]"
               " [--workers W]\n"
               "           [--max-batch B]"
               " [--save-snapshot-on-stop out.snap]\n"
               "           [--save-corpus out.tsv]"
               " [--metrics-port P] [--stats-interval S]\n"
               "           [--slow-commit-ms M] [--no-metrics]\n"
               "           [--trace-out out.json] [--no-trace]\n"
               "           [--wal-dir DIR] [--wal-fsync-every N]"
               " [--wal-fsync-ms M]\n"
               "           [--wal-checkpoint-every N]\n"
               "(--threads 0 = all hardware threads; output is identical at"
               " any T.\n"
               " --shards on run/evaluate: word2vec training shards, 0 ="
               " auto by corpus\n"
               " size — part of the training schedule, so changing it"
               " changes embeddings;\n"
               " changing --threads never does. --shards on serve:"
               " name-block serving\n"
               " shards — ingestion assignments are identical at any shard"
               " or\n"
               " --producers count.)\n");
}

/// Tiny flag parser after the positional arguments: `--key value` pairs
/// plus valueless switches (`--stdio`) — a `--key` directly followed by
/// another `--flag` (or by nothing) maps to the empty string.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      flags[argv[i] + 2] = "";
    }
  }
  return flags;
}

int CmdGenerate(const std::string& out,
                const std::map<std::string, std::string>& flags) {
  data::CorpusConfig cfg;
  cfg.num_papers = 10000;
  if (auto it = flags.find("papers"); it != flags.end()) {
    cfg.num_papers = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("seed"); it != flags.end()) {
    cfg.seed = static_cast<uint64_t>(std::atoll(it->second.c_str()));
  }
  // Hold DBLP-like density at any requested scale (cf. bench_common.h).
  const int authors = std::max(400, cfg.num_papers / 5);
  cfg.num_communities = std::max(4, authors / cfg.authors_per_community);
  const double scale = static_cast<double>(authors) / 960.0;
  cfg.given_name_pool = static_cast<int>(180 * scale);
  cfg.surname_pool = static_cast<int>(140 * scale);
  cfg.name_zipf = 0.7;

  auto corpus = data::CorpusGenerator(cfg).Generate();
  iuad::Status st = corpus.db.SaveTsv(out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %d papers (%zu names, %zu ambiguous) to %s\n",
              corpus.db.num_papers(), corpus.db.names().size(),
              corpus.AmbiguousNames(2).size(), out.c_str());
  return 0;
}

core::IuadConfig ConfigFromFlags(
    const std::map<std::string, std::string>& flags) {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 24;
  if (auto it = flags.find("eta"); it != flags.end()) {
    cfg.eta = std::atoll(it->second.c_str());
  }
  if (auto it = flags.find("delta"); it != flags.end()) {
    cfg.delta = std::atof(it->second.c_str());
  }
  if (auto it = flags.find("threads"); it != flags.end()) {
    cfg.num_threads = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("shards"); it != flags.end()) {
    cfg.word2vec.num_shards = std::atoi(it->second.c_str());
  }
  return cfg;
}

int CmdRun(const std::string& in,
           const std::map<std::string, std::string>& flags) {
  auto db = data::PaperDatabase::LoadTsv(in);
  if (!db.ok()) return Fail(db.status().ToString());
  core::IuadConfig cfg = ConfigFromFlags(flags);
  if (auto it = flags.find("save-snapshot"); it != flags.end()) {
    // Through the config so Validate() vets it with everything else.
    cfg.persist_snapshot = true;
    cfg.snapshot_path = it->second;
  }
  core::IuadPipeline pipeline(cfg);
  iuad::Stopwatch sw;
  auto result = pipeline.Run(*db);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf(
      "reconstructed %d papers in %.1fs: %d author vertices, %d edges, "
      "%ld stable relations, %ld merges\n",
      db->num_papers(), sw.ElapsedSeconds(), result->graph.num_alive(),
      result->graph.num_edges(),
      static_cast<long>(result->scn_stats.num_scrs),
      static_cast<long>(result->gcn_stats.merges));

  if (cfg.persist_snapshot) {
    iuad::Status st = io::SaveSnapshot(cfg.snapshot_path, *db, *result, cfg);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote snapshot to %s (reload with: iuad serve %s "
                "--load-snapshot %s)\n",
                cfg.snapshot_path.c_str(), in.c_str(),
                cfg.snapshot_path.c_str());
  }
  if (auto it = flags.find("graph"); it != flags.end()) {
    iuad::Status st = graph::SaveGraphTsv(result->graph, it->second);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote network to %s\n", it->second.c_str());
  }
  if (auto it = flags.find("clusters"); it != flags.end()) {
    // One row per byline occurrence: paper id, name, author-vertex id.
    std::vector<TsvRow> rows;
    for (const auto& p : db->papers()) {
      for (const auto& name : p.author_names) {
        rows.push_back({std::to_string(p.id), name,
                        std::to_string(result->occurrences.Lookup(p.id, name))});
      }
    }
    iuad::Status st = WriteTsvFile(it->second, rows);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %zu occurrence attributions to %s\n", rows.size(),
                it->second.c_str());
  }
  return 0;
}

int CmdEvaluate(const std::string& in,
                const std::map<std::string, std::string>& flags) {
  auto db = data::PaperDatabase::LoadTsv(in);
  if (!db.ok()) return Fail(db.status().ToString());
  // Ambiguous names by ground truth.
  std::map<std::string, std::set<data::AuthorId>> authors_of;
  for (const auto& p : db->papers()) {
    for (size_t i = 0;
         i < p.author_names.size() && i < p.true_author_ids.size(); ++i) {
      if (p.true_author_ids[i] != data::kUnknownAuthor) {
        authors_of[p.author_names[i]].insert(p.true_author_ids[i]);
      }
    }
  }
  std::vector<std::string> names;
  for (const auto& [name, ids] : authors_of) {
    if (ids.size() >= 2 && db->PapersWithName(name).size() <= 120) {
      names.push_back(name);
    }
  }
  if (names.empty()) {
    return Fail("no ambiguous ground-truth names in " + in +
                " (did you generate with labels?)");
  }
  core::IuadPipeline pipeline(ConfigFromFlags(flags));
  auto result = pipeline.Run(*db);
  if (!result.ok()) return Fail(result.status().ToString());
  auto m = eval::EvaluateOccurrences(*db, result->occurrences, names);
  std::printf("%zu test names: %s\n", names.size(),
              eval::FormatMetrics(m).c_str());
  return 0;
}

/// The one stats printer for serve::ServiceStats, one line per shard
/// included.
/// Every key is spelled exactly as in the NDJSON stats payload
/// (api/codec.h), so a grep written against either surface works on both.
void PrintServiceStats(std::FILE* info, const serve::ServiceStats& stats) {
  std::fprintf(
      info,
      "service stats: epoch=%ld papers_applied=%ld assignments=%ld "
      "new_authors=%ld alive_vertices=%d edges=%d queued_now=%d "
      "reorder_held=%d queue_capacity=%d rss_mb=%.1f uptime_seconds=%.0f\n",
      static_cast<long>(stats.epoch), static_cast<long>(stats.papers_applied),
      static_cast<long>(stats.assignments),
      static_cast<long>(stats.new_authors), stats.num_alive_vertices,
      stats.num_edges, stats.queued_now, stats.reorder_held,
      stats.queue_capacity, stats.rss_mb, stats.uptime_seconds);
  std::fprintf(
      info,
      "  pipeline_depth=%d pipeline_windows=%ld pipeline_occupancy=%.2f "
      "conflict_stalls=%ld speculative_rescores=%ld\n",
      stats.pipeline_depth, static_cast<long>(stats.pipeline_windows),
      stats.pipeline_occupancy, static_cast<long>(stats.conflict_stalls),
      static_cast<long>(stats.speculative_rescores));
  // Durability line, present whenever the WAL has done anything (all zeros
  // and age -1 mean serving without --wal-dir). Keys match the NDJSON
  // stats payload exactly, like everything else here.
  if (stats.wal_appended > 0 || stats.wal_fsyncs > 0 ||
      stats.recovery_replayed > 0 || stats.wal_last_checkpoint_seq > 0 ||
      stats.wal_last_checkpoint_age_s >= 0.0) {
    std::fprintf(
        info,
        "  wal_appended=%ld wal_fsyncs=%ld wal_bytes=%ld "
        "recovery_replayed=%ld wal_last_checkpoint_seq=%ld "
        "wal_last_checkpoint_age_s=%.0f wal_fsync_wait_us_p99=%.0f\n",
        static_cast<long>(stats.wal_appended),
        static_cast<long>(stats.wal_fsyncs),
        static_cast<long>(stats.wal_bytes),
        static_cast<long>(stats.recovery_replayed),
        static_cast<long>(stats.wal_last_checkpoint_seq),
        stats.wal_last_checkpoint_age_s, stats.wal_fsync_wait_us_p99);
  }
  for (const obs::SlowCommitExemplar& e : stats.slow_commits) {
    std::fprintf(info, "  slow_commit seq=%ld total_ns=%ld",
                 static_cast<long>(e.seq), static_cast<long>(e.total_ns));
    for (const auto& stage : e.stages) {
      std::fprintf(info, " %s=%ldns", stage.name.c_str(),
                   static_cast<long>(stage.ns));
    }
    for (const auto& d : e.deferrals) {
      std::fprintf(info, " deferred:%s<-seq=%ld", d.name.c_str(),
                   static_cast<long>(d.blocked_by_seq));
    }
    std::fprintf(info, "\n");
  }
  for (const auto& s : stats.shards) {
    std::fprintf(
        info,
        "  shard=%d owned_blocks=%ld placement_weight=%ld "
        "bylines_scored=%ld assignments=%ld new_authors=%ld\n",
        s.shard, static_cast<long>(s.owned_blocks),
        static_cast<long>(s.placement_weight),
        static_cast<long>(s.bylines_scored), static_cast<long>(s.assignments),
        static_cast<long>(s.new_authors));
  }
}

/// --stats-interval worker: dumps the unified service stats (plus commit
/// latency percentiles once anything committed) to stderr every interval
/// until stopped — liveness for long-running serves with no scraper
/// attached. Reads only published views and the metrics registry, so it
/// never perturbs ingestion.
class StatsDumper {
 public:
  StatsDumper(serve::Frontend* service, double interval_s)
      : service_(service),
        interval_s_(interval_s),
        thread_([this] { Loop(); }) {}

  ~StatsDumper() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::duration<double>(interval_s_),
                       [&] { return stopping_; })) {
        return;
      }
      lock.unlock();
      Dump();
      lock.lock();
    }
  }

  void Dump() {
    PrintServiceStats(stderr, service_->Stats());
    const obs::RegistrySnapshot snap = service_->Metrics()->Snapshot();
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name != "commit_latency_us" || h.count == 0) continue;
      std::fprintf(stderr,
                   "  commit latency: n=%ld p50=%.0fus p90=%.0fus "
                   "p99=%.0fus max=%.0fus\n",
                   static_cast<long>(h.count), h.PercentileUs(50),
                   h.PercentileUs(90), h.PercentileUs(99), h.MaxUs());
    }
    std::fflush(stderr);
  }

  serve::Frontend* service_;
  const double interval_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

std::atomic<bool> g_interrupted{false};

void OnTerminateSignal(int) { g_interrupted = true; }

/// Runs the TCP API server until SIGINT/SIGTERM, then shuts it down
/// gracefully (drain, not drop).
int RunTcpServer(serve::Frontend& service, const core::IuadConfig& cfg) {
  api::ServerOptions options;
  options.port = cfg.api_port;
  options.num_workers = cfg.api_num_workers;
  options.max_batch = cfg.api_max_batch;
  options.metrics_enabled = cfg.metrics_enabled;
  options.trace_enabled = cfg.trace_enabled;
  api::Server server(&service, options);
  if (iuad::Status st = server.Start(); !st.ok()) return Fail(st.ToString());
  std::printf("query API listening on port %d (%d workers) — "
              "newline-delimited JSON; Ctrl-C to drain and stop\n",
              server.port(), util::ResolveNumThreads(cfg.api_num_workers));
  std::fflush(stdout);
  struct sigaction action {};
  action.sa_handler = OnTerminateSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // Block the shutdown signals while testing the flag: a signal landing
  // between the check and the wait would otherwise be consumed before
  // sigsuspend starts and the first Ctrl-C would hang until a second one.
  // sigsuspend atomically restores the old mask for the wait itself.
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGINT);
  sigaddset(&block, SIGTERM);
  sigprocmask(SIG_BLOCK, &block, &old);
  while (!g_interrupted) sigsuspend(&old);
  sigprocmask(SIG_SETMASK, &old, nullptr);
  std::printf("\ndraining and shutting down the query API\n");
  server.Shutdown();
  return 0;
}

/// The serve loop over the serve::Frontend interface: stream ingestion,
/// the networked/stdio query API, stats, lookup, stop, and the optional
/// shutdown checkpoint of the post-ingestion state.
/// `seq_base` is the first free ingestion sequence: 0 on a fresh serve,
/// the replayed-tail length after WAL recovery (replay occupied the
/// sequences below it, and --stream pins papers by sequence).
int DriveService(serve::Frontend& service, data::PaperDatabase* db,
                 core::DisambiguationResult* result,
                 const core::IuadConfig& cfg,
                 const std::map<std::string, std::string>& flags,
                 int producers, uint64_t seq_base) {
  // In stdio mode stdout carries protocol lines only; everything
  // informational goes to stderr so scripted clients see pure NDJSON.
  std::FILE* info = flags.count("stdio") > 0 ? stderr : stdout;

  // Observability side-doors, up before any ingestion so scrapes and dumps
  // cover the whole session. Both read the frontend's registry / published
  // views only — they cannot affect assignments (DESIGN.md §7).
  obs::MetricsServer metrics_server(service.Metrics());
  if (cfg.metrics_port >= 0) {
    if (iuad::Status st = metrics_server.Start(cfg.metrics_port); !st.ok()) {
      return Fail(st.ToString());
    }
    std::fprintf(info, "metrics exposition listening on port %d\n",
                 metrics_server.bound_port());
    std::fflush(info);
  }
  std::unique_ptr<StatsDumper> stats_dumper;
  if (cfg.stats_interval_s > 0.0) {
    stats_dumper = std::make_unique<StatsDumper>(&service,
                                                 cfg.stats_interval_s);
  }

  if (auto it = flags.find("stream"); it != flags.end()) {
    auto stream_db = data::PaperDatabase::LoadTsv(it->second);
    if (!stream_db.ok()) return Fail(stream_db.status().ToString());
    const std::vector<data::Paper> stream = stream_db->papers();
    std::vector<std::future<serve::Frontend::Assignments>> futures(
        stream.size());
    iuad::Stopwatch sw;
    // Producers race over a shared index; SubmitAt pins each paper to its
    // stream position, so the ingestion order (and thus every assignment)
    // is the stream order at any producer count.
    std::atomic<size_t> next{0};
    auto producer = [&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        futures[i] = service.SubmitAt(seq_base + i, stream[i]);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < producers; ++t) threads.emplace_back(producer);
    producer();
    for (auto& t : threads) t.join();
    service.Drain();
    const double seconds = sw.ElapsedSeconds();
    int64_t occurrences = 0, new_authors = 0, failed = 0;
    for (auto& f : futures) {
      auto r = f.get();
      if (!r.ok()) {
        ++failed;
        continue;
      }
      occurrences += static_cast<int64_t>(r->size());
      for (const auto& a : *r) new_authors += a.created_new ? 1 : 0;
    }
    std::fprintf(
        info,
        "ingested %zu papers (%ld occurrences, %ld new authors, %ld failed) "
        "from %d producers in %.2fs — %.1f papers/s, %.2f ms/paper\n",
        stream.size(), static_cast<long>(occurrences),
        static_cast<long>(new_authors), static_cast<long>(failed), producers,
        seconds, stream.empty() ? 0.0 : stream.size() / seconds,
        stream.empty() ? 0.0 : 1e3 * seconds / stream.size());
  }

  // The query/ingest API, over the same dispatcher for both transports.
  if (flags.count("stdio") > 0) {
    api::Dispatcher dispatcher(
        &service, api::Dispatcher::Options{cfg.api_max_batch, {},
                                           cfg.metrics_enabled,
                                           cfg.trace_enabled});
    dispatcher.ServeStream(std::cin, std::cout);
    service.Drain();  // every paper the session admitted is applied
  } else if (flags.count("port") > 0) {
    if (int rc = RunTcpServer(service, cfg); rc != 0) return rc;
  }

  if (stats_dumper) stats_dumper->Stop();
  metrics_server.Shutdown();

  PrintServiceStats(info, service.Stats());
  if (auto it = flags.find("name"); it != flags.end()) {
    const auto records = service.AuthorsByName(it->second);
    std::fprintf(info, "\"%s\": %zu author candidate(s)\n",
                 it->second.c_str(), records.size());
    for (const auto& rec : records) {
      const auto papers = service.PublicationsOf(rec.vertex);
      std::fprintf(info, "  vertex %d: %d papers (ids", rec.vertex,
                   rec.num_papers);
      for (size_t i = 0; i < papers.size() && i < 8; ++i) {
        std::fprintf(info, " %d", papers[i]);
      }
      std::fprintf(info, papers.size() > 8 ? " ...)\n" : ")\n");
    }
  }
  service.Stop();  // returns db/result ownership to this thread, drained

  if (!cfg.trace_out.empty()) {
    // Drained after Stop(), so the file covers the whole session up to the
    // ring capacity (overwrite-oldest; obs/trace.h).
    const std::vector<obs::TraceEvent> events =
        obs::FlightRecorder::Instance().Drain();
    const std::string json =
        obs::ChromeTraceJson(obs::ChromeTraceEvents(events));
    std::ofstream trace_file(cfg.trace_out,
                             std::ios::binary | std::ios::trunc);
    trace_file << json;
    if (!trace_file) {
      return Fail("failed to write trace to " + cfg.trace_out);
    }
    std::fprintf(info, "wrote trace (%zu events) to %s\n", events.size(),
                 cfg.trace_out.c_str());
  }

  if (auto it = flags.find("save-corpus"); it != flags.end()) {
    iuad::Status st = db->SaveTsv(it->second);
    if (!st.ok()) return Fail(st.ToString());
    std::fprintf(info, "wrote post-ingestion corpus (%d papers) to %s\n",
                 db->num_papers(), it->second.c_str());
  }
  if (auto it = flags.find("save-snapshot-on-stop"); it != flags.end()) {
    iuad::Status st = io::SaveSnapshot(it->second, *db, *result, cfg);
    if (!st.ok()) return Fail(st.ToString());
    std::fprintf(
        info,
        "wrote post-ingestion snapshot to %s (reload next to the "
        "post-ingestion corpus; see --save-corpus)\n",
        it->second.c_str());
  }
  return 0;
}

int CmdServe(const std::string& in,
             const std::map<std::string, std::string>& flags) {
  auto snap_it = flags.find("load-snapshot");
  if (snap_it == flags.end()) {
    return Fail("serve requires --load-snapshot <path>");
  }
  auto db = data::PaperDatabase::LoadTsv(in);
  if (!db.ok()) return Fail(db.status().ToString());

  // Durability: open (or initialize) the WAL directory BEFORE loading the
  // snapshot — a previous session's checkpoint redirects the load, and the
  // manifest's base fingerprint must be checked against the CLI corpus
  // either way (serving a WAL against the wrong corpus is refused, not
  // silently merged).
  std::unique_ptr<wal::Log> wal_log;
  wal::Options wal_opts;
  std::string wal_dir;
  if (auto it = flags.find("wal-dir"); it != flags.end() &&
                                       !it->second.empty()) {
    wal_dir = it->second;
    if (auto f = flags.find("wal-fsync-every"); f != flags.end()) {
      wal_opts.fsync_every_n = std::atoi(f->second.c_str());
    }
    if (auto f = flags.find("wal-fsync-ms"); f != flags.end()) {
      wal_opts.fsync_interval_ms = std::atof(f->second.c_str());
    }
    auto opened = wal::Log::Open(wal_dir, db->Fingerprint(), wal_opts);
    if (!opened.ok()) return Fail(opened.status().ToString());
    wal_log = std::move(*opened);
  }

  iuad::Stopwatch load_sw;
  std::string snap_path = snap_it->second;
  if (wal_log != nullptr && wal_log->has_checkpoint()) {
    // Recovery, step 1: the checkpoint pair supersedes the CLI corpus +
    // snapshot (it IS that state plus every compacted commit).
    auto ckpt_db =
        data::PaperDatabase::LoadTsv(wal_log->checkpoint_corpus_path());
    if (!ckpt_db.ok()) return Fail(ckpt_db.status().ToString());
    db = std::move(ckpt_db);
    snap_path = wal_log->checkpoint_snapshot_path();
  }
  auto snap = io::LoadSnapshot(snap_path, *db);
  if (!snap.ok()) return Fail(snap.status().ToString());
  core::IuadConfig cfg = std::move(snap->config);
  cfg.wal_dir = wal_dir;
  cfg.wal_fsync_every_n = wal_opts.fsync_every_n;
  cfg.wal_fsync_interval_ms = wal_opts.fsync_interval_ms;
  if (auto it = flags.find("wal-checkpoint-every"); it != flags.end()) {
    cfg.wal_checkpoint_every_n = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("queue"); it != flags.end()) {
    cfg.ingest_queue_capacity = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("window"); it != flags.end()) {
    cfg.ingest_refresh_window = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("shards"); it != flags.end()) {
    cfg.num_shards = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("pipeline-depth"); it != flags.end()) {
    cfg.pipeline_depth = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("port"); it != flags.end() && !it->second.empty()) {
    cfg.api_port = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("workers"); it != flags.end()) {
    cfg.api_num_workers = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("max-batch"); it != flags.end()) {
    cfg.api_max_batch = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("metrics-port");
      it != flags.end() && !it->second.empty()) {
    cfg.metrics_port = std::atoi(it->second.c_str());
  }
  if (auto it = flags.find("stats-interval"); it != flags.end()) {
    cfg.stats_interval_s = std::atof(it->second.c_str());
  }
  if (auto it = flags.find("slow-commit-ms"); it != flags.end()) {
    cfg.slow_commit_ms = std::atof(it->second.c_str());
  }
  if (flags.count("no-metrics") > 0) cfg.metrics_enabled = false;
  if (auto it = flags.find("trace-out");
      it != flags.end() && !it->second.empty()) {
    cfg.trace_out = it->second;
  }
  if (flags.count("no-trace") > 0) cfg.trace_enabled = false;
  if (iuad::Status st = cfg.Validate(); !st.ok()) return Fail(st.ToString());
  // Ring capacity must be set before anything touches the recorder
  // singleton; the crash handler is armed only when a dump path exists.
  obs::FlightRecorder::SetDefaultRingCapacity(cfg.trace_ring_capacity);
  if (!cfg.trace_out.empty()) {
    obs::InstallCrashHandler(cfg.trace_out + ".crash");
  }
  std::FILE* info = flags.count("stdio") > 0 ? stderr : stdout;
  std::fprintf(
      info,
      "loaded snapshot %s in %.0f ms: %d author vertices, %d edges, model %s\n",
      snap_it->second.c_str(), load_sw.ElapsedSeconds() * 1e3,
      snap->result.graph.num_alive(), snap->result.graph.num_edges(),
      snap->result.model ? "fitted" : "absent (SCN-only)");

  int producers = 1;
  if (auto it = flags.find("producers"); it != flags.end()) {
    producers = util::ResolveNumThreads(std::atoi(it->second.c_str()));
  }

  std::fprintf(info,
               "sharded serving: %d name-block shard(s) (%s placement), "
               "pipeline depth %d\n",
               cfg.num_shards,
               cfg.shard_placement == core::ShardPlacement::kHash
                   ? "hash"
                   : "size-aware",
               cfg.pipeline_depth);
  shard::ShardRouter service(&*db, &snap->result, cfg, wal_log.get());

  // Recovery, step 2: replay the durable log tail through the normal
  // submission path before any traffic — the recovered state is then
  // bit-identical to the pre-crash state (DESIGN.md §9).
  uint64_t seq_base = 0;
  if (wal_log != nullptr) {
    iuad::Stopwatch replay_sw;
    auto replayed = wal::ReplayTail(*wal_log, &service);
    if (!replayed.ok()) return Fail(replayed.status().ToString());
    seq_base = *replayed;
    if (wal_log->has_checkpoint() || *replayed > 0) {
      std::fprintf(info,
                   "WAL recovery: checkpoint seq=%llu + %llu replayed log "
                   "records in %.0f ms (next seq %llu)\n",
                   static_cast<unsigned long long>(wal_log->snapshot_seq()),
                   static_cast<unsigned long long>(*replayed),
                   replay_sw.ElapsedSeconds() * 1e3,
                   static_cast<unsigned long long>(wal_log->durable_next()));
    } else {
      std::fprintf(info, "WAL enabled at %s (fresh log)\n",
                   wal_dir.c_str());
    }
    std::fflush(info);
  }
  return DriveService(service, &*db, &snap->result, cfg, flags, producers,
                      seq_base);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  auto flags = ParseFlags(argc, argv, 3);
  if (cmd == "generate") return CmdGenerate(path, flags);
  if (cmd == "run") return CmdRun(path, flags);
  if (cmd == "evaluate") return CmdEvaluate(path, flags);
  if (cmd == "serve") return CmdServe(path, flags);
  Usage();
  return 1;
}
