/// `serve_mixed`: writes beside reads over TCP, all open loop. api::Server
/// on a ShardRouter at nproc shards, with the WAL on, serves a fitted
/// history reloaded from its snapshot, one session per corpus. One
/// connection sends
/// single-paper ingest requests at kIngestPerSecond; kQueryConnections
/// connections send query_authors / query_publications requests at
/// kQueryPerSecond each, names drawn by a seeded Zipf over the bylines.
/// Every request is timed from when it was due. This is the workload of
/// the frontend read views, publish, the api codec and TCP, and the WAL,
/// all in CPU contention with the router; ingestion runs well below
/// capacity, so refresh and scatter carry little of its time. The traced
/// run also sends the same papers through a closed loop (closed_loop.cpp)
/// to show the router at capacity.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <netinet/in.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/codec.h"
#include "api/server.h"
#include "common.h"
#include "eval/evaluator.h"
#include "io/snapshot.h"
#include "measure.h"
#include "shard/shard_router.h"
#include "util/rng.h"
#include "wal/wal.h"

namespace iuad::perfbench {
namespace {

/// Corpora per run, one open-loop session each.
constexpr int kCorpora = 3;
constexpr int kHistoryPapers = 12000;
/// Offered rates, fixed (recorded in BENCHMARK.json's workload line): the
/// ingest rate is about 30% of what the router sustains in a closed loop
/// (shard.closed_loop_papers_per_s), so the server has headroom and a
/// backlog would mean a regression.
constexpr double kIngestPerSecond = 100.0;
constexpr double kQueryPerSecond = 200.0;
constexpr int kQueryConnections = 2;
/// Zipf exponent of the queried names over their byline-frequency ranks.
constexpr double kQueryZipf = 1.0;
/// How long after the last due time replies are still awaited.
constexpr double kReplyGraceSeconds = 30.0;

/// NDJSON client over one loopback TCP connection: blocking sends,
/// deadline-bounded receives into a line buffer.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0;
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return ok_; }

  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Waits for input until `deadline_ns` and buffers whatever arrived.
  /// False once the peer closed or the socket failed.
  bool Receive(int64_t deadline_ns) {
    const int64_t wait_ns = std::max<int64_t>(0, deadline_ns - NowNs());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) return errno == EINTR || errno == EAGAIN;
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool NextLine(std::string* line) {
    const size_t nl = buffer_.find('\n');
    if (nl == std::string::npos) return false;
    line->assign(buffer_, 0, nl);
    buffer_.erase(0, nl + 1);
    return true;
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buffer_;
};

/// One connection's open-loop stream: request i is due at
/// DueNs(start, i, rate) and sent then (or as soon after as the generator
/// can), and replies arrive in request order.
struct LoopResult {
  std::vector<int64_t> due_ns;
  std::vector<int64_t> sent_ns;
  std::vector<int64_t> done_ns;  ///< 0 when no reply came.
  std::vector<char> ok;          ///< Reply decoded with an OK status.
  /// Ingest replies: AssignmentDigest of the one paper's assignments.
  std::vector<uint64_t> digests;
  int backlog_max = 0;
};

void RunOpenLoop(int port, const std::vector<api::Request>& plan, double rate,
                 int64_t start_ns, int64_t deadline_ns,
                 const serve::Frontend* sampled, SpanLog* log,
                 LoopResult* out) {
  const size_t n = plan.size();
  out->due_ns.resize(n);
  out->sent_ns.assign(n, 0);
  out->done_ns.assign(n, 0);
  out->ok.assign(n, 0);
  out->digests.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    out->due_ns[i] = DueNs(start_ns, static_cast<int64_t>(i), rate);
  }
  Connection conn(port);
  if (!conn.ok()) return;
  size_t sent = 0;
  size_t received = 0;
  std::string line;
  while (received < n) {
    const int64_t now = NowNs();
    if (sent < n && now >= out->due_ns[sent]) {
      const int64_t encode_start = log != nullptr ? NowNs() : 0;
      const std::string encoded = api::EncodeRequest(plan[sent]);
      if (log != nullptr) {
        log->Add("api.client_encode", encode_start, NowNs(),
                 static_cast<int64_t>(sent));
      }
      if (!conn.Send(encoded)) break;
      out->sent_ns[sent] = NowNs();
      ++sent;
      if (sampled != nullptr) {
        out->backlog_max = std::max(out->backlog_max, sampled->Stats().queued_now);
      }
      continue;
    }
    if (now >= deadline_ns) break;
    const int64_t wake =
        sent < n ? std::min(out->due_ns[sent], deadline_ns) : deadline_ns;
    if (!conn.Receive(wake)) break;
    const int64_t arrived = NowNs();
    while (received < sent && conn.NextLine(&line)) {
      out->done_ns[received] = arrived;
      const int64_t decode_start = log != nullptr ? NowNs() : 0;
      auto response = api::DecodeResponse(line);
      if (log != nullptr) {
        log->Add("api.client_decode", decode_start, NowNs(),
                 static_cast<int64_t>(received));
      }
      if (response.ok() && response->status.ok() &&
          response->id == plan[received].id) {
        out->ok[received] = 1;
        if (response->op == api::Op::kIngest &&
            response->assignments.size() == 1) {
          out->digests[received] = AssignmentDigest(response->assignments[0]);
        }
      }
      ++received;
    }
  }
}

/// Names of the history's bylines, most frequent first (ties by name).
std::vector<std::string> NamesByFrequency(const data::PaperDatabase& db) {
  std::unordered_map<std::string, int64_t> count;
  for (const auto& p : db.papers()) {
    for (const auto& name : p.author_names) ++count[name];
  }
  std::vector<std::pair<int64_t, std::string>> ranked;
  ranked.reserve(count.size());
  for (auto& [name, c] : count) ranked.emplace_back(-c, name);
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& r : ranked) out.push_back(std::move(r.second));
  return out;
}

std::vector<api::Request> QueryPlan(const FittedSetup& setup,
                                    const std::vector<std::string>& ranked,
                                    uint64_t seed, int connection,
                                    size_t count) {
  iuad::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(connection));
  const iuad::ZipfSampler zipf(static_cast<int>(ranked.size()), kQueryZipf);
  std::vector<api::Request> plan(count);
  for (size_t i = 0; i < count; ++i) {
    api::Request& r = plan[i];
    r.id = static_cast<int64_t>(i);
    const std::string& name = ranked[static_cast<size_t>(zipf.Sample(&rng))];
    const auto& vertices = setup.fitted.graph.VerticesWithName(name);
    if (rng.UniformDouble() < 0.5 || vertices.empty()) {
      r.op = api::Op::kQueryAuthors;
      r.query_authors.name = name;
    } else {
      r.op = api::Op::kQueryPublications;
      r.query_publications.vertex =
          vertices[static_cast<size_t>(rng.NextBounded(vertices.size()))];
    }
  }
  return plan;
}

/// A served state: reloaded snapshot, fresh WAL, router, TCP server.
/// Members are declared so they are destroyed server first, WAL last.
struct Served {
  data::PaperDatabase db;
  io::Snapshot snap;
  std::unique_ptr<wal::Log> wal;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<api::Server> server;
};

struct BringUpTimes {
  double load_s = 0.0;
  double wal_open_s = 0.0;
  double start_s = 0.0;
  double total() const { return load_s + wal_open_s + start_s; }
};

bool BringUp(const FittedSetup& setup, const std::string& wal_dir,
             Served* s, BringUpTimes* times, std::string* why) {
  int64_t t = NowNs();
  auto lap = [&t] {
    const int64_t now = NowNs();
    const double sec = static_cast<double>(now - t) / 1e9;
    t = now;
    return sec;
  };
  s->db = setup.history;
  auto snap = io::LoadSnapshot(setup.snapshot_path, s->db);
  if (!snap.ok()) {
    *why = "snapshot load failed: " + snap.status().ToString();
    return false;
  }
  s->snap = std::move(*snap);
  times->load_s = lap();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  auto log = wal::Log::Open(wal_dir, s->db.Fingerprint(), wal::Options{});
  if (!log.ok()) {
    *why = "WAL open failed: " + log.status().ToString();
    return false;
  }
  s->wal = std::move(*log);
  times->wal_open_s = lap();
  core::IuadConfig cfg = s->snap.config;
  cfg.num_shards = Nproc();
  cfg.wal_dir = wal_dir;
  s->router = std::make_unique<shard::ShardRouter>(&s->db, &s->snap.result,
                                                   cfg, s->wal.get());
  api::ServerOptions options;
  options.port = 0;
  options.num_workers = cfg.api_num_workers;
  options.max_batch = cfg.api_max_batch;
  options.metrics_enabled = cfg.metrics_enabled;
  options.trace_enabled = cfg.trace_enabled;
  s->server = std::make_unique<api::Server>(s->router.get(), options);
  iuad::Status st = s->server->Start();
  if (!st.ok()) {
    *why = "server start failed: " + st.ToString();
    return false;
  }
  times->start_s = lap();
  return true;
}

/// One corpus's open-loop session: its setup and request plans.
struct Session {
  FittedSetup setup;
  std::vector<api::Request> ingest_plan;
  std::vector<std::vector<api::Request>> query_plans;
};

/// Everything the sessions of one phase measured, pooled.
struct ServePhase {
  std::vector<double> ingest_ms;
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  /// Per session: the digest of each ingest reply, and how many failed.
  std::vector<std::vector<uint64_t>> ingest_digests;
  std::vector<int64_t> ingest_failed;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ingested = 0;
  double ingest_span_s = 0.0;  ///< First due time to last ingest reply.
  int backlog_max = 0;
  std::vector<eval::PairCounts> pairs;
  std::vector<serve::ServiceStats> stats;
  std::vector<obs::RegistrySnapshot> registries;
};

/// Latency of each request from its due time; a request without an OK
/// reply is a failure and enters as +inf. Returns the failures.
int64_t Collect(const LoopResult& r, std::vector<double>* latencies,
                ServePhase* phase) {
  int64_t failed = 0;
  for (size_t i = 0; i < r.due_ns.size(); ++i) {
    ++phase->attempted;
    if (r.sent_ns[i] > 0) {
      phase->late_ms.push_back(
          static_cast<double>(LatenessNs(r.due_ns[i], r.sent_ns[i])) / 1e6);
    }
    if (r.ok[i] == 0) {
      ++failed;
      latencies->push_back(kFailedSample);
    } else {
      latencies->push_back(LatencyFromDueMs(r.due_ns[i], r.done_ns[i]));
    }
  }
  phase->failed += failed;
  return failed;
}

/// Brings up a fresh server on the session's corpus, runs its open loop
/// and shuts the server down. With logs (main, ingest, query...), the
/// generator's codec calls and every request become spans.
bool MeasureSession(const Session& session, const std::string& wal_dir,
                    double seconds, std::vector<std::unique_ptr<SpanLog>>* logs,
                    ServePhase* phase, std::string* why) {
  Served s;
  BringUpTimes ignored;
  if (!BringUp(session.setup, wal_dir, &s, &ignored, why)) return false;
  const int port = s.server->port();
  // A short lead lets every generator thread connect before its first due
  // time.
  const int64_t start = NowNs() + 100'000'000;
  const int64_t deadline =
      start + static_cast<int64_t>((seconds + kReplyGraceSeconds) * 1e9);
  auto log_of = [&](size_t k) {
    return logs != nullptr ? (*logs)[k].get() : nullptr;
  };
  LoopResult ingest;
  std::vector<LoopResult> queries(session.query_plans.size());
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    RunOpenLoop(port, session.ingest_plan, kIngestPerSecond, start, deadline,
                s.router.get(), log_of(1), &ingest);
  });
  for (size_t k = 0; k < session.query_plans.size(); ++k) {
    threads.emplace_back([&, k] {
      RunOpenLoop(port, session.query_plans[k], kQueryPerSecond, start,
                  deadline, nullptr, log_of(2 + k), &queries[k]);
    });
  }
  for (auto& t : threads) t.join();
  s.server->Shutdown();
  phase->stats.push_back(s.router->Stats());
  phase->registries.push_back(s.router->Metrics()->Snapshot());
  s.router->Stop();

  phase->ingest_failed.push_back(Collect(ingest, &phase->ingest_ms, phase));
  for (const auto& q : queries) Collect(q, &phase->query_ms, phase);
  phase->ingest_digests.push_back(ingest.digests);
  phase->backlog_max = std::max(phase->backlog_max, ingest.backlog_max);
  int64_t last_done = start;
  for (size_t i = 0; i < ingest.done_ns.size(); ++i) {
    if (ingest.ok[i] == 0) continue;
    ++phase->ingested;
    last_done = std::max(last_done, ingest.done_ns[i]);
  }
  phase->ingest_span_s += static_cast<double>(last_done - start) / 1e9;
  eval::PairCounts counts;
  eval::EvaluateOccurrences(s.db, s.snap.result.occurrences,
                            session.setup.test_names, &counts);
  phase->pairs.push_back(counts);
  if (logs != nullptr) {
    // Request spans, from due time to reply, built after the run.
    auto add_requests = [](const LoopResult& r, const char* name,
                           SpanLog* log) {
      for (size_t i = 0; i < r.due_ns.size(); ++i) {
        if (r.done_ns[i] > 0) {
          log->Add(name, r.due_ns[i], r.done_ns[i], static_cast<int64_t>(i));
        }
      }
    };
    add_requests(ingest, "serve.ingest", log_of(1));
    for (size_t k = 0; k < queries.size(); ++k) {
      add_requests(queries[k], "serve.query", log_of(2 + k));
    }
  }
  return true;
}

/// Every session of a phase, then (outside the timed region) the oracle:
/// sequential AddPaper over each session's papers, whose digests the
/// served ingest replies must equal, score bits included. Returns the
/// oracle's seconds through `sequential_s`.
bool MeasurePhase(const std::vector<Session>& sessions,
                  const std::string& wal_dir, double session_seconds,
                  std::vector<std::unique_ptr<SpanLog>>* logs,
                  ServePhase* phase, double* sequential_s, int64_t* bylines,
                  int64_t* candidates, Outcome* out) {
  std::string why;
  for (const Session& session : sessions) {
    if (!MeasureSession(session, wal_dir, session_seconds, logs, phase,
                        &why)) {
      out->Fail(why);
      return false;
    }
  }
  out->attempted += phase->attempted;
  out->failed += phase->failed;
  for (size_t k = 0; k < sessions.size(); ++k) {
    SequentialLane lane;
    if (!lane.Open(sessions[k].setup, &why)) {
      out->Fail(why);
      return false;
    }
    *sequential_s += lane.Ingest(sessions[k].ingest_plan.size(),
                                 logs != nullptr ? (*logs)[0].get() : nullptr);
    *bylines += lane.bylines();
    *candidates += lane.candidates();
    if (lane.failed() > 0) {
      out->Fail(std::to_string(lane.failed()) + " sequential papers failed");
      return false;
    }
    if (phase->ingest_failed[k] > 0) {
      // A refused paper shifts every later sequence, so the per-paper
      // oracle no longer lines up; failed_ops already counts the refusals.
      std::fprintf(stderr,
                   "perfbench: %lld ingest requests failed; oracle skipped\n",
                   static_cast<long long>(phase->ingest_failed[k]));
      continue;
    }
    const int64_t mismatches =
        CountMismatches(phase->ingest_digests[k], lane.digests());
    if (mismatches > 0) {
      out->Fail(std::to_string(mismatches) + " of " +
                std::to_string(lane.digests().size()) +
                " served assignments differ from sequential AddPaper");
      return false;
    }
  }
  return true;
}

std::vector<double> AllLatencies(const ServePhase& phase) {
  std::vector<double> all = phase.ingest_ms;
  all.insert(all.end(), phase.query_ms.begin(), phase.query_ms.end());
  return all;
}

}  // namespace

Outcome RunServeMixed(const Args& args) {
  Outcome out;
  // The run's --seconds are split evenly between one session per corpus.
  const double session_seconds = args.seconds / kCorpora;
  const size_t ingest_count =
      static_cast<size_t>(std::ceil(kIngestPerSecond * session_seconds));
  const size_t query_count =
      static_cast<size_t>(std::ceil(kQueryPerSecond * session_seconds));
  std::vector<Session> sessions(kCorpora);
  std::vector<double> total_s, generate_s, save_s, load_s, wal_open_s;
  for (int k = 0; k < kCorpora; ++k) {
    Session& session = sessions[static_cast<size_t>(k)];
    SetupTimes t;
    BringUpTimes b;
    std::string why;
    if (!BuildFittedSetup(SubSeed(args.seed, k), kHistoryPapers,
                          static_cast<int>(ingest_count),
                          args.work_dir + "/serve" + std::to_string(k) +
                              ".snapshot",
                          &session.setup, &t, &why)) {
      out.Fail(why);
      return out;
    }
    {
      Served s;
      if (!BringUp(session.setup, args.work_dir + "/wal-setup", &s, &b,
                   &why)) {
        out.Fail(why);
        return out;
      }
    }
    total_s.push_back(t.total() + b.total());
    generate_s.push_back(t.generate_s);
    save_s.push_back(t.save_s);
    load_s.push_back(t.load_s);
    wal_open_s.push_back(b.wal_open_s);
    session.ingest_plan.resize(ingest_count);
    for (size_t i = 0; i < ingest_count; ++i) {
      api::Request& r = session.ingest_plan[i];
      r.id = static_cast<int64_t>(i);
      r.op = api::Op::kIngest;
      r.ingest.papers = {session.setup.stream[i]};
    }
    const std::vector<std::string> ranked =
        NamesByFrequency(session.setup.history);
    for (int c = 0; c < kQueryConnections; ++c) {
      session.query_plans.push_back(
          QueryPlan(session.setup, ranked, SubSeed(args.seed, k), c,
                    query_count));
    }
  }

  ServePhase plain;
  double sequential_s = 0.0;
  int64_t bylines = 0;
  int64_t candidates = 0;
  if (!MeasurePhase(sessions, args.work_dir + "/wal", session_seconds,
                    nullptr, &plain, &sequential_s, &bylines, &candidates,
                    &out)) {
    return out;
  }
  const std::vector<double> all_ms = AllLatencies(plain);
  auto& m = out.metrics;
  m["setup_s"] = Median(total_s);
  m["pairwise_f1"] = PooledF1(plain.pairs);
  m["papers_per_s"] = static_cast<double>(plain.ingested) / plain.ingest_span_s;
  m["core.sequential_papers_per_s"] =
      static_cast<double>(ingest_count * sessions.size()) / sequential_s;
  m["latency_ms_p50"] = Percentile(all_ms, 50);
  m["latency_ms_p99"] = Percentile(all_ms, 99);
  m["bench.latency_samples"] = static_cast<double>(all_ms.size());
  if (!args.trace) return out;

  // Logs: oracle and closed-loop collector, ingest connection, query
  // connections, closed-loop producer.
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (int k = 0; k < 3 + kQueryConnections; ++k) {
    logs.push_back(std::make_unique<SpanLog>(k + 1));
  }
  const int64_t trace_origin = NowNs();
  ServePhase traced;
  double traced_sequential_s = 0.0;
  bylines = 0;
  candidates = 0;
  if (!MeasurePhase(sessions, args.work_dir + "/wal", session_seconds, &logs,
                    &traced, &traced_sequential_s, &bylines, &candidates,
                    &out)) {
    return out;
  }
  // The router at capacity: each session's papers again, closed loop, with
  // the served replies (already equal to the oracle) as the reference.
  std::vector<serve::ServiceStats> loop_stats;
  std::vector<obs::RegistrySnapshot> loop_registries;
  std::vector<double> gaps_ms;
  double loop_s = 0.0;
  std::string why;
  for (size_t k = 0; k < sessions.size(); ++k) {
    RouterPass pass;
    if (!RunRouterPass(sessions[k].setup, ingest_count, &gaps_ms,
                       logs[0].get(), logs.back().get(), &pass, &why)) {
      out.Fail(why);
      return out;
    }
    out.attempted += static_cast<int64_t>(ingest_count);
    out.failed += pass.failed;
    loop_s += pass.seconds;
    loop_stats.push_back(pass.stats);
    loop_registries.push_back(std::move(pass.registry));
    const int64_t mismatches =
        CountMismatches(pass.digests, traced.ingest_digests[k]);
    if (traced.ingest_failed[k] == 0 && mismatches > 0) {
      out.Fail(std::to_string(mismatches) +
               " closed-loop router assignments differ from the served ones");
      return out;
    }
  }
  std::vector<const SpanLog*> views;
  for (const auto& l : logs) views.push_back(l.get());
  m["shard.closed_loop_papers_per_s"] =
      static_cast<double>(ingest_count * sessions.size()) / loop_s;
  AddShardLayerMetrics(loop_stats, loop_registries, &m);
  m["shard.submit_us_p99"] =
      Percentile(SpanSeconds(views, "shard.submit"), 99) * 1e6;
  m["shard.commit_ms_p50"] = Percentile(gaps_ms, 50);
  m["shard.commit_ms_p99"] = Percentile(gaps_ms, 99);
  m["data.generate_s"] = Median(generate_s);
  m["io.snapshot_save_s"] = Median(save_s);
  m["io.snapshot_load_s"] = Median(load_s);
  m["wal.open_s"] = Median(wal_open_s);
  AddSequentialLayerMetrics({views[0]}, bylines, candidates, &m);
  m["api.client_encode_us_p50"] =
      Percentile(SpanSeconds(views, "api.client_encode"), 50) * 1e6;
  m["api.client_decode_us_p50"] =
      Percentile(SpanSeconds(views, "api.client_decode"), 50) * 1e6;
  m["api.decode_s"] =
      static_cast<double>(MergedHistogram(traced.registries, "decode_us").sum_ns) /
      1e9;
  m["api.encode_s"] =
      static_cast<double>(MergedHistogram(traced.registries, "encode_us").sum_ns) /
      1e9;
  m["api.request_us_query_authors_p99"] =
      MergedHistogram(traced.registries, "request_us_query_authors")
          .PercentileUs(99);
  m["api.request_us_ingest_p50"] =
      MergedHistogram(traced.registries, "request_us_ingest").PercentileUs(50);
  m["api.bytes_out"] =
      static_cast<double>(CounterTotal(traced.registries, "bytes_out"));
  m["wal.fsync_wait_us_p99"] =
      MergedHistogram(traced.registries, "wal_fsync_wait_us").PercentileUs(99);
  const int64_t fsyncs = CounterTotal(traced.registries, "wal_fsyncs");
  m["wal.records_per_fsync"] =
      fsyncs > 0 ? static_cast<double>(
                       CounterTotal(traced.registries, "wal_appended")) /
                       static_cast<double>(fsyncs)
                 : 0.0;
  m["serve.backlog_max"] = traced.backlog_max;
  m["serve.ingest_latency_ms_p50"] = Percentile(traced.ingest_ms, 50);
  m["serve.ingest_latency_ms_p99"] = Percentile(traced.ingest_ms, 99);
  m["serve.query_latency_ms_p50"] = Percentile(traced.query_ms, 50);
  m["serve.query_latency_ms_p99"] = Percentile(traced.query_ms, 99);
  m["bench.generator_late_ms_p99"] = Percentile(traced.late_ms, 99);
  m["bench.trace_overhead_pct"] =
      (Percentile(AllLatencies(traced), 50) / Percentile(all_ms, 50) - 1.0) *
      100.0;
  out.trace_json = ChromeTraceJson(views, trace_origin);
  return out;
}

}  // namespace iuad::perfbench
