/// End-to-end throughput of the networked query/ingest API (src/api):
/// fits the pipeline on a history corpus, brings the fitted state up on a
/// one-shard shard::ShardRouter behind api::Server (TCP, newline-delimited
/// JSON), then measures
///
///   ingest/s   one client connection streaming the held-out papers in
///              batches of --batch (Frontend::SubmitBatch under the
///              protocol), compared against direct Frontend::Submit calls
///              without the wire in between — the protocol tax;
///   queries/s  N concurrent client connections (default: nproc) issuing
///              query_authors lookups against the live service.
///
/// The ingest comparison is also a correctness check: the API session's
/// assignments must be byte-identical to the direct run's, or the bench
/// aborts rather than record a lying number. With `--json out.json` the
/// numbers land in BENCH_api.json (scripts/bench_api.sh; see the
/// BENCH_*.json convention in ROADMAP).
///
/// Flags: --papers P (corpus size), --stream S (held-out papers),
///        --batch B (papers per ingest request), --clients N, --json PATH.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/codec.h"
#include "api/server.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "shard/shard_router.h"
#include "util/json_writer.h"
#include "util/memory.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace iuad;

namespace {

/// Minimal blocking NDJSON client over one socket.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return ok_; }

  iuad::Result<api::Response> Call(const api::Request& request) {
    const std::string line = api::EncodeRequest(request) + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, 0);
      if (n <= 0) return iuad::Status::IoError("send failed");
      off += static_cast<size_t>(n);
    }
    // Buffered line framing: a byte-per-recv loop would spend thousands of
    // syscalls per multi-KB ingest response and the bench would measure
    // the client, not the server.
    size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return iuad::Status::IoError("recv failed");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string response_line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return api::DecodeResponse(response_line);
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buffer_;
};

std::string DigestOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string d;
  for (const auto& a : as) {
    d += a.name + ":" + std::to_string(a.vertex) +
         (a.created_new ? "+n" : "") + ";";
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  int papers = 6000;
  int stream_size = 400;
  int batch = 16;
  int clients = 0;  // 0 = hardware concurrency
  std::string json_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--papers") == 0) papers = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--stream") == 0) {
      stream_size = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--batch") == 0) batch = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--clients") == 0) {
      clients = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  clients = util::ResolveNumThreads(clients);

  bench::PrintHeader("bench_api",
                     "query/ingest API throughput (api::Server, Sec. V-E)");
  auto corpus = bench::BenchCorpus(2026, papers);
  auto [history, stream] = corpus.db.HoldOutLatest(stream_size);
  std::printf("corpus: %d papers history, %zu-paper stream, batch %d, "
              "%d query clients\n",
              history.num_papers(), stream.size(), batch, clients);

  core::IuadConfig cfg = bench::BenchIuadConfig();
  cfg.api_max_batch = batch;
  auto fitted = core::IuadPipeline(cfg).Run(history);
  if (!fitted.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }

  // Direct baseline: the same stream through Frontend::Submit, no wire.
  std::vector<std::string> direct_digests;
  double direct_seconds = 0.0;
  {
    data::PaperDatabase db = history;
    auto result = core::IuadPipeline(cfg).Run(db);
    if (!result.ok()) return 1;
    shard::ShardRouter service(&db, &*result, cfg);
    std::vector<std::future<serve::Frontend::Assignments>> futures;
    Stopwatch sw;
    for (const auto& paper : stream) futures.push_back(service.Submit(paper));
    service.Drain();
    direct_seconds = sw.ElapsedSeconds();
    for (auto& f : futures) {
      auto r = f.get();
      if (!r.ok()) {
        std::fprintf(stderr, "direct ingest failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      direct_digests.push_back(DigestOf(*r));
    }
  }

  // API run: a fresh fitted state served over TCP.
  data::PaperDatabase db = history;
  shard::ShardRouter service(&db, &*fitted, cfg);
  api::ServerOptions options;
  options.port = 0;
  options.num_workers = clients + 1;
  options.max_batch = batch;
  api::Server server(&service, options);
  if (iuad::Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::vector<std::string> api_digests;
  double ingest_seconds = 0.0;
  {
    Client ingest_client(server.port());
    if (!ingest_client.ok()) return 1;
    int64_t id = 0;
    Stopwatch sw;
    for (size_t i = 0; i < stream.size();
         i += static_cast<size_t>(batch)) {
      api::Request request;
      request.id = id++;
      request.op = api::Op::kIngest;
      for (size_t j = i;
           j < stream.size() && j < i + static_cast<size_t>(batch); ++j) {
        request.ingest.papers.push_back(stream[j]);
      }
      auto response = ingest_client.Call(request);
      if (!response.ok() || !response->status.ok()) {
        std::fprintf(stderr, "api ingest failed: %s\n",
                     (response.ok() ? response->status : response.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      for (const auto& per_paper : response->assignments) {
        api_digests.push_back(DigestOf(per_paper));
      }
    }
    ingest_seconds = sw.ElapsedSeconds();
  }

  const bool identical = api_digests == direct_digests;
  std::printf("assignments identical (api vs direct): %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");
  if (!identical) return 1;

  // Query phase: N concurrent connections hammering query_authors over the
  // names the corpus actually contains.
  std::vector<std::string> names;
  for (const auto& p : history.papers()) {
    for (const auto& n : p.author_names) {
      names.push_back(n);
      if (names.size() >= 512) break;
    }
    if (names.size() >= 512) break;
  }
  const int queries_per_client = 2000;
  std::atomic<int64_t> completed{0};
  std::atomic<bool> failed{false};
  Stopwatch query_sw;
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Client client(server.port());
      if (!client.ok()) {
        failed = true;
        return;
      }
      api::Request request;
      request.op = api::Op::kQueryAuthors;
      for (int q = 0; q < queries_per_client; ++q) {
        request.id = q;
        request.query_authors.name =
            names[static_cast<size_t>(q * (t + 1)) % names.size()];
        auto response = client.Call(request);
        if (!response.ok() || !response->status.ok()) {
          failed = true;
          return;
        }
        ++completed;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double query_seconds = query_sw.ElapsedSeconds();
  server.Shutdown();
  service.Stop();
  const size_t graph_bytes = fitted->graph.MemoryBytes();
  const int num_alive = fitted->graph.num_alive();
  const double bytes_per_author =
      num_alive > 0
          ? static_cast<double>(graph_bytes) / static_cast<double>(num_alive)
          : 0.0;
  if (failed.load()) {
    std::fprintf(stderr, "query phase failed\n");
    return 1;
  }

  const double ingest_direct_ps =
      direct_seconds > 0 ? stream.size() / direct_seconds : 0.0;
  const double ingest_api_ps =
      ingest_seconds > 0 ? stream.size() / ingest_seconds : 0.0;
  const double queries_ps =
      query_seconds > 0 ? completed.load() / query_seconds : 0.0;
  std::printf("ingest papers/s: direct %.1f | api (batch %d) %.1f\n",
              ingest_direct_ps, batch, ingest_api_ps);
  std::printf("queries/s: %.0f over %d connections (%ld queries)\n",
              queries_ps, clients, static_cast<long>(completed.load()));
  std::printf("memory: rss %.1f MiB, graph %.1f bytes/author (%d authors)\n",
              util::CurrentRssMb(), bytes_per_author, num_alive);

  if (!json_path.empty()) {
    util::JsonWriter json;
    json.Field("bench", "bench_api")
        .Field("papers_history", history.num_papers())
        .Field("stream", static_cast<int>(stream.size()))
        .Field("batch", batch)
        .Field("query_clients", clients)
        .Field("identical_assignments", identical);
    json.BeginObject("ingest_papers_per_s")
        .Field("direct_frontend", ingest_direct_ps, 1)
        .Field("api_tcp", ingest_api_ps, 1)
        .EndObject();
    json.BeginObject("queries_per_s")
        .Field("query_authors", queries_ps, 1)
        .EndObject();
    json.BeginObject("memory")
        .Field("rss_mb", util::CurrentRssMb(), 1)
        .Field("graph_bytes", static_cast<int64_t>(graph_bytes))
        .Field("num_alive_authors", num_alive)
        .Field("bytes_per_author", bytes_per_author, 1)
        .EndObject();
    iuad::Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
