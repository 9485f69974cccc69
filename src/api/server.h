#ifndef IUAD_API_SERVER_H_
#define IUAD_API_SERVER_H_

/// \file server.h
/// Networked transport of the query/ingest protocol: a multi-threaded TCP
/// listener speaking newline-delimited JSON (codec.h), one line per
/// request, responses in request order per connection. A stdio transport
/// (Dispatcher::ServeStream) shares the exact same dispatch path, so CI
/// can drive a scripted session through `iuad serve --stdio` without
/// sockets.
///
/// Shape:
///  * One acceptor thread and api_num_workers connection workers. Each
///    worker serves one connection at a time; up to `2 * workers` accepted
///    connections may wait in a bounded hand-off queue, and connections
///    beyond that are answered with one ResourceExhausted line and closed
///    (protocol-level backpressure — a stalled fleet of clients can't
///    accumulate unbounded server state).
///  * Graceful drain on Shutdown(): the listener closes first (no new
///    connections), live connections finish their in-flight request and
///    are then shut down, workers join, and the frontend is drained so
///    every admitted paper is applied and published before Shutdown()
///    returns. Idempotent; the destructor calls it.
///  * Ingest backpressure inside a session is the Dispatcher's
///    (RESOURCE_EXHAUSTED responses; see dispatcher.h).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatcher.h"
#include "serve/frontend.h"
#include "util/status.h"

namespace iuad::api {

struct ServerOptions {
  /// TCP port to bind on localhost-any (INADDR_ANY); 0 = ephemeral, read
  /// the result from port().
  int port = 0;
  /// Connection worker count; 0 = hardware concurrency.
  int num_workers = 0;
  /// Dispatcher limits (see Dispatcher::Options).
  int max_batch = 64;
  WireLimits limits;
  /// Gates request-path stage histograms (Dispatcher::Options);
  /// connection/byte counters stay live regardless.
  bool metrics_enabled = true;
  /// Gates per-request flight-recorder events (Dispatcher::Options).
  bool trace_enabled = true;
};

class Server {
 public:
  /// `frontend` is caller-owned and must outlive the server.
  Server(serve::Frontend* frontend, ServerOptions options);
  ~Server();  ///< Shutdown().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor + worker threads. IoError on
  /// bind/listen failure (e.g. the port is taken).
  iuad::Status Start();

  /// The actually bound TCP port (differs from options.port when that was
  /// 0). Only meaningful after a successful Start().
  int port() const { return bound_port_; }

  /// Graceful drain: stop accepting, finish in-flight requests, close
  /// connections, join threads, drain the frontend. Idempotent.
  void Shutdown();

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  serve::Frontend* frontend_;
  ServerOptions options_;
  Dispatcher dispatcher_;

  // Transport instruments (frontend registry): connection churn and raw
  // byte traffic, which the dispatcher (one line at a time) cannot see.
  obs::Counter* ctr_connections_accepted_;
  obs::Counter* ctr_connections_turned_away_;
  obs::Counter* ctr_bytes_in_;
  obs::Counter* ctr_bytes_out_;
  obs::Gauge* gauge_connections_active_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  struct State;  // queue + live-connection tracking, hidden from the header
  std::unique_ptr<State> state_;
};

}  // namespace iuad::api

#endif  // IUAD_API_SERVER_H_
