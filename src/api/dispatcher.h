#ifndef IUAD_API_DISPATCHER_H_
#define IUAD_API_DISPATCHER_H_

/// \file dispatcher.h
/// Executes typed protocol requests against any serve::Frontend — the one
/// piece of request logic every transport shares. The TCP server, the
/// stdio mode, tests, and benchmarks all funnel through Dispatcher, so a
/// scripted NDJSON session and direct Frontend::Submit calls produce
/// byte-identical assignments (pinned by tests/api_test.cpp).
///
/// Semantics:
///  * Execute() is synchronous: ingest requests wait for their papers'
///    futures, so the response carries the final assignments and responses
///    go back in request order — which is what makes a single-connection
///    session equivalent to sequential submission.
///  * Backpressure is protocol-level, not TCP-level: a batch larger than
///    api_max_batch, or an ingest arriving while the frontend's bounded
///    queue is full (live queued_now at capacity, i.e. other connections
///    already saturate the applier), is answered with ResourceExhausted
///    instead of blocking the connection indefinitely. Clients retry;
///    admission inside an accepted batch still blocks briefly as its own
///    papers drain.
///  * A batch is all-or-nothing at admission but not at application: if a
///    paper fails mid-batch (e.g. the fitted model is absent), the
///    response is that paper's error and the batch's other papers may
///    still have been applied — exactly the sequential-AddPaper behavior.

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frontend.h"

namespace iuad::api {

class Dispatcher {
 public:
  struct Options {
    /// Largest paper batch one ingest request may carry
    /// (core::IuadConfig::api_max_batch).
    int max_batch = 64;
    /// Wire-decoding limits for untrusted transports.
    WireLimits limits;
    /// Request-path stage histograms (decode_us / request_us_<op> /
    /// encode_us) record only with this on; request counters stay live
    /// regardless (core::IuadConfig::metrics_enabled).
    bool metrics_enabled = true;
    /// Per-request flight-recorder events ("request" spans in the drained
    /// trace) are stored only with this on (core::IuadConfig::
    /// trace_enabled). The trace op itself always answers — with an empty
    /// drain when recording is off. Both flags build one obs::StageClock,
    /// which reads the clock when either is on.
    bool trace_enabled = true;
  };

  /// `frontend` is caller-owned and must outlive the dispatcher. All
  /// instruments live in the frontend's registry, so every transport
  /// stacked on one frontend records into one scrape surface.
  Dispatcher(serve::Frontend* frontend, Options options);

  /// Executes one typed request. Never throws; failures come back as the
  /// response's status.
  Response Execute(const Request& request);

  /// Decodes one wire line, executes it, encodes the response line
  /// (without trailing newline). Undecodable input yields an encoded
  /// error response with id -1 — the transport always has one line to
  /// send back per line received.
  std::string HandleLine(const std::string& line);

  /// NDJSON session loop: one request per input line, one response per
  /// output line (flushed), until EOF. Blank lines are ignored. This is
  /// the stdio transport (`iuad serve --stdio`) and the test harness.
  void ServeStream(std::istream& in, std::ostream& out);

 private:
  serve::Frontend* frontend_;
  Options options_;

  // Request-path instruments (frontend registry; see obs/metrics.h),
  // stamped through clock_ (obs::StageClock: the one clock-read policy).
  const obs::StageClock clock_;
  obs::Counter* ctr_requests_;
  obs::Counter* ctr_request_errors_;
  obs::Histogram* hist_decode_us_;
  obs::Histogram* hist_encode_us_;
  std::vector<obs::Histogram*> hist_request_us_;  ///< Indexed by Op value.
};

}  // namespace iuad::api

#endif  // IUAD_API_DISPATCHER_H_
