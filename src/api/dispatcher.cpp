#include "api/dispatcher.h"

#include <future>
#include <string>
#include <utility>
#include <vector>

namespace iuad::api {

Dispatcher::Dispatcher(serve::Frontend* frontend, Options options)
    : frontend_(frontend),
      options_(options),
      clock_(options.metrics_enabled, options.trace_enabled),
      ctr_requests_(frontend->Metrics()->GetCounter("requests")),
      ctr_request_errors_(frontend->Metrics()->GetCounter("request_errors")),
      hist_decode_us_(frontend->Metrics()->GetHistogram("decode_us")),
      hist_encode_us_(frontend->Metrics()->GetHistogram("encode_us")) {
  // One latency histogram per operation, indexed by the Op enum value.
  for (Op op : {Op::kIngest, Op::kQueryAuthors, Op::kQueryPublications,
                Op::kFlush, Op::kStats, Op::kMetrics, Op::kTrace}) {
    hist_request_us_.push_back(frontend->Metrics()->GetHistogram(
        std::string("request_us_") + OpName(op)));
  }
}

Response Dispatcher::Execute(const Request& request) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  switch (request.op) {
    case Op::kIngest: {
      const auto& papers = request.ingest.papers;
      if (papers.empty()) {
        response.status =
            iuad::Status::InvalidArgument("ingest request with no papers");
        return response;
      }
      if (papers.size() > static_cast<size_t>(options_.max_batch)) {
        response.status = iuad::Status::ResourceExhausted(
            "batch of " + std::to_string(papers.size()) +
            " papers exceeds api_max_batch = " +
            std::to_string(options_.max_batch));
        return response;
      }
      // Protocol-level backpressure: when the bounded ingest queue is
      // already at capacity (concurrent connections saturating the
      // applier), refuse instead of parking this connection on the
      // admission window for an unbounded time.
      const serve::ServiceStats live = frontend_->Stats();
      if (live.queued_now >= live.queue_capacity) {
        response.status = iuad::Status::ResourceExhausted(
            "ingest queue full (" + std::to_string(live.queued_now) + "/" +
            std::to_string(live.queue_capacity) + " queued); retry");
        return response;
      }
      auto futures = frontend_->SubmitBatch(papers);
      response.assignments.reserve(futures.size());
      for (size_t i = 0; i < futures.size(); ++i) {
        auto applied = futures[i].get();
        if (!applied.ok()) {
          response.assignments.clear();
          response.status = iuad::Status(
              applied.status().code(),
              "paper " + std::to_string(i) + ": " +
                  applied.status().message());
          return response;
        }
        response.assignments.push_back(std::move(*applied));
      }
      return response;
    }
    case Op::kQueryAuthors:
      response.authors = frontend_->AuthorsByName(request.query_authors.name);
      return response;
    case Op::kQueryPublications: {
      const int64_t vertex = request.query_publications.vertex;
      if (vertex < 0) {
        response.status =
            iuad::Status::InvalidArgument("vertex must be >= 0");
        return response;
      }
      response.paper_ids =
          frontend_->PublicationsOf(static_cast<graph::VertexId>(vertex));
      return response;
    }
    case Op::kFlush:
      frontend_->Drain();
      response.applied = frontend_->Stats().papers_applied;
      return response;
    case Op::kStats:
      response.stats = frontend_->Stats();
      return response;
    case Op::kMetrics:
      response.metrics = frontend_->Metrics()->Snapshot();
      return response;
    case Op::kTrace:
      // Draining is destructive reading only in the sense that later
      // drains see later events; the recorder itself keeps recording.
      response.trace = obs::ChromeTraceEvents(
          obs::FlightRecorder::Instance().Drain());
      return response;
  }
  response.status = iuad::Status::Internal("unhandled op");
  return response;
}

std::string Dispatcher::HandleLine(const std::string& line) {
  const int64_t start_ns = clock_.Now();
  auto request = DecodeRequest(line, options_.limits);
  const int64_t decoded_ns = clock_.Now();
  clock_.Record(hist_decode_us_, start_ns, decoded_ns);
  ctr_requests_->Increment();
  if (!request.ok()) {
    ctr_request_errors_->Increment();
    Response error;
    error.id = -1;  // the request id never decoded
    error.op = Op::kStats;
    error.status = request.status();
    return EncodeResponse(error);
  }
  Response response = Execute(*request);
  if (!response.status.ok()) ctr_request_errors_->Increment();
  // One "request" span per decoded line: a0 = Op value, a1 = execute
  // duration (decode and encode stay histogram-only detail).
  const int64_t executed_ns = clock_.Now();
  clock_.Stage(decoded_ns, executed_ns,
               hist_request_us_[static_cast<size_t>(request->op)],
               obs::TraceEventId::kRequest,
               static_cast<uint64_t>(request->op));
  std::string encoded = EncodeResponse(response);
  clock_.RecordSince(hist_encode_us_, executed_ns);
  return encoded;
}

void Dispatcher::ServeStream(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    out << HandleLine(line) << '\n' << std::flush;
  }
}

}  // namespace iuad::api
