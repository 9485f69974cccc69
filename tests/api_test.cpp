/// The typed query/ingest API (src/api): strict JSON reader behavior,
/// canonical wire-codec round-trips (encode→decode→encode byte-identical
/// for every request/response variant, fuzz-style), malformed-input
/// rejection, and the acceptance-criteria equivalence — a scripted NDJSON
/// session through api::Dispatcher / api::Server produces assignments
/// byte-identical to driving serve::Frontend::Submit directly, at 1 and 4
/// shards.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/dispatcher.h"
#include "api/server.h"
#include "core/pipeline.h"
#include "serve/frontend.h"
#include "shard/shard_router.h"
#include "testing_utils.h"
#include "util/json_reader.h"

namespace iuad::api {
namespace {

// ---- Strict JSON reader -----------------------------------------------------

TEST(JsonReaderTest, ParsesScalarsArraysAndObjects) {
  auto v = util::ParseJson(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, null, 1e2], "e": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("a")->as_int(), 1);
  EXPECT_TRUE(v->Find("a")->is_int());
  EXPECT_DOUBLE_EQ(v->Find("b")->as_double(), -2.5);
  EXPECT_TRUE(v->Find("b")->is_double());
  EXPECT_EQ(v->Find("c")->as_string(), "x\ny");
  const auto& items = v->Find("d")->items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(items[0].as_bool());
  EXPECT_TRUE(items[1].is_null());
  EXPECT_TRUE(items[2].is_double());  // exponent notation is not integral
  EXPECT_DOUBLE_EQ(items[2].as_double(), 100.0);
  EXPECT_TRUE(v->Find("e")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonReaderTest, DecodesEscapesIncludingSurrogatePairs) {
  auto v = util::ParseJson(R"("\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->as_string(),
            "\"\\/\b\f\n\r\tA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                        // nothing
      "{",                       // truncated object
      "[1, 2",                   // truncated array
      "\"abc",                   // unterminated string
      "{\"a\": }",               // missing value
      "{\"a\": 1,}",             // trailing comma
      "[1, , 2]",                // hole
      "{'a': 1}",                // wrong quotes
      "{\"a\": 1} x",            // trailing content
      "{\"a\": 1}{\"b\": 2}",    // two documents
      "{\"a\": 1, \"a\": 2}",    // duplicate key
      "01",                      // leading zero
      "1.",                      // bare fraction dot
      "+1",                      // explicit plus
      ".5",                      // missing integer part
      "1e",                      // empty exponent
      "nan",                     // not a JSON literal
      "inf",                     //
      "tru",                     // truncated literal
      "\"\\u12\"",               // truncated escape
      "\"\\ud800\"",             // lone high surrogate
      "\"\\udc00\"",             // lone low surrogate
      "\"\x01\"",                // raw control character
      "\"\\x41\"",               // invalid escape
      "1e999",                   // overflows to inf
  };
  for (const char* text : bad) {
    auto v = util::ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JsonReaderTest, EnforcesSizeAndDepthLimits) {
  util::JsonReaderOptions tight;
  tight.max_bytes = 16;
  EXPECT_FALSE(util::ParseJson("{\"key\": \"0123456789\"}", tight).ok());
  EXPECT_TRUE(util::ParseJson("{\"k\": 1}", tight).ok());

  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(util::ParseJson(deep).ok());  // default max_depth = 64
  util::JsonReaderOptions roomy;
  roomy.max_depth = 200;
  EXPECT_TRUE(util::ParseJson(deep, roomy).ok());
}

// ---- Canonical codec round-trips (fuzz-style) -------------------------------

/// Deterministic pseudo-random message material: printable ASCII plus the
/// characters the escaper special-cases plus multi-byte UTF-8.
std::string RandomString(std::mt19937_64* rng) {
  static const char* pool[] = {
      "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\r", "\x01", "\x1f",
      "é", "名", "😀", "d.", "-", "{", "}", "[", "]", ":", ","};
  std::uniform_int_distribution<size_t> len(0, 12);
  std::uniform_int_distribution<size_t> pick(
      0, sizeof(pool) / sizeof(pool[0]) - 1);
  std::string s;
  const size_t n = len(*rng);
  for (size_t i = 0; i < n; ++i) s += pool[pick(*rng)];
  return s;
}

int64_t RandomInt(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> shape(0, 3);
  switch (shape(*rng)) {
    case 0: return std::uniform_int_distribution<int64_t>(-5, 5)(*rng);
    case 1: return std::uniform_int_distribution<int64_t>(0, 1 << 30)(*rng);
    case 2:
      return std::uniform_int_distribution<int64_t>(
          std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max())(*rng);
    default: return 0;
  }
}

double RandomScore(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> shape(0, 6);
  switch (shape(*rng)) {
    case 0: return 0.0;
    case 1: return -2.0;  // integral double: %.17g prints it as "-2"
    case 2: return std::uniform_real_distribution<double>(-10, 10)(*rng);
    case 3: return 1e300;
    case 4:
      // Zero candidates score -inf in the real system (wire form "-inf").
      return -std::numeric_limits<double>::infinity();
    case 5: return std::numeric_limits<double>::infinity();
    default: return -1.2345678901234567e-8;
  }
}

data::Paper RandomPaper(std::mt19937_64* rng) {
  data::Paper p;
  p.title = RandomString(rng);
  p.venue = RandomString(rng);
  p.year = static_cast<int>(
      std::uniform_int_distribution<int>(1900, 2100)(*rng));
  std::uniform_int_distribution<size_t> count(1, 4);
  const size_t authors = count(*rng);
  for (size_t i = 0; i < authors; ++i) {
    p.author_names.push_back(RandomString(rng));
  }
  if (std::uniform_int_distribution<int>(0, 1)(*rng) == 1) {
    for (size_t i = 0; i < authors; ++i) {
      p.true_author_ids.push_back(
          std::uniform_int_distribution<int>(-1, 100)(*rng));
    }
  }
  return p;
}

Request RandomRequest(std::mt19937_64* rng) {
  Request r;
  r.id = RandomInt(rng);
  std::uniform_int_distribution<int> op(0, 6);
  r.op = static_cast<Op>(op(*rng));
  switch (r.op) {
    case Op::kIngest: {
      std::uniform_int_distribution<size_t> count(1, 4);
      const size_t papers = count(*rng);
      for (size_t i = 0; i < papers; ++i) {
        r.ingest.papers.push_back(RandomPaper(rng));
      }
      break;
    }
    case Op::kQueryAuthors:
      r.query_authors.name = RandomString(rng);
      break;
    case Op::kQueryPublications:
      r.query_publications.vertex = RandomInt(rng);
      break;
    case Op::kFlush:
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTrace:
      break;
  }
  return r;
}

/// Random but valid registry snapshot: sparse histogram buckets with
/// strictly increasing indices and count == bucket sum, the invariants
/// the strict decoder enforces.
obs::RegistrySnapshot RandomMetrics(std::mt19937_64* rng) {
  obs::RegistrySnapshot m;
  std::uniform_int_distribution<size_t> small(0, 3);
  const size_t counters = small(*rng);
  for (size_t i = 0; i < counters; ++i) {
    m.counters.push_back({RandomString(rng), RandomInt(rng)});
  }
  const size_t gauges = small(*rng);
  for (size_t i = 0; i < gauges; ++i) {
    m.gauges.push_back({RandomString(rng), RandomInt(rng)});
  }
  const size_t histograms = small(*rng);
  for (size_t i = 0; i < histograms; ++i) {
    obs::HistogramSnapshot h;
    h.name = RandomString(rng);
    std::uniform_int_distribution<int> stride(1, 17);
    std::uniform_int_distribution<int64_t> bucket_count(1, 1000);
    for (int idx = stride(*rng) - 1; idx < obs::Histogram::kNumBuckets;
         idx += stride(*rng)) {
      const int64_t c = bucket_count(*rng);
      h.buckets.emplace_back(idx, c);
      h.count += c;
    }
    h.sum_ns = std::uniform_int_distribution<int64_t>(0, 1 << 30)(*rng);
    h.max_ns = std::uniform_int_distribution<int64_t>(0, 1 << 30)(*rng);
    m.histograms.push_back(std::move(h));
  }
  return m;
}

/// Random but canonical trace payload: "dur" appears exactly when the
/// phase is "X", pid is always 1 — the invariants the strict decoder
/// enforces and the canonical encoder emits.
std::vector<obs::ChromeTraceEvent> RandomTrace(std::mt19937_64* rng) {
  std::vector<obs::ChromeTraceEvent> trace;
  std::uniform_int_distribution<size_t> small(0, 5);
  const size_t n = small(*rng);
  for (size_t i = 0; i < n; ++i) {
    obs::ChromeTraceEvent e;
    e.name = RandomString(rng);
    e.ph = std::uniform_int_distribution<int>(0, 1)(*rng) == 0 ? 'X' : 'i';
    e.ts_us = std::uniform_int_distribution<int64_t>(0, 1LL << 40)(*rng);
    if (e.ph == 'X') {
      e.dur_us = std::uniform_int_distribution<int64_t>(0, 1 << 20)(*rng);
    }
    e.tid = std::uniform_int_distribution<int>(0, 63)(*rng);
    e.a0 = RandomInt(rng);
    e.a1 = RandomInt(rng);
    trace.push_back(std::move(e));
  }
  return trace;
}

Response RandomResponse(std::mt19937_64* rng) {
  Response r;
  r.id = RandomInt(rng);
  std::uniform_int_distribution<int> op(0, 6);
  r.op = static_cast<Op>(op(*rng));
  if (std::uniform_int_distribution<int>(0, 3)(*rng) == 0) {
    static const StatusCode codes[] = {
        StatusCode::kInvalidArgument,    StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kIoError,            StatusCode::kInternal};
    r.status = iuad::Status(
        codes[std::uniform_int_distribution<size_t>(0, 5)(*rng)],
        RandomString(rng));
    return r;
  }
  std::uniform_int_distribution<size_t> small(0, 3);
  switch (r.op) {
    case Op::kIngest: {
      const size_t papers = small(*rng);
      for (size_t i = 0; i < papers; ++i) {
        std::vector<core::IncrementalAssignment> per_paper;
        const size_t n = small(*rng);
        for (size_t j = 0; j < n; ++j) {
          core::IncrementalAssignment a;
          a.name = RandomString(rng);
          a.vertex = static_cast<int>(
              std::uniform_int_distribution<int>(-1, 1000)(*rng));
          a.created_new = std::uniform_int_distribution<int>(0, 1)(*rng) == 1;
          a.best_score = RandomScore(rng);
          a.num_candidates =
              std::uniform_int_distribution<int>(0, 50)(*rng);
          per_paper.push_back(a);
        }
        r.assignments.push_back(std::move(per_paper));
      }
      break;
    }
    case Op::kQueryAuthors: {
      const size_t n = small(*rng);
      for (size_t i = 0; i < n; ++i) {
        r.authors.push_back(
            {std::uniform_int_distribution<int>(0, 1000)(*rng),
             std::uniform_int_distribution<int>(0, 99)(*rng)});
      }
      break;
    }
    case Op::kQueryPublications: {
      const size_t n = small(*rng);
      for (size_t i = 0; i < n; ++i) {
        r.paper_ids.push_back(
            std::uniform_int_distribution<int>(0, 100000)(*rng));
      }
      break;
    }
    case Op::kFlush:
      r.applied = RandomInt(rng);
      break;
    case Op::kStats: {
      r.stats.epoch = RandomInt(rng);
      r.stats.papers_applied = RandomInt(rng);
      r.stats.assignments = RandomInt(rng);
      r.stats.new_authors = RandomInt(rng);
      r.stats.num_alive_vertices =
          std::uniform_int_distribution<int>(0, 1 << 20)(*rng);
      r.stats.num_edges = std::uniform_int_distribution<int>(0, 1 << 20)(*rng);
      r.stats.queued_now = std::uniform_int_distribution<int>(0, 999)(*rng);
      r.stats.reorder_held = std::uniform_int_distribution<int>(0, 99)(*rng);
      r.stats.queue_capacity =
          std::uniform_int_distribution<int>(1, 4096)(*rng);
      r.stats.pipeline_depth =
          std::uniform_int_distribution<int>(1, 64)(*rng);
      r.stats.pipeline_windows = RandomInt(rng);
      // Exercise both integral and fractional doubles through the
      // shortest-exact encoder.
      r.stats.pipeline_occupancy =
          std::uniform_int_distribution<int>(0, 64)(*rng) / 8.0;
      r.stats.conflict_stalls = RandomInt(rng);
      r.stats.speculative_rescores = RandomInt(rng);
      r.stats.rss_mb =
          std::uniform_int_distribution<int>(0, 64000)(*rng) / 8.0;
      r.stats.uptime_seconds =
          std::uniform_int_distribution<int>(0, 1 << 20)(*rng) / 16.0;
      r.stats.wal_appended = RandomInt(rng);
      r.stats.wal_fsyncs = RandomInt(rng);
      r.stats.wal_bytes = RandomInt(rng);
      r.stats.recovery_replayed = RandomInt(rng);
      r.stats.wal_last_checkpoint_seq = RandomInt(rng);
      // Includes the no-checkpoint sentinel (-1) and fractional ages.
      r.stats.wal_last_checkpoint_age_s =
          std::uniform_int_distribution<int>(-8, 1 << 20)(*rng) / 8.0;
      r.stats.wal_fsync_wait_us_p99 =
          std::uniform_int_distribution<int>(0, 1 << 20)(*rng) / 16.0;
      const size_t exemplars = small(*rng);
      for (size_t e = 0; e < exemplars; ++e) {
        obs::SlowCommitExemplar ex;
        ex.seq = RandomInt(rng);
        ex.total_ns = RandomInt(rng);
        const size_t stages = small(*rng);
        for (size_t s = 0; s < stages; ++s) {
          ex.stages.push_back({RandomString(rng), RandomInt(rng)});
        }
        const size_t deferrals = small(*rng);
        for (size_t d = 0; d < deferrals; ++d) {
          ex.deferrals.push_back({RandomString(rng), RandomInt(rng)});
        }
        r.stats.slow_commits.push_back(std::move(ex));
      }
      const size_t shards = small(*rng);
      r.stats.num_shards = static_cast<int>(shards == 0 ? 1 : shards);
      for (size_t s = 0; s < shards; ++s) {
        serve::ShardHealth h;
        h.shard = static_cast<int>(s);
        h.owned_blocks = RandomInt(rng);
        h.placement_weight = RandomInt(rng);
        h.papers_scored = RandomInt(rng);
        h.bylines_scored = RandomInt(rng);
        h.assignments = RandomInt(rng);
        h.new_authors = RandomInt(rng);
        r.stats.shards.push_back(h);
      }
      break;
    }
    case Op::kMetrics:
      r.metrics = RandomMetrics(rng);
      break;
    case Op::kTrace:
      r.trace = RandomTrace(rng);
      break;
  }
  return r;
}

TEST(ApiCodecTest, RequestRoundTripIsByteIdentical) {
  std::mt19937_64 rng(20260726);
  for (int i = 0; i < 400; ++i) {
    const Request request = RandomRequest(&rng);
    const std::string wire = EncodeRequest(request);
    EXPECT_EQ(wire.find('\n'), std::string::npos) << wire;
    auto decoded = DecodeRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << wire;
    EXPECT_EQ(EncodeRequest(*decoded), wire);
  }
}

TEST(ApiCodecTest, ResponseRoundTripIsByteIdentical) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 400; ++i) {
    const Response response = RandomResponse(&rng);
    const std::string wire = EncodeResponse(response);
    EXPECT_EQ(wire.find('\n'), std::string::npos) << wire;
    auto decoded = DecodeResponse(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << wire;
    EXPECT_EQ(EncodeResponse(*decoded), wire);
  }
}

TEST(ApiCodecTest, EveryTruncationOfAValidRequestIsRejected) {
  Request request;
  request.id = 7;
  request.op = Op::kIngest;
  request.ingest.papers.push_back(
      iuad::testing::MakePaper({"a", "b"}, "t\"x", "v", 2020, {1, 2}));
  const std::string wire = EncodeRequest(request);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(wire.substr(0, cut)).ok())
        << "accepted prefix of length " << cut;
  }
  EXPECT_TRUE(DecodeRequest(wire).ok());
  EXPECT_FALSE(DecodeRequest(wire + "x").ok());  // trailing garbage
}

TEST(ApiCodecTest, RejectsWrongShapesAndUnknownFields) {
  const char* bad[] = {
      R"(42)",                                           // not an object
      R"({"op":"stats"})",                               // missing id
      R"({"id":1})",                                     // missing op
      R"({"id":"one","op":"stats"})",                    // wrong id type
      R"({"id":1,"op":"mine_bitcoin"})",                 // unknown op
      R"({"id":1,"op":"stats","extra":0})",              // unknown field
      R"({"id":1,"op":"query_authors"})",                // missing name
      R"({"id":1,"op":"query_authors","name":3})",       // wrong name type
      R"({"id":1,"op":"query_publications","vertex":"v"})",
      R"({"id":1,"op":"query_publications","vertex":2.5})",  // non-integer
      R"({"id":1,"op":"ingest","papers":[]})",           // empty batch
      R"({"id":1,"op":"ingest","papers":{}})",           // wrong container
      R"({"id":1,"op":"ingest","papers":[{"title":"t","venue":"v","year":2020,"authors":[]}]})",
      R"({"id":1,"op":"ingest","papers":[{"title":"t","venue":"v","year":2020.5,"authors":["a"]}]})",
      R"({"id":1,"op":"ingest","papers":[{"title":"t","venue":"v","year":2020,"authors":["a"],"truth":[]}]})",
      R"({"id":1,"op":"ingest","papers":[{"title":"t","venue":"v","year":2020,"authors":["a"],"truth":["x"]}]})",
      R"({"id":1,"op":"ingest","papers":[{"venue":"v","year":2020,"authors":["a"]}]})",
      R"({"id":1,"op":"ingest","papers":[{"title":"t","venue":"v","year":2020,"authors":["a"],"doi":"x"}]})",
  };
  for (const char* line : bad) {
    auto r = DecodeRequest(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
  }

  const char* bad_responses[] = {
      R"({"id":1,"op":"stats","ok":"yes"})",                      // ok type
      R"({"id":1,"op":"stats","ok":false})",                      // no error
      R"({"id":1,"op":"stats","ok":false,"error":{"code":"OK","message":""}})",
      R"({"id":1,"op":"flush","ok":true})",                       // no payload
      R"({"id":1,"op":"ingest","ok":true,"assignments":[[{"name":"a"}]]})",
      // Non-finite scores ride as canonical strings; anything else is out.
      R"({"id":1,"op":"ingest","ok":true,"assignments":[[{"name":"a","vertex":1,"new":true,"score":"infinity","candidates":0}]]})",
  };
  for (const char* line : bad_responses) {
    auto r = DecodeResponse(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
  }
}

TEST(ApiCodecTest, RejectsMalformedMetricsPayloads) {
  // The valid shape, as a baseline for the mutations below.
  const char* good =
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[{"name":"c","value":3}],"gauges":[],"histograms":[{"name":"h","count":3,"sum_ns":10,"max_ns":7,"buckets":[[0,1],[5,2]]}]}})";
  EXPECT_TRUE(DecodeResponse(good).ok());

  const char* bad[] = {
      // count != sum of bucket counts.
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":2,"sum_ns":0,"max_ns":0,"buckets":[[0,1]]}]}})",
      // Non-increasing bucket indices.
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":2,"sum_ns":0,"max_ns":0,"buckets":[[5,1],[5,1]]}]}})",
      // Bucket index out of range.
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":1,"sum_ns":0,"max_ns":0,"buckets":[[64,1]]}]}})",
      // Zero-count bucket (empties must be omitted).
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":0,"sum_ns":0,"max_ns":0,"buckets":[[0,0]]}]}})",
      // Bucket entry is not an [index, count] pair.
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":1,"sum_ns":0,"max_ns":0,"buckets":[[0,1,2]]}]}})",
      // Missing / unknown fields in samples and sections.
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[{"name":"c"}],"gauges":[],"histograms":[]}})",
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[{"name":"c","value":1,"unit":"s"}],"gauges":[],"histograms":[]}})",
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[]}})",
      R"({"id":1,"op":"metrics","ok":true,"metrics":{"counters":[],"gauges":[],"histograms":[],"extra":0}})",
  };
  for (const char* line : bad) {
    auto r = DecodeResponse(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
  }
}

TEST(ApiCodecTest, OversizedPayloadIsRejectedByLimits) {
  Request request;
  request.id = 1;
  request.op = Op::kQueryAuthors;
  request.query_authors.name = std::string(4096, 'x');
  const std::string wire = EncodeRequest(request);
  EXPECT_TRUE(DecodeRequest(wire).ok());
  WireLimits tight;
  tight.max_bytes = 1024;
  auto r = DecodeRequest(wire, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- Dispatcher / Frontend equivalence --------------------------------------

core::IuadConfig FastConfig(int num_shards) {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  cfg.num_shards = num_shards;
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

std::unique_ptr<serve::Frontend> MakeFrontend(Fixture* f,
                                              const core::IuadConfig& cfg) {
  return std::make_unique<shard::ShardRouter>(&f->history, &f->result, cfg);
}

/// Order-sensitive digest including the raw score text (%.17g, the wire
/// encoding), so "byte-identical" includes every score bit.
std::string DigestOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string d;
  char score[64];
  for (const auto& a : as) {
    std::snprintf(score, sizeof(score), "%.17g", a.best_score);
    d += a.name + ":" + std::to_string(a.vertex) + (a.created_new ? "*" : "") +
         "@" + score + "#" + std::to_string(a.num_candidates) + ";";
  }
  return d;
}

/// Ground truth: the same stream through Frontend::Submit, one future per
/// paper, in order.
std::vector<std::string> DirectTraces(const core::IuadConfig& cfg,
                                      uint64_t seed, int holdout) {
  Fixture f = MakeFixture(seed, holdout, cfg);
  auto frontend = MakeFrontend(&f, cfg);
  std::vector<std::future<serve::Frontend::Assignments>> futures;
  for (const auto& paper : f.stream) futures.push_back(frontend->Submit(paper));
  frontend->Stop();
  std::vector<std::string> traces;
  for (auto& fut : futures) {
    auto r = fut.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    traces.push_back(r.ok() ? DigestOf(*r) : "FAILED");
  }
  return traces;
}

/// The same stream as a scripted NDJSON session through the dispatcher
/// (the stdio protocol), batching `batch` papers per ingest request.
std::vector<std::string> SessionTraces(const core::IuadConfig& cfg,
                                       uint64_t seed, int holdout,
                                       size_t batch) {
  Fixture f = MakeFixture(seed, holdout, cfg);
  auto frontend = MakeFrontend(&f, cfg);

  std::ostringstream script;
  int64_t id = 0;
  for (size_t i = 0; i < f.stream.size(); i += batch) {
    Request request;
    request.id = id++;
    request.op = Op::kIngest;
    for (size_t j = i; j < f.stream.size() && j < i + batch; ++j) {
      request.ingest.papers.push_back(f.stream[j]);
    }
    script << EncodeRequest(request) << "\n";
  }
  Request flush;
  flush.id = id++;
  flush.op = Op::kFlush;
  script << EncodeRequest(flush) << "\n";

  Dispatcher dispatcher(frontend.get(),
                        Dispatcher::Options{static_cast<int>(batch), {}});
  std::istringstream in(script.str());
  std::ostringstream out;
  dispatcher.ServeStream(in, out);
  frontend->Stop();

  std::vector<std::string> traces;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto response = DecodeResponse(line);
    EXPECT_TRUE(response.ok()) << response.status().ToString() << "\n" << line;
    if (!response.ok()) continue;
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    if (response->op != Op::kIngest) continue;
    for (const auto& per_paper : response->assignments) {
      traces.push_back(DigestOf(per_paper));
    }
  }
  return traces;
}

TEST(ApiEquivalenceTest, SessionMatchesDirectSubmitAtOneShard) {
  const core::IuadConfig cfg = FastConfig(1);
  const auto direct = DirectTraces(cfg, 61, 40);
  ASSERT_EQ(direct.size(), 40u);
  EXPECT_EQ(SessionTraces(cfg, 61, 40, 1), direct);   // one paper per request
  EXPECT_EQ(SessionTraces(cfg, 61, 40, 7), direct);   // batched SubmitBatch
}

TEST(ApiEquivalenceTest, SessionMatchesDirectSubmitAtFourShards) {
  const core::IuadConfig cfg = FastConfig(4);
  const auto direct = DirectTraces(cfg, 62, 40);
  ASSERT_EQ(direct.size(), 40u);
  EXPECT_EQ(SessionTraces(cfg, 62, 40, 7), direct);
}

TEST(ApiDispatcherTest, RejectsOversizedBatchAndBadVertex) {
  core::IuadConfig cfg = FastConfig(1);
  cfg.api_max_batch = 2;
  Fixture f = MakeFixture(63, 10, cfg);
  auto frontend = MakeFrontend(&f, cfg);
  Dispatcher dispatcher(frontend.get(),
                        Dispatcher::Options{cfg.api_max_batch, {}});

  Request big;
  big.id = 1;
  big.op = Op::kIngest;
  big.ingest.papers = {f.stream[0], f.stream[1], f.stream[2]};
  Response r = dispatcher.Execute(big);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.id, 1);

  Request bad_vertex;
  bad_vertex.id = 2;
  bad_vertex.op = Op::kQueryPublications;
  bad_vertex.query_publications.vertex = -5;
  r = dispatcher.Execute(bad_vertex);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // Undecodable line: one error response, id -1, still a valid wire line.
  const std::string line = dispatcher.HandleLine("{\"id\":");
  auto decoded = DecodeResponse(line);
  ASSERT_TRUE(decoded.ok()) << line;
  EXPECT_EQ(decoded->id, -1);
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  frontend->Stop();
}

// ---- TCP server -------------------------------------------------------------

/// Minimal blocking NDJSON client over one socket.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// Sends one request line, reads one response line.
  iuad::Result<Response> Call(const Request& request) {
    const std::string line = EncodeRequest(request) + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, 0);
      if (n <= 0) return iuad::Status::IoError("send failed");
      off += static_cast<size_t>(n);
    }
    std::string response_line;
    char c = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return iuad::Status::IoError("recv failed");
      if (c == '\n') break;
      response_line += c;
    }
    return DecodeResponse(response_line);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(ApiServerTest, TcpSessionServesIngestQueryAndStats) {
  core::IuadConfig cfg = FastConfig(1);
  Fixture f = MakeFixture(64, 10, cfg);
  auto frontend = MakeFrontend(&f, cfg);
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_workers = 2;
  options.max_batch = 4;
  Server server(frontend.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  ASSERT_TRUE(client.connected());

  Request stats;
  stats.id = 1;
  stats.op = Op::kStats;
  auto r = client.Call(stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->status.ok());
  EXPECT_EQ(r->stats.papers_applied, 0);
  EXPECT_EQ(r->stats.num_shards, 1);

  Request ingest;
  ingest.id = 2;
  ingest.op = Op::kIngest;
  ingest.ingest.papers = {f.stream[0], f.stream[1], f.stream[2]};
  r = client.Call(ingest);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->assignments.size(), 3u);

  Request flush;
  flush.id = 3;
  flush.op = Op::kFlush;
  r = client.Call(flush);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.ok());
  EXPECT_EQ(r->applied, 3);

  // A name guaranteed alive since the fit: the first history byline.
  Request authors;
  authors.id = 4;
  authors.op = Op::kQueryAuthors;
  authors.query_authors.name = f.history.paper(0).author_names[0];
  r = client.Call(authors);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->status.ok());
  ASSERT_FALSE(r->authors.empty());

  Request pubs;
  pubs.id = 5;
  pubs.op = Op::kQueryPublications;
  pubs.query_publications.vertex = r->authors[0].vertex;
  auto pr = client.Call(pubs);
  ASSERT_TRUE(pr.ok());
  ASSERT_TRUE(pr->status.ok());
  EXPECT_GE(static_cast<int>(pr->paper_ids.size()), r->authors[0].num_papers);

  // Batch above api_max_batch: protocol-level backpressure.
  Request big;
  big.id = 6;
  big.op = Op::kIngest;
  big.ingest.papers = {f.stream[3], f.stream[4], f.stream[5], f.stream[6],
                       f.stream[7]};
  r = client.Call(big);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), StatusCode::kResourceExhausted);

  // GetMetrics over the wire: the registry counters must agree with what
  // this session actually did, and the commit-latency histogram must have
  // one recording per applied paper.
  Request metrics;
  metrics.id = 7;
  metrics.op = Op::kMetrics;
  r = client.Call(metrics);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  auto counter = [&](const std::string& name) -> int64_t {
    for (const auto& c : r->metrics.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "counter " << name << " missing from GetMetrics";
    return -1;
  };
  EXPECT_EQ(counter("papers_applied"), 3);
  EXPECT_EQ(counter("papers_failed"), 0);
  EXPECT_GE(counter("requests"), 6);
  EXPECT_GE(counter("bytes_in"), 1);
  EXPECT_GE(counter("bytes_out"), 1);
  EXPECT_EQ(counter("connections_accepted"), 1);
  bool found_commit_latency = false;
  for (const auto& h : r->metrics.histograms) {
    if (h.name != "commit_latency_us") continue;
    found_commit_latency = true;
    EXPECT_EQ(h.count, 3);
    EXPECT_GE(h.PercentileUs(99), h.PercentileUs(50));
  }
  EXPECT_TRUE(found_commit_latency);

  server.Shutdown();
  // Graceful drain: everything the session ingested is applied.
  EXPECT_EQ(frontend->Stats().papers_applied, 3);
  frontend->Stop();
}

TEST(ApiServerTest, ShutdownWithIdleConnectionDoesNotHang) {
  core::IuadConfig cfg = FastConfig(1);
  Fixture f = MakeFixture(65, 5, cfg);
  auto frontend = MakeFrontend(&f, cfg);
  ServerOptions options;
  options.num_workers = 1;
  Server server(frontend.get(), options);
  ASSERT_TRUE(server.Start().ok());
  Client idle(server.port());
  ASSERT_TRUE(idle.connected());
  Request stats;
  stats.id = 1;
  stats.op = Op::kStats;
  ASSERT_TRUE(idle.Call(stats).ok());
  // The worker is now parked in recv on this connection; Shutdown must
  // still return (SHUT_RDWR wakes it).
  server.Shutdown();
  frontend->Stop();
}

}  // namespace
}  // namespace iuad::api
