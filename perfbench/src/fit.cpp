/// `fit`: batch Algorithm 1 (core::IuadPipeline::Run) over each of the
/// run's corpora, at nproc threads and, as the single-threaded baseline,
/// at one thread.
/// The only workload where text, core/scn, core/gcn and em do the work;
/// serve, shard, wal and api are absent.

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/gcn_builder.h"
#include "core/scn_builder.h"
#include "eval/evaluator.h"
#include "measure.h"
#include "text/word2vec.h"

namespace iuad::perfbench {
namespace {

/// Corpora per run.
constexpr int kCorpora = 3;
/// FNV-1a over everything a fit produces that users read: the occurrence
/// attribution, the graph (vertices with their papers, edges with theirs)
/// and the stage statistics.
uint64_t ResultDigest(const core::DisambiguationResult& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  auto mix_int = [&mix](int64_t v) { mix(&v, sizeof(v)); };
  for (const auto& e : r.occurrences.Entries()) {
    mix_int(e.paper_id);
    mix(e.name.data(), e.name.size());
    mix_int(e.vertex);
  }
  for (graph::VertexId v = 0; v < r.graph.num_vertices(); ++v) {
    mix_int(r.graph.alive(v) ? 1 : 0);
    const std::string_view name = r.graph.NameOf(v);
    mix(name.data(), name.size());
    for (int p : r.graph.vertex(v).papers) mix_int(p);
  }
  for (const auto& e : r.graph.Edges()) {
    mix_int(e.u);
    mix_int(e.v);
    for (int p : e.papers) mix_int(p);
  }
  const core::GcnStats& g = r.gcn_stats;
  for (int64_t v : {g.names_with_candidates, g.candidate_pairs,
                    g.training_pairs, g.augmented_pairs, g.merges,
                    g.recovered_edges, static_cast<int64_t>(g.em_iterations),
                    r.scn_stats.num_scrs}) {
    mix_int(v);
  }
  mix(&g.em_log_likelihood, sizeof(g.em_log_likelihood));
  return h;
}

/// Every (paper, byline name) must be attributed exactly once, to an alive
/// vertex bearing that name and holding that paper. Returns the number of
/// violations.
int64_t CountAttributionErrors(const data::PaperDatabase& db,
                               const core::DisambiguationResult& r) {
  int64_t errors = 0;
  int64_t pairs = 0;
  for (const auto& paper : db.papers()) {
    const std::set<std::string> names(paper.author_names.begin(),
                                      paper.author_names.end());
    pairs += static_cast<int64_t>(names.size());
    for (const auto& name : names) {
      const graph::VertexId v = r.occurrences.Lookup(paper.id, name);
      if (v < 0 || v >= r.graph.num_vertices() || !r.graph.alive(v) ||
          r.graph.NameOf(v) != name) {
        ++errors;
        continue;
      }
      const auto& papers = r.graph.vertex(v).papers;
      if (!std::binary_search(papers.begin(), papers.end(), paper.id)) {
        ++errors;
      }
    }
  }
  return errors + std::abs(r.occurrences.size() - pairs);
}

/// IuadPipeline::Run's three stages called one by one, in Run's order and
/// with Run's settings, each inside a span.
iuad::Result<core::DisambiguationResult> StageByStageFit(
    const data::PaperDatabase& db, const core::IuadConfig& cfg,
    SpanLog* log) {
  ScopedSpan fit(log, "core.fit");
  IUAD_RETURN_NOT_OK(cfg.Validate());
  core::DisambiguationResult r;
  {
    ScopedSpan span(log, "text.train");
    text::Word2VecConfig wc = cfg.word2vec;
    wc.seed = cfg.seed ^ 0x5eedbeef;
    wc.num_threads = cfg.num_threads;
    r.embeddings = text::Word2Vec(wc);
    std::vector<std::vector<std::string>> sentences;
    sentences.reserve(static_cast<size_t>(db.num_papers()));
    for (const auto& paper : db.papers()) {
      sentences.push_back(db.KeywordsOf(paper.id));
    }
    // Run tolerates a failed training (γ3 degrades to 0); so does this.
    (void)r.embeddings.Train(sentences);
  }
  {
    ScopedSpan span(log, "core.scn_build");
    auto stats = core::ScnBuilder(cfg).Build(db, &r.graph, &r.occurrences);
    if (!stats.ok()) return stats.status();
    r.scn_stats = *stats;
  }
  {
    ScopedSpan span(log, "core.gcn_build");
    auto stats = core::GcnBuilder(cfg).Build(db, &r.graph, &r.occurrences,
                                             r.embeddings, &r.model);
    if (!stats.ok()) return stats.status();
    r.gcn_stats = *stats;
  }
  return r;
}

/// Papers per corpus; the run fits kCorpora of them.
constexpr int kFitPapers = 16000;

struct FitPhase {
  double parallel_s = 0.0;  ///< Summed over nproc-thread fits.
  double single_s = 0.0;    ///< Summed over one-thread fits.
  double parallel_papers = 0.0;
  double single_papers = 0.0;
  std::vector<double> fit_ms;  ///< Each nproc-thread fit's duration.
  /// Per corpus: every fit's ResultDigest, all of which must agree.
  std::vector<std::vector<uint64_t>> digests;
  std::vector<eval::PairCounts> pairs;  ///< Per corpus, first fit.
  core::GcnStats gcn;                   ///< Summed over the first fits.
  int64_t attribution_errors = 0;
};

/// Rounds over the corpora until the next round would overrun `seconds`
/// (at least one). Each round fits every corpus at nproc threads; untraced,
/// it also fits one corpus (in turn) at one thread, the baseline, so both
/// sample the whole run. Traced, the nproc-thread fits run stage by stage
/// inside spans. The first fit of each corpus is evaluated and checked
/// outside the timed region.
bool MeasureFits(const std::vector<data::Corpus>& corpora, double seconds,
                 SpanLog* log, FitPhase* phase, Outcome* out) {
  const core::IuadConfig cfg = DeployedConfig();
  core::IuadConfig single_cfg = cfg;
  single_cfg.num_threads = 1;
  phase->digests.resize(corpora.size());
  const int64_t start = NowNs();
  for (size_t round = 0;; ++round) {
    const int64_t round_start = NowNs();
    for (size_t k = 0; k < corpora.size(); ++k) {
      const data::PaperDatabase& db = corpora[k].db;
      const int64_t t = NowNs();
      auto r = log != nullptr ? StageByStageFit(db, cfg, log)
                              : core::IuadPipeline(cfg).Run(db);
      const double fit_s = static_cast<double>(NowNs() - t) / 1e9;
      ++out->attempted;
      if (!r.ok()) {
        out->Fail("fit failed: " + r.status().ToString());
        return false;
      }
      phase->parallel_s += fit_s;
      phase->parallel_papers += static_cast<double>(db.num_papers());
      phase->fit_ms.push_back(fit_s * 1e3);
      phase->digests[k].push_back(ResultDigest(*r));
      if (round == 0) {
        eval::PairCounts counts;
        eval::EvaluateOccurrences(db, r->occurrences, corpora[k].TestNames(2),
                                  &counts);
        phase->pairs.push_back(counts);
        phase->attribution_errors += CountAttributionErrors(db, *r);
        const core::GcnStats& g = r->gcn_stats;
        phase->gcn.candidate_pairs += g.candidate_pairs;
        phase->gcn.merges += g.merges;
        phase->gcn.em_iterations += g.em_iterations;
      }
    }
    if (log == nullptr) {
      const size_t k = round % corpora.size();
      const int64_t t = NowNs();
      auto single = core::IuadPipeline(single_cfg).Run(corpora[k].db);
      phase->single_s += static_cast<double>(NowNs() - t) / 1e9;
      phase->single_papers += static_cast<double>(corpora[k].db.num_papers());
      ++out->attempted;
      if (!single.ok()) {
        out->Fail("one-thread fit failed: " + single.status().ToString());
        return false;
      }
      phase->digests[k].push_back(ResultDigest(*single));
    }
    const double round_s = static_cast<double>(NowNs() - round_start) / 1e9;
    if (static_cast<double>(NowNs() - start) / 1e9 + round_s > seconds) break;
  }
  return true;
}

/// Every repetition of a corpus's fit (nproc threads, one thread, stage by
/// stage) must produce the same network, and it must attribute every
/// byline exactly once.
void CheckFits(const FitPhase& plain, const FitPhase& traced, Outcome* out) {
  int64_t divergent = 0;
  for (size_t k = 0; k < plain.digests.size(); ++k) {
    std::vector<uint64_t> all = plain.digests[k];
    if (k < traced.digests.size()) {
      all.insert(all.end(), traced.digests[k].begin(),
                 traced.digests[k].end());
    }
    divergent += std::count_if(all.begin(), all.end(),
                               [&](uint64_t d) { return d != all.front(); });
  }
  if (divergent > 0) {
    out->Fail(std::to_string(divergent) +
              " fits differ from their corpus's first fit");
  }
  if (plain.attribution_errors > 0) {
    out->Fail(std::to_string(plain.attribution_errors) +
              " byline occurrences not attributed exactly once");
  }
}

}  // namespace

Outcome RunFit(const Args& args) {
  Outcome out;
  std::vector<data::Corpus> corpora;
  std::vector<double> generate_s;
  for (int k = 0; k < kCorpora; ++k) {
    const int64_t t = NowNs();
    corpora.push_back(MakeCorpus(SubSeed(args.seed, k), kFitPapers));
    generate_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }

  FitPhase plain;
  if (!MeasureFits(corpora, args.seconds, nullptr, &plain, &out)) return out;
  FitPhase traced;
  SpanLog log(1);
  const int64_t trace_origin = NowNs();
  if (args.trace && !MeasureFits(corpora, args.seconds, &log, &traced, &out)) {
    return out;
  }
  CheckFits(plain, traced, &out);
  if (!out.correct) return out;

  auto& m = out.metrics;
  m["setup_s"] = Median(generate_s);
  m["pairwise_f1"] = PooledF1(plain.pairs);
  m["papers_per_s"] = plain.parallel_papers / plain.parallel_s;
  m["core.sequential_papers_per_s"] = plain.single_papers / plain.single_s;
  // In a batch every paper's attribution arrives when its fit ends, so each
  // fit contributes one latency per paper (corpora are equal in size).
  m["latency_ms_p50"] = Percentile(plain.fit_ms, 50);
  m["latency_ms_p99"] = Percentile(plain.fit_ms, 99);
  m["bench.latency_samples"] = plain.parallel_papers;

  if (args.trace) {
    const std::vector<const SpanLog*> logs = {&log};
    m["data.generate_s"] = Median(generate_s);
    m["text.train_s"] = Median(SpanSeconds(logs, "text.train"));
    m["core.scn_build_s"] = Median(SpanSeconds(logs, "core.scn_build"));
    m["core.gcn_build_s"] = Median(SpanSeconds(logs, "core.gcn_build"));
    const core::GcnStats& g = traced.gcn;
    m["core.gcn_candidate_pairs"] = static_cast<double>(g.candidate_pairs);
    m["core.gcn_merges"] = static_cast<double>(g.merges);
    m["core.gcn_merge_ratio"] =
        g.candidate_pairs > 0 ? static_cast<double>(g.merges) /
                                    static_cast<double>(g.candidate_pairs)
                              : 0.0;
    m["em.iterations"] = g.em_iterations;
    m["bench.trace_overhead_pct"] =
        (Median(SpanSeconds(logs, "core.fit")) * 1e3 / Median(plain.fit_ms) -
         1.0) *
        100.0;
    out.trace_json = ChromeTraceJson(logs, trace_origin);
  }
  return out;
}

}  // namespace iuad::perfbench
