/// Reproduces Table V: average time cost per name disambiguation (seconds)
/// at 20/40/60/80/100% of the corpus, for IUAD and the four unsupervised
/// baselines. The paper's claims: IUAD is the fastest method at every scale
/// (bottom-up avoids per-ego-network recomputation) and GHOST scales worst
/// (path-based similarities over ever-larger ego networks).
///
/// Timing protocol: for IUAD the full two-stage reconstruction cost is
/// divided by the number of test names (the paper's "per name" accounting —
/// one reconstruction disambiguates every name at once). For the top-down
/// baselines, Disambiguate(name) is timed per test name directly. Embedding
/// training is shared infrastructure and excluded for all methods.

#include <cstdio>
#include <memory>

#include "baselines/unsupervised.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "eval/table_printer.h"
#include "util/stopwatch.h"

using namespace iuad;

int main() {
  bench::PrintHeader("repro_table5_scalability",
                     "Table V — average time cost per name (milliseconds)");
  auto corpus = bench::BenchCorpus();
  const auto names = corpus.TestNames(2);
  std::printf("corpus: %d papers; %zu test names\n", corpus.db.num_papers(),
              names.size());

  // Shared embeddings, trained once on the full corpus.
  core::IuadConfig cfg = bench::BenchIuadConfig();
  text::Word2Vec shared_w2v(cfg.word2vec);
  {
    std::vector<std::vector<std::string>> sentences;
    for (const auto& p : corpus.db.papers()) {
      sentences.push_back(corpus.db.KeywordsOf(p.id));
    }
    (void)shared_w2v.Train(sentences);
  }

  eval::TablePrinter table({"Algorithm", "20% (ms)", "40% (ms)", "60% (ms)",
                            "80% (ms)", "100% (ms)", "paper 100% (s)"});
  const std::vector<double> fractions{0.2, 0.4, 0.6, 0.8, 1.0};

  std::vector<std::vector<std::string>> rows(5);
  std::vector<std::string> algo_names{"ANON", "NetE", "Aminer", "GHOST",
                                      "IUAD"};
  const char* paper_100[] = {"58.489", "33.093", "6.078", "183.480", "2.599"};
  for (size_t a = 0; a < rows.size(); ++a) rows[a].push_back(algo_names[a]);

  for (double fraction : fractions) {
    auto slice = corpus.db.PrefixByYearFraction(fraction);
    // Baselines see the sliced database.
    std::vector<std::unique_ptr<baselines::UnsupervisedBaseline>> bl;
    bl.push_back(std::make_unique<baselines::AnonBaseline>(slice, &shared_w2v));
    bl.push_back(std::make_unique<baselines::NetEBaseline>(slice, &shared_w2v));
    bl.push_back(
        std::make_unique<baselines::AminerBaseline>(slice, &shared_w2v));
    bl.push_back(std::make_unique<baselines::GhostBaseline>(slice));
    for (size_t a = 0; a < bl.size(); ++a) {
      iuad::Stopwatch sw;
      for (const auto& name : names) {
        (void)bl[a]->Disambiguate(name);
      }
      rows[a].push_back(
          bench::F3(sw.ElapsedMillis() / static_cast<double>(names.size())));
    }
    // IUAD: stage 1 + stage 2 over the slice, amortized per test name.
    {
      core::ScnBuilder scn(cfg);
      core::GcnBuilder gcn(cfg);
      iuad::Stopwatch sw;
      graph::CollabGraph graph;
      core::OccurrenceIndex occ;
      std::unique_ptr<em::MixtureModel> model;
      auto s1 = scn.Build(slice, &graph, &occ);
      auto s2 = gcn.Build(slice, &graph, &occ, shared_w2v, &model);
      if (!s1.ok() || !s2.ok()) {
        std::printf("IUAD failed at %.0f%%\n", fraction * 100);
        return 1;
      }
      rows[4].push_back(
          bench::F3(sw.ElapsedMillis() / static_cast<double>(names.size())));
    }
  }
  for (size_t a = 0; a < rows.size(); ++a) {
    rows[a].push_back(paper_100[a]);
    table.AddRow(rows[a]);
  }
  table.Print();
  std::printf(
      "reading guide: IUAD's column is its FULL two-stage network\n"
      "reconstruction amortized over the test names (one build answers every\n"
      "name); it grows mildly with scale, the paper's scalability claim.\n"
      "CAVEAT (DESIGN.md §2): the published ANON/NetE/Aminer costs are\n"
      "dominated by per-ego-network embedding training, which the hashing\n"
      "substitution of DESIGN.md removes by design — their rows here only\n"
      "time clustering, so cross-method absolute comparisons are not\n"
      "meaningful in this reproduction; the per-scale growth trends are.\n");
  return 0;
}
