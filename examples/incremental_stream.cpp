/// Incremental ingestion: run IUAD once over a historical database, then
/// stream newly published papers into the live network — Sec. V-E of the
/// paper, and the reason IUAD can sit behind a digital library that
/// receives new records continuously. No retraining happens; each
/// occurrence is assigned by the fitted generative model's score.
///
/// This example drives the serving surface: the stream goes through
/// serve::Frontend — the one interface the ShardRouter (here at one shard)
/// and the networked query API (src/api) share — as a single SubmitBatch
/// call that reserves one contiguous sequence range for the whole batch,
/// and the post-ingestion lookups use the frontend's published read views
/// instead of poking the raw result.
///
/// Build & run:  ./build/examples/incremental_stream

#include <cstdio>
#include <future>
#include <vector>

#include "core/pipeline.h"
#include "data/corpus_generator.h"
#include "serve/frontend.h"
#include "shard/shard_router.h"
#include "util/stopwatch.h"

using namespace iuad;

int main() {
  // Historical corpus + a stream of the 150 most recent papers.
  data::CorpusConfig corpus_cfg;
  corpus_cfg.num_communities = 10;
  corpus_cfg.authors_per_community = 40;
  corpus_cfg.num_papers = 3000;
  corpus_cfg.seed = 7;
  auto corpus = data::CorpusGenerator(corpus_cfg).Generate();
  auto [history, stream] = corpus.db.HoldOutLatest(150);
  std::printf("history: %d papers; stream: %zu new papers\n",
              history.num_papers(), stream.size());

  core::IuadConfig config;
  config.word2vec.dim = 24;
  core::IuadPipeline pipeline(config);
  auto result = pipeline.Run(history);
  if (!result.ok()) {
    std::printf("pipeline failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("built network: %d author vertices\n\n",
              result->graph.num_alive());

  // Bring up the serving front end and ingest the whole stream as one
  // batch. The futures resolve in sequence order with exactly the
  // assignments sequential AddPaper calls would produce.
  config.num_shards = 1;
  shard::ShardRouter router(&history, &*result, config);
  serve::Frontend& frontend = router;
  int joined = 0, founded = 0;
  iuad::Stopwatch sw;
  auto futures = frontend.SubmitBatch(stream);
  for (auto& future : futures) {
    auto assignments = future.get();
    if (!assignments.ok()) {
      std::printf("ingest failed: %s\n",
                  assignments.status().ToString().c_str());
      return 1;
    }
    for (const auto& a : *assignments) {
      if (a.created_new) {
        ++founded;
      } else {
        ++joined;
      }
    }
  }
  const double ms = sw.ElapsedMillis();
  std::printf("ingested %zu papers in %.1f ms (%.2f ms/paper)\n",
              stream.size(), ms, ms / static_cast<double>(stream.size()));
  std::printf("occurrences joining an existing author: %d\n", joined);
  std::printf("occurrences founding a new author:      %d\n", founded);

  // Resolved futures mean the papers are applied, not that a fresh read
  // view is published (reads lag by up to one refresh window) — drain
  // before reading stats and the decision trail below.
  frontend.Drain();
  const auto stats = frontend.Stats();
  std::printf("service state: epoch %ld, %ld papers applied, "
              "%d alive vertices\n",
              static_cast<long>(stats.epoch),
              static_cast<long>(stats.papers_applied),
              stats.num_alive_vertices);
  const auto& last = stream.back();
  std::printf("\nlast paper: \"%s\" (%s, %d) by:\n", last.title.c_str(),
              last.venue.c_str(), last.year);
  for (const auto& name : last.author_names) {
    for (const auto& rec : frontend.AuthorsByName(name)) {
      const auto papers = frontend.PublicationsOf(rec.vertex);
      if (papers.empty() || papers.back() != history.num_papers() - 1) {
        continue;  // a same-name candidate that did not absorb this byline
      }
      std::printf("  %-24s -> author vertex %d (now %zu papers)\n",
                  name.c_str(), rec.vertex, papers.size());
    }
  }
  frontend.Stop();
  return 0;
}
