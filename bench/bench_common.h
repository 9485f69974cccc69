#ifndef IUAD_BENCH_BENCH_COMMON_H_
#define IUAD_BENCH_BENCH_COMMON_H_

/// Shared setup for the reproduction benches: one standard synthetic corpus
/// (the DBLP stand-in, DESIGN.md §2) and the evaluation-name protocol of
/// Sec. VI-A1. Every bench prints the paper's published value next to the
/// measured one so the *shape* comparison is immediate.

#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/corpus_generator.h"
#include "util/strings.h"

namespace iuad::bench {

/// The standard bench corpus with DBLP-like density held constant across
/// scales: ~12-13 author-paper pairs per author (DBLP: 2.39M pairs over a
/// few hundred thousand authors) and name pools proportional to the author
/// population so the homonym mix matches the validated 5k-paper regime
/// (SCN precision ≈ 0.9, Table-IV recall structure).
inline data::Corpus BenchCorpus(uint64_t seed = 2021, int papers = 10000) {
  data::CorpusConfig cfg;
  const int authors = std::max(400, papers / 5);
  cfg.authors_per_community = 60;
  cfg.num_communities = std::max(4, authors / cfg.authors_per_community);
  cfg.num_papers = papers;
  const double author_scale = static_cast<double>(authors) / 960.0;
  cfg.given_name_pool = static_cast<int>(180 * author_scale);
  cfg.surname_pool = static_cast<int>(140 * author_scale);
  cfg.name_zipf = 0.7;
  cfg.seed = seed;
  return data::CorpusGenerator(cfg).Generate();
}

/// IUAD configuration used by all benches (paper defaults; embeddings kept
/// small for bench turnaround).
inline core::IuadConfig BenchIuadConfig() {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 24;
  cfg.word2vec.epochs = 2;
  return cfg;
}

inline std::string F4(double v) { return iuad::FormatDouble(v, 4); }
inline std::string F3(double v) { return iuad::FormatDouble(v, 3); }

inline void PrintHeader(const char* title, const char* paper_artifact) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("================================================================\n");
}

}  // namespace iuad::bench

#endif  // IUAD_BENCH_BENCH_COMMON_H_
