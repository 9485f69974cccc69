#ifndef IUAD_TEXT_WORD2VEC_H_
#define IUAD_TEXT_WORD2VEC_H_

/// \file word2vec.h
/// Skip-gram with negative sampling (SGNS), from scratch. Substitutes the
/// paper's pretrained Word2Vec/GloVe vectors (unavailable offline): γ3 only
/// needs keyword vectors whose cosine reflects topical relatedness, which
/// SGNS trained on the corpus's own titles provides (see DESIGN.md §2).
/// Training is sharded deterministically (see Word2VecConfig::num_shards):
/// the same seed yields byte-identical embeddings at any thread count.

#include <string>
#include <unordered_map>
#include <vector>

#include "text/embedding.h"
#include "text/vocabulary.h"
#include "util/rng.h"
#include "util/status.h"

namespace iuad::text {

/// Training hyper-parameters. Defaults are scaled for title-length sentences
/// (a few words each) rather than prose.
struct Word2VecConfig {
  int dim = 32;                ///< Embedding dimension.
  int window = 4;              ///< Max context offset (titles are short).
  int negatives = 5;           ///< Negative samples per positive pair.
  int epochs = 3;              ///< Passes over the corpus.
  double learning_rate = 0.025;///< Initial SGD step; decays linearly to 1e-4.
  int min_count = 2;           ///< Words rarer than this are dropped.
  double subsample = 1e-3;     ///< Frequent-word subsampling threshold (0 = off).
  uint64_t seed = 42;          ///< Deterministic init + sampling.
  /// Worker threads executing the training shards (<= 0 = hardware
  /// concurrency). Affects wall-clock only: the shard layout, RNG streams,
  /// and merge order are functions of (seed, num_shards, corpus) alone, so
  /// output is byte-identical at any thread count.
  int num_threads = 1;
  /// Training shards per epoch. 0 = auto (one shard per ~2048 encoded
  /// sentences, capped at 16 — a pure function of corpus size, never of
  /// thread count). 1 forces the legacy single-stream SGD schedule.
  ///
  /// Schedule change vs. the serial trainer: with S > 1 shards, each epoch
  /// treats the weights as a read-only snapshot, trains every shard
  /// independently against it (shard s sees sentence range ShardRange(n, s,
  /// S), an RNG seeded DeriveStreamSeed(seed, s), and the learning-rate
  /// segment its tokens would occupy in the sequential sweep), then sums the
  /// per-shard weight deltas into the snapshot in fixed shard order. Shards
  /// copy weights row-by-row on first touch (a pristine/working pair per
  /// dirty row), so per-shard memory is proportional to the rows a shard
  /// actually updates, not to the vocabulary — and the merge visits only
  /// those dirty rows. Sparse SGNS updates leave untouched rows with an
  /// exactly-zero delta, so skipping them is bit-identical to the dense
  /// full-matrix merge. With S == 1 the trainer degenerates to exactly the
  /// sequential schedule (one RNG stream continuing from initialization,
  /// in-place updates).
  int num_shards = 0;
};

/// SGNS trainer and embedding table.
class Word2Vec {
 public:
  explicit Word2Vec(Word2VecConfig config = {}) : config_(config) {}

  /// Trains on tokenized sentences (keyword lists). Builds the vocabulary
  /// internally. Returns InvalidArgument for an empty corpus.
  iuad::Status Train(const std::vector<std::vector<std::string>>& sentences);

  /// Reinstates a trained embedding table from snapshot parts (src/io):
  /// the vocabulary and one input vector per vocabulary id, in id order.
  /// Restores the full inference surface — VectorOf / MeanOf and the
  /// vocabulary-frequency reads the similarity functions make —
  /// byte-identically. Training-side state (context
  /// vectors, negative table) is NOT restored: calling Train again on a
  /// restored object retrains from scratch exactly as on a fresh one.
  static iuad::Result<Word2Vec> Restore(Word2VecConfig config,
                                        Vocabulary vocab,
                                        std::vector<Vec> in_vectors,
                                        double final_lr,
                                        int64_t trained_tokens);

  /// Returns the vector of `word`, or nullptr if out-of-vocabulary.
  const Vec* VectorOf(const std::string& word) const;

  /// Mean vector of the in-vocabulary subset of `words`; zero vector if none
  /// are known. This is W(v) of Eq. 6.
  Vec MeanOf(const std::vector<std::string>& words) const;

  int dim() const { return config_.dim; }
  const Vocabulary& vocabulary() const { return vocab_; }
  bool trained() const { return trained_; }

  /// The learning rate applied to the last (non-subsampled) token of the
  /// final epoch. The linear decay reaches its 1e-4 floor exactly when the
  /// token accounting is correct, which the schedule regression test pins.
  double final_learning_rate() const { return final_lr_; }

  /// Tokens per epoch that actually drive the lr schedule (in-vocabulary
  /// tokens of kept sentences only — dropped sentences contribute nothing).
  int64_t trained_tokens() const { return trained_tokens_; }

  /// The negative-sampling table (test hook: slot shares must track the
  /// unigram^0.75 distribution). Empty before Train.
  const std::vector<int>& negative_table() const { return negative_table_; }

 private:
  void BuildNegativeTable();
  int SampleNegative(iuad::Rng* rng) const;
  /// Resolves config_.num_shards against the corpus size (see the config
  /// field comment); always in [1, num_sentences].
  int ResolveNumShards(size_t num_sentences) const;
  /// One epoch-segment of SGD over encoded sentences [begin, end), writing
  /// into *in / *out. `steps_base` positions the segment on the global
  /// learning-rate schedule (lr decays with (steps_base + local step) /
  /// total_steps). Reads only immutable members (vocab, negative table), so
  /// distinct ranges with distinct buffers may run concurrently. Rows is
  /// any row store exposing `Vec& operator[](size_t)` — a plain
  /// std::vector<Vec> for the in-place S == 1 path, or the copy-on-write
  /// per-shard store (see word2vec.cpp) for the sharded path.
  template <typename Rows>
  void TrainRange(const std::vector<std::vector<int>>& encoded, size_t begin,
                  size_t end, double steps_base, double total_steps,
                  iuad::Rng* rng, Rows* in, Rows* out, double* last_lr) const;

  Word2VecConfig config_;
  Vocabulary vocab_;
  std::vector<Vec> in_vectors_;   // word embeddings (the output of training)
  std::vector<Vec> out_vectors_;  // context-side parameters
  std::vector<int> negative_table_;
  bool trained_ = false;
  double final_lr_ = 0.0;
  int64_t trained_tokens_ = 0;
};

}  // namespace iuad::text

#endif  // IUAD_TEXT_WORD2VEC_H_
