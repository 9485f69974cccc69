#include "text/word2vec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include "util/thread_pool.h"

namespace iuad::text {

namespace {

/// Numerically-safe logistic.
inline double Sigmoid(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Auto-sharding constants: one shard per this many encoded sentences,
/// capped. Pure functions of corpus size so the shard layout (and thus the
/// training schedule) never depends on the executing thread count.
constexpr size_t kAutoShardGrain = 2048;
constexpr int kMaxAutoShards = 16;

/// Copy-on-write row store for one shard's epoch pass: reads through to the
/// shared base matrix and materializes a (pristine, working) row pair the
/// first time a row is written. Training only ever touches the rows its
/// sentences and negative samples hit, so per-shard memory is O(dirty rows
/// * dim) instead of O(vocab * dim), and the merge can skip everything
/// else. Deques keep row references stable across first-touch insertions —
/// TrainRange holds a `Vec&` into one store while faulting rows into the
/// other (and, between negative samples, into the same one).
class CowRows {
 public:
  explicit CowRows(const std::vector<Vec>* base)
      : base_(base), slot_(base->size(), -1) {}

  /// Mutable row access; faults in a copy of the base row on first touch.
  Vec& operator[](size_t w) {
    int32_t s = slot_[w];
    if (s < 0) {
      s = static_cast<int32_t>(dirty_.size());
      slot_[w] = s;
      dirty_.push_back(w);
      pristine_.push_back((*base_)[w]);
      working_.push_back((*base_)[w]);
    }
    return working_[static_cast<size_t>(s)];
  }

  /// Rows this shard wrote, in first-touch order. The order is a function
  /// of the shard's deterministic training stream, never of thread count —
  /// and within one shard the merge touches each (row, k) once, so the
  /// visit order does not affect the float sums anyway.
  const std::vector<size_t>& dirty() const { return dirty_; }
  const Vec& pristine(size_t i) const { return pristine_[i]; }
  const Vec& working(size_t i) const { return working_[i]; }

 private:
  const std::vector<Vec>* base_;
  std::vector<int32_t> slot_;  ///< vocab id -> dirty index, -1 = clean.
  std::vector<size_t> dirty_;
  std::deque<Vec> pristine_;  ///< Base rows as of first touch.
  std::deque<Vec> working_;   ///< The shard's trained rows.
};

}  // namespace

int Word2Vec::ResolveNumShards(size_t num_sentences) const {
  if (num_sentences == 0) return 1;
  int64_t shards;
  if (config_.num_shards > 0) {
    shards = config_.num_shards;
  } else {
    shards = static_cast<int64_t>(num_sentences / kAutoShardGrain);
    shards = std::min<int64_t>(shards, kMaxAutoShards);
  }
  shards = std::min<int64_t>(shards, static_cast<int64_t>(num_sentences));
  return static_cast<int>(std::max<int64_t>(shards, 1));
}

iuad::Result<Word2Vec> Word2Vec::Restore(Word2VecConfig config,
                                         Vocabulary vocab,
                                         std::vector<Vec> in_vectors,
                                         double final_lr,
                                         int64_t trained_tokens) {
  if (vocab.size() == 0 ||
      in_vectors.size() != static_cast<size_t>(vocab.size())) {
    return iuad::Status::InvalidArgument(
        "word2vec restore: vocabulary/vector count mismatch");
  }
  for (const Vec& v : in_vectors) {
    if (v.size() != static_cast<size_t>(config.dim)) {
      return iuad::Status::InvalidArgument(
          "word2vec restore: vector dimension disagrees with config.dim");
    }
  }
  Word2Vec w2v(config);
  w2v.vocab_ = std::move(vocab);
  w2v.in_vectors_ = std::move(in_vectors);
  w2v.final_lr_ = final_lr;
  w2v.trained_tokens_ = trained_tokens;
  w2v.trained_ = true;
  return w2v;
}

iuad::Status Word2Vec::Train(
    const std::vector<std::vector<std::string>>& sentences) {
  if (sentences.empty()) {
    return iuad::Status::InvalidArgument("word2vec: empty corpus");
  }

  // Pass 1: count words.
  Vocabulary full;
  for (const auto& sent : sentences) {
    for (const auto& w : sent) full.Add(w);
  }
  // Keep only words above min_count; re-index densely.
  vocab_ = Vocabulary();
  for (int id = 0; id < full.size(); ++id) {
    if (full.CountOf(id) >= config_.min_count) {
      vocab_.AddCount(full.WordOf(id), full.CountOf(id));
    }
  }
  if (vocab_.size() == 0) {
    return iuad::Status::InvalidArgument(
        "word2vec: no word meets min_count; lower min_count or enlarge corpus");
  }

  const int v = vocab_.size();
  const size_t d = static_cast<size_t>(config_.dim);
  iuad::Rng rng(config_.seed);
  in_vectors_.assign(static_cast<size_t>(v), Vec(d));
  out_vectors_.assign(static_cast<size_t>(v), Vec(d, 0.0f));
  const float init_span = 0.5f / static_cast<float>(config_.dim);
  for (auto& vec : in_vectors_) {
    for (auto& x : vec) {
      x = (static_cast<float>(rng.UniformDouble()) - 0.5f) * 2.0f * init_span;
    }
  }
  BuildNegativeTable();

  // Encode sentences as id sequences once. Only sentences kept for training
  // (>= 2 in-vocabulary words) contribute to the token count that drives
  // the learning-rate schedule: counting dropped sentences would leave
  // steps_done short of total_steps forever, so the decay never reached its
  // floor.
  std::vector<std::vector<int>> encoded;
  encoded.reserve(sentences.size());
  int64_t total_tokens = 0;
  for (const auto& sent : sentences) {
    std::vector<int> ids;
    ids.reserve(sent.size());
    for (const auto& w : sent) {
      int id = vocab_.Lookup(w);
      if (id != Vocabulary::kUnknown) ids.push_back(id);
    }
    if (ids.size() >= 2) {
      total_tokens += static_cast<int64_t>(ids.size());
      encoded.push_back(std::move(ids));
    }
  }
  if (encoded.empty()) {
    return iuad::Status::InvalidArgument(
        "word2vec: no sentence has >= 2 in-vocabulary words");
  }
  trained_tokens_ = total_tokens;

  const double total_steps =
      static_cast<double>(config_.epochs) * static_cast<double>(total_tokens);
  const int num_shards = ResolveNumShards(encoded.size());

  if (num_shards == 1) {
    // Legacy sequential schedule: one RNG stream (continuing from the
    // initialization draws above), in-place updates.
    double last_lr = config_.learning_rate;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      TrainRange(encoded, 0, encoded.size(),
                 static_cast<double>(epoch) * static_cast<double>(total_tokens),
                 total_steps, &rng, &in_vectors_, &out_vectors_, &last_lr);
    }
    final_lr_ = last_lr;
    trained_ = true;
    return iuad::Status::OK();
  }

  // Sharded schedule (see Word2VecConfig::num_shards). Shard boundaries,
  // RNG streams, lr segments, and the merge order are all functions of
  // (seed, num_shards, corpus) — the pool size below changes wall-clock
  // only, never the result.
  const size_t S = static_cast<size_t>(num_shards);
  std::vector<size_t> sent_begin(S + 1);
  for (size_t s = 0; s <= S; ++s) {
    sent_begin[s] = util::ShardRange(encoded.size(), s, S).first;
  }
  sent_begin[S] = encoded.size();
  // token_offset[s]: tokens in sentences before shard s — the shard's
  // position on the per-epoch learning-rate schedule, matching where its
  // tokens would sit in the sequential sweep.
  std::vector<int64_t> token_offset(S + 1, 0);
  {
    size_t s = 0;
    int64_t acc = 0;
    for (size_t i = 0; i < encoded.size(); ++i) {
      while (s < S && sent_begin[s] == i) token_offset[s++] = acc;
      acc += static_cast<int64_t>(encoded[i].size());
    }
    while (s <= S) token_offset[s++] = acc;
  }

  std::vector<iuad::Rng> shard_rngs;
  shard_rngs.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shard_rngs.emplace_back(iuad::DeriveStreamSeed(config_.seed, s));
  }
  std::vector<double> shard_last_lr(S, config_.learning_rate);
  util::ThreadPool pool(util::ResolveNumThreads(config_.num_threads));

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // The live matrices ARE the epoch snapshot: they stay read-only while
    // the shards run, and each shard copies just the rows it touches.
    std::vector<CowRows> local_in(S, CowRows(&in_vectors_));
    std::vector<CowRows> local_out(S, CowRows(&out_vectors_));
    const double epoch_base =
        static_cast<double>(epoch) * static_cast<double>(total_tokens);
    pool.ParallelFor(S, [&](size_t s) {
      TrainRange(encoded, sent_begin[s], sent_begin[s + 1],
                 epoch_base + static_cast<double>(token_offset[s]), total_steps,
                 &shard_rngs[s], &local_in[s], &local_out[s],
                 &shard_last_lr[s]);
    });
    // Merge the per-shard weight deltas in fixed shard order, visiting only
    // each shard's dirty rows. Float sums in a fixed order are
    // deterministic; sparse SGNS updates make the deltas near-disjoint, so
    // summing (not averaging) keeps per-word step sizes. Clean rows have an
    // exactly-zero delta, so skipping them is bit-identical to the dense
    // merge. Deltas are computed against each row's pristine copy, not the
    // live matrix — earlier shards' merges must not leak into later deltas.
    for (size_t s = 0; s < S; ++s) {
      auto merge = [d](const CowRows& rows, std::vector<Vec>* into) {
        for (size_t i = 0; i < rows.dirty().size(); ++i) {
          Vec& dst = (*into)[rows.dirty()[i]];
          const Vec& pristine = rows.pristine(i);
          const Vec& working = rows.working(i);
          for (size_t k = 0; k < d; ++k) dst[k] += working[k] - pristine[k];
        }
      };
      merge(local_in[s], &in_vectors_);
      merge(local_out[s], &out_vectors_);
    }
  }
  final_lr_ = shard_last_lr[S - 1];
  trained_ = true;
  return iuad::Status::OK();
}

template <typename Rows>
void Word2Vec::TrainRange(const std::vector<std::vector<int>>& encoded,
                          size_t begin, size_t end, double steps_base,
                          double total_steps, iuad::Rng* rng, Rows* in,
                          Rows* out, double* last_lr) const {
  const size_t d = static_cast<size_t>(config_.dim);
  std::vector<float> grad_in(d);
  double steps_done = 0.0;
  for (size_t si = begin; si < end; ++si) {
    const auto& sent = encoded[si];
    for (size_t pos = 0; pos < sent.size(); ++pos) {
      steps_done += 1.0;
      const int center = sent[pos];
      // Frequent-word subsampling (Mikolov et al. 2013, Eq. 5 analogue).
      if (config_.subsample > 0.0) {
        double f = static_cast<double>(vocab_.CountOf(center)) /
                   static_cast<double>(vocab_.total_count());
        double keep = (std::sqrt(f / config_.subsample) + 1.0) *
                      (config_.subsample / f);
        if (keep < 1.0 && rng->UniformDouble() > keep) continue;
      }
      const double lr = std::max(
          1e-4, config_.learning_rate *
                    (1.0 - (steps_base + steps_done) / total_steps));
      *last_lr = lr;
      // Dynamic window (uniform in [1, window]) as in the reference impl.
      const int b = 1 + static_cast<int>(rng->NextBounded(
                            static_cast<uint64_t>(config_.window)));
      const int lo = std::max<int>(0, static_cast<int>(pos) - b);
      const int hi = std::min<int>(static_cast<int>(sent.size()) - 1,
                                   static_cast<int>(pos) + b);
      for (int cpos = lo; cpos <= hi; ++cpos) {
        if (cpos == static_cast<int>(pos)) continue;
        const int context = sent[static_cast<size_t>(cpos)];
        Vec& w_in = (*in)[static_cast<size_t>(center)];
        std::fill(grad_in.begin(), grad_in.end(), 0.0f);
        // One positive + `negatives` negative updates.
        for (int neg = 0; neg <= config_.negatives; ++neg) {
          int target;
          double label;
          if (neg == 0) {
            target = context;
            label = 1.0;
          } else {
            target = SampleNegative(rng);
            if (target == context) continue;
            label = 0.0;
          }
          Vec& w_out = (*out)[static_cast<size_t>(target)];
          const double score = Sigmoid(Dot(w_in, w_out));
          const float g = static_cast<float>(lr * (label - score));
          for (size_t i = 0; i < d; ++i) {
            grad_in[i] += g * w_out[i];
            w_out[i] += g * w_in[i];
          }
        }
        for (size_t i = 0; i < d; ++i) w_in[i] += grad_in[i];
      }
    }
  }
}

void Word2Vec::BuildNegativeTable() {
  // Unigram^0.75 table of fixed size; standard SGNS noise distribution.
  // Word id w fills exactly the slots [floor(cum_{w-1} * T), floor(cum_w *
  // T)), so every word's slot share matches its unigram^0.75 probability to
  // within 1/T. (The previous `i / T > acc` sweep advanced the id one slot
  // late at every boundary, systematically over-allocating early ids.)
  constexpr int kTableSize = 1 << 18;
  negative_table_.assign(kTableSize, vocab_.size() - 1);
  double total = 0.0;
  for (int id = 0; id < vocab_.size(); ++id) {
    total += std::pow(static_cast<double>(vocab_.CountOf(id)), 0.75);
  }
  double acc = 0.0;
  int slot = 0;
  for (int id = 0; id < vocab_.size() && slot < kTableSize; ++id) {
    acc += std::pow(static_cast<double>(vocab_.CountOf(id)), 0.75) / total;
    const int boundary = std::min(
        kTableSize, static_cast<int>(acc * static_cast<double>(kTableSize)));
    for (; slot < boundary; ++slot) negative_table_[static_cast<size_t>(slot)] = id;
  }
  // Rounding slack at the top of the table stays with the last id (the
  // assign() above already placed it).
}

int Word2Vec::SampleNegative(iuad::Rng* rng) const {
  return negative_table_[static_cast<size_t>(
      rng->NextBounded(negative_table_.size()))];
}

const Vec* Word2Vec::VectorOf(const std::string& word) const {
  int id = vocab_.Lookup(word);
  if (id == Vocabulary::kUnknown || !trained_) return nullptr;
  return &in_vectors_[static_cast<size_t>(id)];
}

Vec Word2Vec::MeanOf(const std::vector<std::string>& words) const {
  std::vector<const Vec*> vs;
  for (const auto& w : words) {
    if (const Vec* v = VectorOf(w)) vs.push_back(v);
  }
  return MeanVector(vs, static_cast<size_t>(config_.dim));
}

}  // namespace iuad::text
