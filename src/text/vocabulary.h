#ifndef IUAD_TEXT_VOCABULARY_H_
#define IUAD_TEXT_VOCABULARY_H_

/// \file vocabulary.h
/// Bidirectional word <-> id mapping with corpus frequencies. Backs both the
/// word2vec trainer and the corpus-frequency terms F_B(b) / F_H(h) in the
/// similarity functions (Eq. 7, Eq. 9).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace iuad::text {

/// Compact word table. Ids are dense, assigned in first-seen order.
class Vocabulary {
 public:
  static constexpr int kUnknown = -1;

  /// Adds one occurrence of `word`, creating an id on first sight.
  /// Returns the word id.
  int Add(const std::string& word);

  /// Adds `n` occurrences.
  int AddCount(const std::string& word, int64_t n);

  /// Returns the id of `word` or kUnknown.
  int Lookup(const std::string& word) const;

  /// Word string for an id (must be valid).
  const std::string& WordOf(int id) const { return words_[static_cast<size_t>(id)]; }

  /// Total occurrences recorded for `id`.
  int64_t CountOf(int id) const { return counts_[static_cast<size_t>(id)]; }

  /// Number of distinct words.
  int size() const { return static_cast<int>(words_.size()); }

  /// Sum of all counts.
  int64_t total_count() const { return total_; }

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> words_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace iuad::text

#endif  // IUAD_TEXT_VOCABULARY_H_
