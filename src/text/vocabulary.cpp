#include "text/vocabulary.h"

namespace iuad::text {

int Vocabulary::Add(const std::string& word) { return AddCount(word, 1); }

int Vocabulary::AddCount(const std::string& word, int64_t n) {
  auto [it, inserted] = index_.try_emplace(word, static_cast<int>(words_.size()));
  if (inserted) {
    words_.push_back(word);
    counts_.push_back(0);
  }
  counts_[static_cast<size_t>(it->second)] += n;
  total_ += n;
  return it->second;
}

int Vocabulary::Lookup(const std::string& word) const {
  auto it = index_.find(word);
  return it == index_.end() ? kUnknown : it->second;
}

}  // namespace iuad::text
