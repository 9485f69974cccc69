#include "data/paper_database.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "text/tokenizer.h"
#include "util/strings.h"
#include "util/tsv.h"

namespace iuad::data {

namespace {
const std::vector<int> kNoPapers;

/// Parses the whole of `field` as a base-10 int; InvalidArgument naming
/// `what` on anything else (empty, trailing junk, out of range).
iuad::Result<int> ParseIntField(const std::string& field, const char* what) {
  const std::optional<int> v = ParseNumber<int>(field);
  if (!v) {
    return iuad::Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                         field + "'");
  }
  return *v;
}

/// FNV-1a accumulator. Strings are hashed with their length so record
/// boundaries cannot alias ("ab" + "c" vs "a" + "bc").
struct Fnv1a {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t x) { Bytes(&x, sizeof(x)); }
  void I32(int32_t x) { U64(static_cast<uint64_t>(static_cast<uint32_t>(x))); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};
}  // namespace

uint64_t PaperDatabase::Fingerprint() const {
  Fnv1a f;
  f.U64(static_cast<uint64_t>(papers_.size()));
  for (const Paper& p : papers_) {
    f.I32(p.id);
    f.I32(p.year);
    f.Str(p.venue);
    f.Str(p.title);
    f.U64(p.author_names.size());
    for (const auto& name : p.author_names) f.Str(name);
    f.U64(p.true_author_ids.size());
    for (AuthorId a : p.true_author_ids) f.I32(a);
  }
  return f.h;
}

int PaperDatabase::AddPaper(Paper paper) {
  const int id = static_cast<int>(papers_.size());
  paper.id = id;
  // Index bylines.
  for (const auto& name : paper.author_names) {
    auto [it, inserted] = name_to_papers_.try_emplace(name);
    if (inserted) names_.push_back(name);
    // A name can legitimately appear once per paper; guard against duplicate
    // byline entries producing duplicate index entries.
    if (it->second.empty() || it->second.back() != id) it->second.push_back(id);
  }
  author_paper_pairs_ += static_cast<int64_t>(paper.author_names.size());
  ++venue_freq_[paper.venue];
  max_year_ = std::max(max_year_, paper.year);
  // Extract and index title keywords.
  auto kws = text::ExtractKeywords(paper.title);
  for (const auto& w : kws) ++keyword_freq_[w];
  keywords_.push_back(std::move(kws));
  papers_.push_back(std::move(paper));
  return id;
}

const std::vector<int>& PaperDatabase::PapersWithName(
    const std::string& name) const {
  auto it = name_to_papers_.find(name);
  return it == name_to_papers_.end() ? kNoPapers : it->second;
}

int64_t PaperDatabase::VenueFrequency(const std::string& venue) const {
  auto it = venue_freq_.find(venue);
  return it == venue_freq_.end() ? 0 : it->second;
}

int64_t PaperDatabase::KeywordFrequency(const std::string& word) const {
  auto it = keyword_freq_.find(word);
  return it == keyword_freq_.end() ? 0 : it->second;
}

const std::vector<std::string>& PaperDatabase::KeywordsOf(int paper_id) const {
  return keywords_[static_cast<size_t>(paper_id)];
}

PaperDatabase PaperDatabase::PrefixByYearFraction(double fraction) const {
  fraction = std::clamp(fraction, 0.0, 1.0);
  std::vector<int> order(papers_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return papers_[static_cast<size_t>(a)].year <
           papers_[static_cast<size_t>(b)].year;
  });
  const size_t keep = static_cast<size_t>(
      fraction * static_cast<double>(order.size()) + 0.5);
  order.resize(std::min(order.size(), keep));
  // Preserve original relative id order so ids stay stable-ish.
  std::sort(order.begin(), order.end());
  PaperDatabase out;
  for (int id : order) out.AddPaper(papers_[static_cast<size_t>(id)]);
  return out;
}

std::pair<PaperDatabase, std::vector<Paper>> PaperDatabase::HoldOutLatest(
    int holdout) const {
  std::vector<int> order(papers_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return papers_[static_cast<size_t>(a)].year <
           papers_[static_cast<size_t>(b)].year;
  });
  const size_t h = std::min(order.size(), static_cast<size_t>(std::max(0, holdout)));
  const size_t split = order.size() - h;
  std::vector<int> history(order.begin(), order.begin() + static_cast<long>(split));
  std::vector<int> stream(order.begin() + static_cast<long>(split), order.end());
  std::sort(history.begin(), history.end());
  PaperDatabase hist_db;
  for (int id : history) hist_db.AddPaper(papers_[static_cast<size_t>(id)]);
  std::vector<Paper> stream_papers;
  stream_papers.reserve(stream.size());
  for (int id : stream) stream_papers.push_back(papers_[static_cast<size_t>(id)]);
  return {std::move(hist_db), std::move(stream_papers)};
}

iuad::Status PaperDatabase::SaveTsv(const std::string& path) const {
  std::vector<TsvRow> rows;
  rows.reserve(papers_.size());
  for (const auto& p : papers_) {
    TsvRow row;
    row.push_back(std::to_string(p.id));
    row.push_back(std::to_string(p.year));
    row.push_back(p.venue);
    row.push_back(p.title);
    row.push_back(Join(p.author_names, "|"));
    if (p.true_author_ids.empty()) {
      row.push_back("?");
    } else {
      std::vector<std::string> gts;
      gts.reserve(p.true_author_ids.size());
      for (AuthorId a : p.true_author_ids) gts.push_back(std::to_string(a));
      row.push_back(Join(gts, "|"));
    }
    rows.push_back(std::move(row));
  }
  return WriteTsvFile(path, rows);
}

iuad::Result<PaperDatabase> PaperDatabase::LoadTsv(const std::string& path) {
  auto rows = ReadTsvFile(path);
  if (!rows.ok()) return rows.status();
  PaperDatabase db;
  for (const auto& row : *rows) {
    if (row.size() < 5) {
      return iuad::Status::InvalidArgument(
          "paper TSV row needs >= 5 fields, got " +
          std::to_string(row.size()));
    }
    Paper p;
    IUAD_ASSIGN_OR_RETURN(p.year, ParseIntField(row[1], "year"));
    p.venue = row[2];
    p.title = row[3];
    for (auto& name : Split(row[4], '|')) {
      if (!name.empty()) p.author_names.push_back(std::move(name));
    }
    if (row.size() >= 6 && row[5] != "?") {
      for (const auto& gt : Split(row[5], '|')) {
        IUAD_ASSIGN_OR_RETURN(const int id,
                              ParseIntField(gt, "ground-truth author id"));
        p.true_author_ids.push_back(id);
      }
      if (p.true_author_ids.size() != p.author_names.size()) {
        return iuad::Status::InvalidArgument(
            "ground-truth column length mismatch for paper: " + p.title);
      }
    }
    if (p.author_names.empty()) {
      return iuad::Status::InvalidArgument("paper with empty byline: " +
                                           p.title);
    }
    db.AddPaper(std::move(p));
  }
  return db;
}

}  // namespace iuad::data
