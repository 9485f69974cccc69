#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <unordered_set>

#include "data/corpus_generator.h"
#include "data/paper_database.h"
#include "mining/pair_miner.h"
#include "testing_utils.h"
#include "util/stats.h"
#include "util/tsv.h"

namespace iuad::data {
namespace {

// --------------------------- Paper ------------------------------------------

TEST(PaperTest, PositionOfName) {
  Paper p = iuad::testing::MakePaper({"x", "y", "z"});
  EXPECT_EQ(p.PositionOfName("y"), 1);
  EXPECT_EQ(p.PositionOfName("w"), -1);
}

TEST(PaperTest, TrueAuthorOfName) {
  Paper p = iuad::testing::MakePaper({"x", "y"}, "t", "v", 2000, {10, 20});
  EXPECT_EQ(p.TrueAuthorOfName("y"), 20);
  EXPECT_EQ(p.TrueAuthorOfName("nope"), kUnknownAuthor);
  Paper unlabeled = iuad::testing::MakePaper({"x"});
  EXPECT_EQ(unlabeled.TrueAuthorOfName("x"), kUnknownAuthor);
}

// --------------------------- PaperDatabase ----------------------------------

TEST(PaperDatabaseTest, AddAssignsDenseIdsAndIndexes) {
  PaperDatabase db;
  const int id0 = db.AddPaper(iuad::testing::MakePaper({"a", "b"}));
  const int id1 = db.AddPaper(iuad::testing::MakePaper({"b", "c"}));
  EXPECT_EQ(id0, 0);
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(db.num_papers(), 2);
  EXPECT_EQ(db.PapersWithName("b"), (std::vector<int>{0, 1}));
  EXPECT_EQ(db.PapersWithName("a"), (std::vector<int>{0}));
  EXPECT_TRUE(db.PapersWithName("zz").empty());
  EXPECT_EQ(db.author_paper_pairs(), 4);
}

TEST(PaperDatabaseTest, VenueAndKeywordFrequencies) {
  PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"a"}, "graph kernels", "ICDE", 2019));
  db.AddPaper(iuad::testing::MakePaper({"b"}, "graph mining", "ICDE", 2020));
  db.AddPaper(iuad::testing::MakePaper({"c"}, "entity matching", "VLDB", 2021));
  EXPECT_EQ(db.VenueFrequency("ICDE"), 2);
  EXPECT_EQ(db.VenueFrequency("VLDB"), 1);
  EXPECT_EQ(db.VenueFrequency("KDD"), 0);
  EXPECT_EQ(db.KeywordFrequency("graph"), 2);
  EXPECT_EQ(db.KeywordFrequency("matching"), 1);
  EXPECT_EQ(db.KeywordFrequency("the"), 0);  // stop word never indexed
  EXPECT_EQ(db.max_year(), 2021);
}

TEST(PaperDatabaseTest, KeywordsOfCachesExtraction) {
  PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"a"}, "On the Mining of Graphs"));
  EXPECT_EQ(db.KeywordsOf(0), (std::vector<std::string>{"mining", "graphs"}));
}

TEST(PaperDatabaseTest, DuplicateNameInBylineIndexedOnce) {
  PaperDatabase db;
  Paper p = iuad::testing::MakePaper({"a", "a"});
  db.AddPaper(p);
  EXPECT_EQ(db.PapersWithName("a"), (std::vector<int>{0}));
}

TEST(PaperDatabaseTest, PrefixByYearFraction) {
  PaperDatabase db;
  for (int y : {2005, 2001, 2003, 2002, 2004}) {
    db.AddPaper(iuad::testing::MakePaper({"a"}, "t", "v", y));
  }
  PaperDatabase p40 = db.PrefixByYearFraction(0.4);
  EXPECT_EQ(p40.num_papers(), 2);
  std::set<int> years;
  for (const auto& p : p40.papers()) years.insert(p.year);
  EXPECT_EQ(years, (std::set<int>{2001, 2002}));
  EXPECT_EQ(db.PrefixByYearFraction(1.0).num_papers(), 5);
  EXPECT_EQ(db.PrefixByYearFraction(0.0).num_papers(), 0);
  EXPECT_EQ(db.PrefixByYearFraction(2.0).num_papers(), 5);  // clamped
}

TEST(PaperDatabaseTest, HoldOutLatest) {
  PaperDatabase db;
  for (int y : {2005, 2001, 2003, 2002, 2004}) {
    db.AddPaper(iuad::testing::MakePaper({"a"}, "t", "v", y));
  }
  auto [hist, stream] = db.HoldOutLatest(2);
  EXPECT_EQ(hist.num_papers(), 3);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].year, 2004);
  EXPECT_EQ(stream[1].year, 2005);
  auto [all_hist, empty_stream] = db.HoldOutLatest(0);
  EXPECT_EQ(all_hist.num_papers(), 5);
  EXPECT_TRUE(empty_stream.empty());
  auto [none, everything] = db.HoldOutLatest(99);
  EXPECT_EQ(none.num_papers(), 0);
  EXPECT_EQ(everything.size(), 5u);
}

TEST(PaperDatabaseTest, TsvRoundTrip) {
  PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"Al Pha", "Be Ta"}, "deep graphs",
                                       "ICDE", 2019, {3, 7}));
  db.AddPaper(iuad::testing::MakePaper({"Ga Mma"}, "untagged paper", "VLDB",
                                       2020));
  const std::string path =
      (std::filesystem::temp_directory_path() / "iuad_db_test.tsv").string();
  ASSERT_TRUE(db.SaveTsv(path).ok());
  auto loaded = PaperDatabase::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_papers(), 2);
  EXPECT_EQ(loaded->paper(0).author_names,
            (std::vector<std::string>{"Al Pha", "Be Ta"}));
  EXPECT_EQ(loaded->paper(0).true_author_ids, (std::vector<AuthorId>{3, 7}));
  EXPECT_TRUE(loaded->paper(1).true_author_ids.empty());
  EXPECT_EQ(loaded->paper(1).venue, "VLDB");
  std::remove(path.c_str());
}

TEST(PaperDatabaseTest, LoadRejectsMalformedRows) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string bad1 = (dir / "iuad_bad1.tsv").string();
  ASSERT_TRUE(iuad::WriteTsvFile(bad1, {{"0", "2000", "V"}}).ok());
  EXPECT_FALSE(PaperDatabase::LoadTsv(bad1).ok());
  std::remove(bad1.c_str());

  const std::string bad2 = (dir / "iuad_bad2.tsv").string();
  ASSERT_TRUE(iuad::WriteTsvFile(
                  bad2, {{"0", "2000", "V", "title", "a|b", "1"}})
                  .ok());  // gt length mismatch
  EXPECT_FALSE(PaperDatabase::LoadTsv(bad2).ok());

  // Malformed numbers must not load as 0; the error names the field.
  const std::vector<std::pair<TsvRow, std::string>> bad_numbers = {
      {{"0", "20x0", "V", "title", "a", "1"}, "year"},
      {{"0", "", "V", "title", "a", "1"}, "year"},
      {{"0", "2000", "V", "title", "a|b", "1|7a"}, "ground-truth author id"},
      {{"0", "2000", "V", "title", "a|b", "1|"}, "ground-truth author id"},
  };
  for (const auto& [row, field] : bad_numbers) {
    ASSERT_TRUE(iuad::WriteTsvFile(bad2, {row}).ok());
    const auto loaded = PaperDatabase::LoadTsv(bad2);
    ASSERT_FALSE(loaded.ok()) << row[1] << " / " << row[5];
    EXPECT_EQ(loaded.status().code(), iuad::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(field), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(bad2.c_str());
}

// --------------------------- CorpusGenerator --------------------------------

class CorpusGeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(iuad::testing::SmallCorpus());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static Corpus* corpus_;
};
Corpus* CorpusGeneratorTest::corpus_ = nullptr;

TEST_F(CorpusGeneratorTest, GeneratesRequestedPaperCount) {
  EXPECT_EQ(corpus_->db.num_papers(), 2500);
}

TEST_F(CorpusGeneratorTest, GroundTruthIsConsistent) {
  for (const auto& p : corpus_->db.papers()) {
    ASSERT_EQ(p.author_names.size(), p.true_author_ids.size());
    std::unordered_set<std::string> names;
    std::unordered_set<AuthorId> ids;
    for (size_t i = 0; i < p.author_names.size(); ++i) {
      // Bylines never repeat a name or an author.
      EXPECT_TRUE(names.insert(p.author_names[i]).second);
      EXPECT_TRUE(ids.insert(p.true_author_ids[i]).second);
      // The printed name matches the planted author's name.
      const auto& prof =
          corpus_->authors[static_cast<size_t>(p.true_author_ids[i])];
      EXPECT_EQ(prof.name, p.author_names[i]);
    }
  }
}

TEST_F(CorpusGeneratorTest, YearsWithinLeadCareer) {
  for (const auto& p : corpus_->db.papers()) {
    const auto& lead =
        corpus_->authors[static_cast<size_t>(p.true_author_ids[0])];
    EXPECT_GE(p.year, lead.career_start);
    EXPECT_LE(p.year, lead.career_end);
  }
}

TEST_F(CorpusGeneratorTest, ProducesAmbiguousNames) {
  auto names = corpus_->AmbiguousNames(2);
  EXPECT_GT(names.size(), 5u);  // homonyms must exist for the task to be real
  // Every ambiguous name indeed has >= 2 distinct true authors in the db.
  for (const auto& name : names) {
    auto clusters = corpus_->TrueClustersOfName(name);
    EXPECT_GE(clusters.size(), 2u) << name;
  }
}

TEST_F(CorpusGeneratorTest, TrueClustersPartitionTheNamePapers) {
  for (const auto& name : corpus_->AmbiguousNames(2)) {
    auto clusters = corpus_->TrueClustersOfName(name);
    size_t total = 0;
    for (const auto& [author, papers] : clusters) total += papers.size();
    EXPECT_EQ(total, corpus_->db.PapersWithName(name).size());
  }
}

TEST_F(CorpusGeneratorTest, PapersPerNameIsHeavyTailed) {
  // Fig. 3a: the papers-per-name histogram should fit a clearly negative
  // log-log slope.
  std::vector<int64_t> counts;
  for (const auto& name : corpus_->db.names()) {
    counts.push_back(
        static_cast<int64_t>(corpus_->db.PapersWithName(name).size()));
  }
  auto fit = iuad::FitPowerLaw(iuad::FrequencyHistogram(counts));
  EXPECT_LT(fit.slope, -0.8);
  EXPECT_GT(fit.used_points, 10);
}

TEST_F(CorpusGeneratorTest, CoauthorPairFrequencyIsHeavyTailed) {
  // Fig. 3b: the 2-itemset frequency histogram also follows a power law —
  // the "stable collaborative relation" phenomenon the method depends on.
  mining::ItemEncoder enc;
  mining::PairCounter counter;
  for (const auto& p : corpus_->db.papers()) {
    mining::Transaction t;
    for (const auto& n : p.author_names) t.push_back(enc.Encode(n));
    counter.AddTransaction(t);
  }
  std::vector<int64_t> freqs;
  for (const auto& [key, c] : counter.counts()) freqs.push_back(c);
  auto fit = iuad::FitPowerLaw(iuad::FrequencyHistogram(freqs));
  EXPECT_LT(fit.slope, -1.0);
  // Repeat collaborations must actually exist (support for η = 2 mining).
  int64_t repeats = 0;
  for (int64_t f : freqs) {
    if (f >= 2) ++repeats;
  }
  EXPECT_GT(repeats, 100);
}

TEST_F(CorpusGeneratorTest, DeterministicForSameSeed) {
  Corpus again = iuad::testing::SmallCorpus();
  ASSERT_EQ(again.db.num_papers(), corpus_->db.num_papers());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(again.db.paper(i).title, corpus_->db.paper(i).title);
    EXPECT_EQ(again.db.paper(i).author_names,
              corpus_->db.paper(i).author_names);
  }
}

TEST_F(CorpusGeneratorTest, DifferentSeedsDiffer) {
  Corpus other = iuad::testing::SmallCorpus(/*seed=*/999);
  int diff = 0;
  for (int i = 0; i < 50; ++i) {
    if (other.db.paper(i).title != corpus_->db.paper(i).title) ++diff;
  }
  EXPECT_GT(diff, 25);
}

TEST(CorpusGeneratorConfigTest, HomonymRateRespondsToPoolSize) {
  CorpusConfig many;
  many.num_communities = 4;
  many.authors_per_community = 30;
  many.num_papers = 800;
  many.given_name_pool = 400;  // huge pools -> few collisions
  many.surname_pool = 400;
  many.seed = 5;
  Corpus sparse = CorpusGenerator(many).Generate();

  CorpusConfig few = many;
  few.given_name_pool = 12;  // tiny pools -> many homonyms
  few.surname_pool = 10;
  Corpus dense = CorpusGenerator(few).Generate();

  EXPECT_GT(dense.AmbiguousNames(2).size(), sparse.AmbiguousNames(2).size());
}

}  // namespace
}  // namespace iuad::data
