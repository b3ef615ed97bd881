// Each output check the benchmark makes must reject a corrupted output.
// Every test feeds a check one good and one corrupted input.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "checks.h"
#include "stats.h"

namespace perfbench {
namespace {

RefModel MakeModel(double shift) {
  RefModel m;
  m.num_users = 3;
  m.num_items = 40;
  m.dim = 4;
  for (size_t i = 0; i < m.num_users * m.dim; ++i) {
    m.users.push_back(std::sin(1.0 + i) + shift);
  }
  for (size_t i = 0; i < m.num_items * m.dim; ++i) {
    m.items.push_back(std::cos(0.37 * i) * (1.0 + 0.01 * i));
  }
  return m;
}

TEST(SlateCheck, AcceptsTheReferenceTopK) {
  const RefModel m = MakeModel(0.0);
  for (size_t u = 0; u < m.num_users; ++u) {
    const auto slate = RefTopK(m, u, 10);
    EXPECT_EQ(CheckSlateScores(m, u, 10, slate), "");
    EXPECT_EQ(CheckSlateComplete(m, u, 10, slate), "");
  }
}

TEST(SlateCheck, RejectsTwoItemsSwapped) {
  const RefModel m = MakeModel(0.0);
  auto slate = RefTopK(m, 1, 10);
  std::swap(slate[3], slate[4]);
  EXPECT_NE(CheckSlateScores(m, 1, 10, slate), "");
}

TEST(SlateCheck, RejectsTiesOutOfIdOrder) {
  RefModel m = MakeModel(0.0);
  // Items 0 and 1 identical: equal scores must list item 0 first.
  for (size_t c = 0; c < m.dim; ++c) m.items[m.dim + c] = m.items[c];
  const double s = RefScore(m, 0, 0);
  const std::vector<SlateEntry> good = {{0, s}, {1, s}};
  const std::vector<SlateEntry> bad = {{1, s}, {0, s}};
  EXPECT_EQ(CheckSlateScores(m, 0, 2, good).find("out of order"),
            std::string::npos);
  EXPECT_NE(CheckSlateScores(m, 0, 2, bad), "");
}

TEST(SlateCheck, RejectsAScoreOffByMoreThanTheTolerance) {
  const RefModel m = MakeModel(0.0);
  auto slate = RefTopK(m, 2, 10);
  slate[5].score *= 1.0 + 1e-7;
  EXPECT_NE(CheckSlateScores(m, 2, 10, slate), "");
}

TEST(SlateCheck, RejectsAStaleGenerationSlate) {
  const RefModel live = MakeModel(0.0);
  const RefModel previous = MakeModel(0.5);
  const auto stale = RefTopK(previous, 0, 10);
  EXPECT_EQ(CheckSlateScores(previous, 0, 10, stale), "");
  EXPECT_NE(CheckSlateScores(live, 0, 10, stale), "");
}

TEST(SlateCheck, RejectsAMissingTopItem) {
  const RefModel m = MakeModel(0.0);
  // Ranks 2..11: well ordered and exactly scored, but the top item is
  // missing, so only the completeness check can see it.
  auto eleven = RefTopK(m, 0, 11);
  const std::vector<SlateEntry> slate(eleven.begin() + 1, eleven.end());
  EXPECT_EQ(CheckSlateScores(m, 0, 10, slate), "");
  EXPECT_NE(CheckSlateComplete(m, 0, 10, slate), "");
}

TEST(SlateCheck, RejectsShortDuplicateAndOutOfRangeSlates) {
  const RefModel m = MakeModel(0.0);
  auto slate = RefTopK(m, 0, 10);
  auto shorter = slate;
  shorter.pop_back();
  EXPECT_NE(CheckSlateScores(m, 0, 10, shorter), "");
  auto dup = slate;
  dup[9] = dup[8];
  EXPECT_NE(CheckSlateScores(m, 0, 10, dup), "");
  auto out_of_range = slate;
  out_of_range[9].item = static_cast<uint32_t>(m.num_items);
  EXPECT_NE(CheckSlateScores(m, 0, 10, out_of_range), "");
}

TEST(AucCheck, MannWhitneyCountsTiesHalf) {
  EXPECT_DOUBLE_EQ(MannWhitneyAuc({0.1, 0.4, 0.35, 0.8},
                                  {false, false, true, true}),
                   0.75);
  EXPECT_DOUBLE_EQ(MannWhitneyAuc({0.5, 0.5}, {false, true}), 0.5);
  EXPECT_TRUE(std::isnan(MannWhitneyAuc({0.5, 0.7}, {true, true})));
}

TEST(AucCheck, RejectsAnAucOffBy1eMinus6) {
  EXPECT_EQ(CheckAucMatches(0.6, 0.6), "");
  EXPECT_NE(CheckAucMatches(0.6, 0.6 + 1e-6), "");
  EXPECT_NE(CheckAucMatches(0.6, std::nan("")), "");
}

TEST(AucCheck, RejectsChanceAuc) {
  EXPECT_EQ(CheckAucAboveChance(0.55), "");
  EXPECT_NE(CheckAucAboveChance(0.5), "");
  EXPECT_NE(CheckAucAboveChance(std::nan("")), "");
}

TEST(PredictionCheck, RejectsValuesOutsideTheOpenUnitInterval) {
  EXPECT_EQ(CheckPredictions({0.2, 0.9}), "");
  EXPECT_NE(CheckPredictions({0.2, 1.0}), "");
  EXPECT_NE(CheckPredictions({0.0, 0.5}), "");
  EXPECT_NE(CheckPredictions({std::nan(""), 0.5}), "");
  EXPECT_NE(CheckPredictions({std::numeric_limits<double>::infinity()}), "");
}

TEST(DisentangleCheck, RejectsAFlatHistory) {
  EXPECT_EQ(CheckDisentangleFall({1.0, 0.3, 0.01}), "");
  EXPECT_NE(CheckDisentangleFall({1.0, 1.0, 1.0}), "");
  EXPECT_NE(CheckDisentangleFall({1.0, 0.2}), "");
  EXPECT_NE(CheckDisentangleFall({1.0}), "");
}

TEST(CountsCheck, RejectsAnyRungMismatch) {
  const RungCounts own{100, 60, 40, 0, 0};
  EXPECT_EQ(CheckCountsMatch(own, own), "");
  RungCounts other = own;
  other.requests = 101;
  EXPECT_NE(CheckCountsMatch(own, other), "");
  other = own;
  other.cached = 39;
  other.popularity = 1;
  EXPECT_NE(CheckCountsMatch(own, other), "");
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.1), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2}, 0.25), 1.25);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

}  // namespace
}  // namespace perfbench
