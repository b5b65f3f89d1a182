// Streaming top-K and fused-scoring evaluation parity. The contracts under
// test (ISSUE 4): the bounded TopKSelector must select EXACTLY the same
// items as the partial_sort reference under the canonical (score desc, item
// id asc) order — including adversarial ties and ±inf — regardless of feed
// order or tile width; the fused (WHITENREC_SCORING=fused) evaluation paths
// must produce bitwise-identical ranks, metrics, and recommendation lists to
// the materialized reference at every thread count; and the nth_element
// popularity head split must match a full-sort reference.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/rng.h"
#include "linalg/topk.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {
namespace {

using linalg::Matrix;
using linalg::RanksBefore;
using linalg::Rng;
using linalg::ScoredItem;
using linalg::ScoringMode;
using linalg::SelectTopK;
using linalg::TopKSelector;

const std::vector<std::size_t> kThreadCounts = {1, 4, 16};

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(core::NumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }

 private:
  std::size_t saved_;
};

class ScopedScoringMode {
 public:
  explicit ScopedScoringMode(ScoringMode mode)
      : saved_(linalg::CurrentScoringMode()) {
    linalg::SetScoringMode(mode);
  }
  ~ScopedScoringMode() { linalg::SetScoringMode(saved_); }

 private:
  ScoringMode saved_;
};

class ScopedScoreTile {
 public:
  explicit ScopedScoreTile(std::size_t tile)
      : saved_(linalg::ScoreTileCols()) {
    linalg::SetScoreTileCols(tile);
  }
  ~ScopedScoreTile() { linalg::SetScoreTileCols(saved_); }

 private:
  std::size_t saved_;
};

void ExpectSameSelection(const std::vector<ScoredItem>& got,
                         const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
  }
}

// Runs the selector over `scores` in several feed orders / tile widths and
// checks each selection against the partial_sort reference.
void CheckSelectorAgainstReference(const std::vector<double>& scores,
                                   std::size_t k) {
  const std::vector<ScoredItem> want = SelectTopK(scores.data(),
                                                  scores.size(), k);
  TopKSelector sel(k);
  for (std::size_t i = 0; i < scores.size(); ++i) sel.Push(i, scores[i]);
  ExpectSameSelection(sel.SortedDescending(), want);
  for (const std::size_t tile : {1u, 3u, 7u, 64u, 1024u}) {
    sel.Reset();
    for (std::size_t j0 = 0; j0 < scores.size(); j0 += tile) {
      const std::size_t jn = std::min<std::size_t>(tile, scores.size() - j0);
      sel.PushTile(scores.data() + j0, j0, jn);
    }
    ExpectSameSelection(sel.SortedDescending(), want);
  }
}

// ---------------------------------------------------------------------------
// TopKSelector vs. partial_sort reference
// ---------------------------------------------------------------------------

TEST(TopKSelectorTest, MatchesReferenceOnRandomScores) {
  Rng rng(31);
  for (const std::size_t n : {1u, 5u, 97u, 500u}) {
    const Matrix s = rng.GaussianMatrix(1, n, 1.0);
    const std::vector<double> scores(s.data(), s.data() + n);
    for (const std::size_t k : {1u, 2u, 20u, 499u, 500u, 900u}) {
      CheckSelectorAgainstReference(scores, k);
    }
  }
}

TEST(TopKSelectorTest, HeavyTiesResolveByItemId) {
  // Quantize scores to 3 distinct values: selection within a tied band must
  // come out in ascending item id, identically in both implementations.
  Rng rng(32);
  const std::size_t n = 301;
  const Matrix g = rng.GaussianMatrix(1, n, 1.0);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::floor(g.data()[i] * 1.5);
  }
  for (const std::size_t k : {1u, 7u, 50u, 300u}) {
    CheckSelectorAgainstReference(scores, k);
  }
}

TEST(TopKSelectorTest, AllEqualScores) {
  const std::vector<double> scores(64, 2.5);
  CheckSelectorAgainstReference(scores, 10);
  // The winners must be items 0..9 specifically.
  TopKSelector sel(10);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].item, i);
}

TEST(TopKSelectorTest, InfinitiesAreOrdinaryValues) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scores = {0.0, -inf, inf, 1.0, -inf, inf, -1.0, 0.0};
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u, 12u}) {
    CheckSelectorAgainstReference(scores, k);
  }
  TopKSelector sel(3);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 2u);  // +inf, smaller id first
  EXPECT_EQ(got[1].item, 5u);
  EXPECT_EQ(got[2].item, 3u);  // 1.0
}

TEST(TopKSelectorTest, KLargerThanCatalogKeepsEverything) {
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  TopKSelector sel(10);
  sel.PushTile(scores.data(), 0, scores.size());
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 0u);
  EXPECT_EQ(got[1].item, 2u);
  EXPECT_EQ(got[2].item, 1u);
}

TEST(TopKSelectorTest, ResetForgetsCandidates) {
  TopKSelector sel(2);
  sel.Push(0, 100.0);
  sel.Push(1, 99.0);
  sel.Reset();
  EXPECT_EQ(sel.size(), 0u);
  sel.Push(5, 1.0);
  const auto got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 5u);
}

// ---------------------------------------------------------------------------
// Gated PushTile with exclusions vs. per-item Push and SelectTopK
// ---------------------------------------------------------------------------

bool Excluded(const std::vector<std::size_t>& excl, std::size_t item) {
  return std::binary_search(excl.begin(), excl.end(), item);
}

// Bit-level equality: a +0.0 / -0.0 swap must not pass as "equal scores".
void ExpectSameBits(const std::vector<ScoredItem>& got,
                    const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "position " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << "position " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

// The exact scorer's column split: the catalog cut into `ranges` contiguous
// runs (some empty when ranges > n), each fed through its own selector in
// 8-score tiles, then merged into run 0's selector — in run order, as the
// scorer does, and in reverse. Either way the result must be `want`, the
// selection of one selector fed every item.
void CheckSplitMerge(const std::vector<double>& scores,
                     const std::vector<std::size_t>& excl, std::size_t k,
                     const std::vector<ScoredItem>& want) {
  const std::size_t n = scores.size();
  for (const std::size_t ranges : {2u, 3u, 5u, 16u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k << " ranges=" << ranges
                                      << " excluded=" << excl.size());
    std::vector<TopKSelector> runs(ranges, TopKSelector(k));
    for (std::size_t r = 0; r < ranges; ++r) {
      const std::size_t end = n * (r + 1) / ranges;
      for (std::size_t j0 = n * r / ranges; j0 < end; j0 += 8) {
        const std::size_t jn = std::min<std::size_t>(8, end - j0);
        runs[r].PushTile(scores.data() + j0, j0, jn, excl);
      }
    }
    TopKSelector forward = runs[0];
    for (std::size_t r = 1; r < ranges; ++r) forward.Merge(runs[r]);
    ExpectSameBits(forward.SortedDescending(), want);
    TopKSelector backward = runs[ranges - 1];
    for (std::size_t r = ranges - 1; r-- > 0;) backward.Merge(runs[r]);
    ExpectSameBits(backward.SortedDescending(), want);
  }
}

// Feeds `scores` minus the sorted `excl` ids through the gated PushTile at
// several tile widths (multiples of the 8-score gate chunk and not) and
// checks each selection against per-item Push and against SelectTopK over
// the surviving scores.
void CheckGatedTiles(const std::vector<double>& scores,
                     const std::vector<std::size_t>& excl, std::size_t k) {
  TopKSelector by_push(k);
  std::vector<double> kept;
  std::vector<std::size_t> kept_ids;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (Excluded(excl, i)) continue;
    by_push.Push(i, scores[i]);
    kept.push_back(scores[i]);
    kept_ids.push_back(i);
  }
  const std::vector<ScoredItem> want = by_push.SortedDescending();
  // kept_ids ascend, so SelectTopK's index tie-break is the id tie-break.
  std::vector<ScoredItem> by_sort = SelectTopK(kept.data(), kept.size(), k);
  for (ScoredItem& s : by_sort) s.item = kept_ids[s.item];
  ExpectSameBits(by_sort, want);

  CheckSplitMerge(scores, excl, k, want);

  TopKSelector sel(k);
  for (const std::size_t tile : {1u, 5u, 8u, 9u, 16u, 61u, 256u, 4096u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k << " tile=" << tile
                                      << " excluded=" << excl.size());
    sel.Reset();
    for (std::size_t j0 = 0; j0 < scores.size(); j0 += tile) {
      const std::size_t jn = std::min<std::size_t>(tile, scores.size() - j0);
      sel.PushTile(scores.data() + j0, j0, jn, excl);
    }
    ExpectSameBits(sel.SortedDescending(), want);
    // Tiles in descending order: a later tie with a smaller id now beats
    // the root, so the gate must let equal scores through.
    sel.Reset();
    const std::size_t tiles = (scores.size() + tile - 1) / tile;
    for (std::size_t t = tiles; t-- > 0;) {
      const std::size_t j0 = t * tile;
      const std::size_t jn = std::min<std::size_t>(tile, scores.size() - j0);
      sel.PushTile(scores.data() + j0, j0, jn, excl);
    }
    ExpectSameBits(sel.SortedDescending(), want);
  }
}

// Sorted ids drawn with probability `rate` (duplicates impossible).
std::vector<std::size_t> RandomExclusions(std::size_t n, double rate,
                                          Rng* rng) {
  std::vector<std::size_t> excl;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng->Uniform() < rate) excl.push_back(i);
  }
  return excl;
}

TEST(GatedPushTileTest, MatchesPushAndSelectTopKOnRandomScores) {
  Rng rng(41);
  for (const std::size_t n : {1u, 7u, 8u, 97u, 500u, 2053u}) {
    const Matrix s = rng.GaussianMatrix(1, n, 1.0);
    const std::vector<double> scores(s.data(), s.data() + n);
    for (const double rate : {0.0, 0.05, 0.5}) {
      const std::vector<std::size_t> excl = RandomExclusions(n, rate, &rng);
      for (const std::size_t k : {1u, 2u, 10u, 20u, 499u, 500u, 3000u}) {
        CheckGatedTiles(scores, excl, k);
      }
    }
  }
}

TEST(GatedPushTileTest, HeavyTiesResolveByItemIdUnderExclusions) {
  // Three distinct values: the gate's >= lets whole tied chunks through,
  // and only the id tie-break may decide among them.
  Rng rng(42);
  const std::size_t n = 1001;
  const Matrix g = rng.GaussianMatrix(1, n, 1.0);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::floor(g.data()[i] * 1.5);
  }
  for (const double rate : {0.0, 0.1, 0.7}) {
    const std::vector<std::size_t> excl = RandomExclusions(n, rate, &rng);
    for (const std::size_t k : {1u, 7u, 50u, 300u, 1001u}) {
      CheckGatedTiles(scores, excl, k);
    }
  }
  const std::vector<double> flat(203, -1.25);
  CheckGatedTiles(flat, {0, 1, 2, 9, 100}, 10);
}

TEST(GatedPushTileTest, InfinitiesAndSignedZeros) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scores;
  // Cycle a pattern of length 7 over 75 scores so the specials land at
  // every offset of the 8-score chunk and in the partial tail.
  const double pattern[] = {0.0, -0.0, inf, -inf, 1.0, -0.0, -1.0};
  for (std::size_t i = 0; i < 75; ++i) scores.push_back(pattern[i % 7]);
  for (const std::size_t k : {1u, 3u, 11u, 22u, 40u, 75u, 100u}) {
    CheckGatedTiles(scores, {}, k);
    CheckGatedTiles(scores, {2, 9, 16, 30, 74}, k);
  }
  // A root of -inf admits every finite score; a root of +inf only +inf.
  const std::vector<double> low(40, -inf);
  CheckGatedTiles(low, {3}, 5);
  std::vector<double> mixed(40, 1.0);
  mixed[0] = inf;
  mixed[33] = inf;
  CheckGatedTiles(mixed, {}, 2);
  CheckGatedTiles(mixed, {0}, 1);
}

TEST(GatedPushTileTest, KAtLeastCatalogAndAllExcludedRows) {
  const std::vector<double> scores = {3.0, 1.0, 2.0, 5.0, 4.0,
                                      0.5, 9.0, 8.0, 7.0, 6.0, 2.5};
  for (const std::size_t k : {11u, 12u, 64u}) {
    CheckGatedTiles(scores, {}, k);
    CheckGatedTiles(scores, {1, 6, 10}, k);
  }
  std::vector<std::size_t> all(scores.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  TopKSelector sel(4);
  sel.PushTile(scores.data(), 0, 8, all);
  sel.PushTile(scores.data() + 8, 8, 3, all);
  EXPECT_EQ(sel.size(), 0u);
  CheckGatedTiles(scores, all, 4);
  // Exclusions outside the tile never match.
  CheckGatedTiles(scores, {100, 200}, 4);
}

TEST(GatedPushTileTest, TileMaxEqualToRootReachesIdTieBreak) {
  // Items 8..15 fill a k = 2 heap whose root is item 9 at 1.0. The next
  // tile's best score is exactly 1.0 (item 4): the one-scan gate must let it
  // through, and the smaller id must then win the tie.
  TopKSelector sel(2);
  const std::vector<double> late = {3.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  sel.PushTile(late.data(), 8, late.size());
  const std::vector<double> early = {0.25, -1.0, 0.75, 0.0,
                                     1.0,  0.5,  -0.5, 0.125};
  sel.PushTile(early.data(), 0, early.size());
  const std::vector<ScoredItem> got = sel.SortedDescending();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].item, 8u);
  EXPECT_EQ(got[1].item, 4u);
  EXPECT_EQ(got[1].score, 1.0);
  // The same tile with item 4 excluded holds no winner.
  TopKSelector excluded(2);
  excluded.PushTile(late.data(), 8, late.size());
  excluded.PushTile(early.data(), 0, early.size(), std::vector<std::size_t>{4});
  EXPECT_EQ(excluded.SortedDescending()[1].item, 9u);
}

TEST(TopKMergeTest, MergesIntoEmptyAndFromEmpty) {
  TopKSelector filled(3);
  filled.Push(7, 2.0);
  filled.Push(2, 2.0);
  TopKSelector empty(3);
  empty.Merge(filled);
  ExpectSameBits(empty.SortedDescending(), filled.SortedDescending());
  const std::vector<ScoredItem> before = filled.SortedDescending();
  filled.Merge(TopKSelector(5));
  ExpectSameBits(filled.SortedDescending(), before);
}

// ---------------------------------------------------------------------------
// PopularityHeadSet vs. full-sort reference
// ---------------------------------------------------------------------------

std::vector<char> SortBasedHeadSet(const std::vector<std::size_t>& pop,
                                   std::size_t head_count) {
  std::vector<std::size_t> order(pop.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&pop](std::size_t a, std::size_t b) {
    if (pop[a] != pop[b]) return pop[a] > pop[b];
    return a < b;
  });
  std::vector<char> head(pop.size(), 0);
  for (std::size_t i = 0; i < std::min(head_count, order.size()); ++i) {
    head[order[i]] = 1;
  }
  return head;
}

TEST(PopularityHeadSetTest, MatchesSortReferenceWithTies) {
  Rng rng(33);
  const std::size_t n = 257;
  std::vector<std::size_t> pop(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Few distinct counts -> the head boundary lands inside a tied band.
    pop[i] = rng.UniformInt(6);
  }
  for (const std::size_t head : {0u, 1u, 51u, 128u, 256u, 257u, 400u}) {
    EXPECT_EQ(eval::PopularityHeadSet(pop, head), SortBasedHeadSet(pop, head))
        << "head_count=" << head;
  }
}

TEST(PopularityHeadSetTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(eval::PopularityHeadSet({}, 3).empty());
  const std::vector<std::size_t> pop = {5, 5, 5};
  EXPECT_EQ(eval::PopularityHeadSet(pop, 0),
            (std::vector<char>{0, 0, 0}));
  EXPECT_EQ(eval::PopularityHeadSet(pop, 2),
            (std::vector<char>{1, 1, 0}));  // tie broken toward smaller id
  EXPECT_EQ(eval::PopularityHeadSet(pop, 3),
            (std::vector<char>{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Fused vs. materialized evaluation (end to end)
// ---------------------------------------------------------------------------

const data::GeneratedData& TinyData() {
  static const data::GeneratedData* data = [] {
    data::DatasetProfile p = data::ArtsProfile(0.3);
    p.plm.embed_dim = 16;
    p.plm.calibration_iters = 15;
    return new data::GeneratedData(data::GenerateDataset(p));
  }();
  return *data;
}

SasRecConfig TinyModelConfig() {
  SasRecConfig config;
  config.hidden_dim = 16;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.dropout = 0.0;
  config.max_len = 8;
  config.seed = 21;
  return config;
}

void ExpectSameEval(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.recall20, b.recall20);
  EXPECT_EQ(a.ndcg20, b.ndcg20);
  EXPECT_EQ(a.recall50, b.recall50);
  EXPECT_EQ(a.ndcg50, b.ndcg50);
  EXPECT_EQ(a.count, b.count);
}

TEST(FusedEvalTest, EvaluateRankingMatchesMaterializedBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  EvalResult ref;
  {
    ScopedScoringMode mode(ScoringMode::kMaterialized);
    ref = EvaluateRanking(rec.get(), split.test, split.train, 8);
  }
  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {7u, 64u, 256u, 100000u}) {
      ScopedScoringMode mode(ScoringMode::kFused);
      ScopedScoreTile st(tile);
      const EvalResult fused =
          EvaluateRanking(rec.get(), split.test, split.train, 8);
      ExpectSameEval(fused, ref);
    }
  }
}

TEST(FusedEvalTest, StratifiedEvalMatchesMaterializedBitwise) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  StratifiedEvalResult ref;
  {
    ScopedScoringMode mode(ScoringMode::kMaterialized);
    ref = EvaluateRankingByPopularity(rec.get(), split.test, split.train, 8);
  }
  ScopedScoringMode mode(ScoringMode::kFused);
  const StratifiedEvalResult fused =
      EvaluateRankingByPopularity(rec.get(), split.test, split.train, 8);
  ExpectSameEval(fused.head, ref.head);
  ExpectSameEval(fused.tail, ref.tail);
}

TEST(FusedEvalTest, TopKRecommendationsIdenticalLists) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);

  std::vector<std::vector<std::size_t>> ref;
  {
    ScopedScoringMode mode(ScoringMode::kMaterialized);
    ref = TopKRecommendations(rec.get(), split.test, split.train, 8, 20);
  }
  ASSERT_EQ(ref.size(), split.test.size());
  for (const auto& list : ref) EXPECT_EQ(list.size(), 20u);

  for (const std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    for (const std::size_t tile : {13u, 256u}) {
      ScopedScoringMode mode(ScoringMode::kFused);
      ScopedScoreTile st(tile);
      const auto fused =
          TopKRecommendations(rec.get(), split.test, split.train, 8, 20);
      ASSERT_EQ(fused.size(), ref.size());
      for (std::size_t u = 0; u < ref.size(); ++u) {
        EXPECT_EQ(fused[u], ref[u]) << "user " << u << " threads=" << threads
                                    << " tile=" << tile;
      }
    }
  }
}

TEST(FusedEvalTest, RecommendationsExcludeTrainingItems) {
  const data::Dataset& ds = TinyData().dataset;
  auto rec = MakeSasRecId(ds, TinyModelConfig());
  const data::Split split = data::LeaveOneOutSplit(ds);
  ScopedScoringMode mode(ScoringMode::kFused);
  const auto lists =
      TopKRecommendations(rec.get(), split.test, split.train, 8, 20);
  for (std::size_t u = 0; u < lists.size(); ++u) {
    const std::size_t user = split.test[u].user;
    for (const std::size_t item : lists[u]) {
      for (const std::size_t trained : split.train[user]) {
        EXPECT_NE(item, trained) << "user " << user;
      }
    }
  }
}

TEST(FusedEvalTest, ScoringModeKnobRoundTrips) {
  EXPECT_STREQ(linalg::ScoringModeName(ScoringMode::kMaterialized),
               "materialized");
  EXPECT_STREQ(linalg::ScoringModeName(ScoringMode::kFused), "fused");
  ScopedScoringMode mode(ScoringMode::kFused);
  EXPECT_EQ(linalg::CurrentScoringMode(), ScoringMode::kFused);
}

}  // namespace
}  // namespace seqrec
}  // namespace whitenrec
