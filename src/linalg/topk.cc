#include "linalg/topk.h"

#include <algorithm>
#include <cstdint>

#include "core/check.h"
#include "linalg/kernel.h"

namespace whitenrec {
namespace linalg {

namespace {

// Heap order: parent is worse than (ranked after) its children under
// RanksBefore, so heap_[0] is the weakest kept candidate.
inline bool HeapBelow(const ScoredItem& a, const ScoredItem& b) {
  return RanksBefore(b, a);
}

inline bool IsExcluded(std::span<const std::size_t> sorted_exclusions,
                       std::size_t item) {
  return std::binary_search(sorted_exclusions.begin(),
                            sorted_exclusions.end(), item);
}

// True when some scores[c] >= floor. One branch-free pass whose compares
// OR into an integer, so it vectorizes at each clone's full width; NaN
// compares false, so it never passes.
WR_KERNEL_CLONES
bool AnyScoreAtLeast(const double* WR_RESTRICT scores, std::size_t n,
                     double floor) {
  std::uint64_t any = 0;
  for (std::size_t c = 0; c < n; ++c) any |= scores[c] >= floor ? 1u : 0u;
  return any != 0;
}

}  // namespace

TopKSelector::TopKSelector(std::size_t k) : k_(k) {
  WR_CHECK_GT(k, 0u);
  heap_.reserve(k);
}

void TopKSelector::Reset() { heap_.clear(); }

void TopKSelector::SiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!HeapBelow(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void TopKSelector::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    std::size_t worst = left;
    const std::size_t right = left + 1;
    if (right < n && HeapBelow(heap_[right], heap_[left])) worst = right;
    if (!HeapBelow(heap_[worst], heap_[i])) break;
    std::swap(heap_[i], heap_[worst]);
    i = worst;
  }
}

void TopKSelector::PushTile(const double* scores, std::size_t j0,
                            std::size_t jn,
                            std::span<const std::size_t> sorted_exclusions) {
  std::size_t c = 0;
  // Until the heap holds K candidates every non-excluded item is kept.
  for (; c < jn && heap_.size() < k_; ++c) {
    if (!IsExcluded(sorted_exclusions, j0 + c)) Push(j0 + c, scores[c]);
  }
  // Tile gate: the rest of the tile holds no winner unless some score is
  // >= the root's (the root only rises), which one scan settles for almost
  // every tile of a large catalog.
  if (c < jn && !AnyScoreAtLeast(scores + c, jn - c, heap_[0].score)) return;
  for (; c < jn; c += kGateChunk) {
    const std::size_t cn = std::min(kGateChunk, jn - c);
    if (cn == kGateChunk) {
      // A candidate ranks before the root only if its score is >= the
      // root's (equal scores fall to the id tie-break; NaN compares false
      // both ways), so a chunk without one holds no winner. The count is a
      // double so the compares and the sum share one vector type, and the
      // loop stays rolled so the vectorizer sees it (fully unrolled it
      // stays scalar); sums of 0/1 are exact in any order.
      const double floor = heap_[0].score;
      double hits = 0.0;
#pragma GCC unroll 1
      for (std::size_t l = 0; l < kGateChunk; ++l) {
        hits += scores[c + l] >= floor ? 1.0 : 0.0;
      }
      if (hits == 0.0) continue;
    }
    for (std::size_t l = 0; l < cn; ++l) {
      const std::size_t item = j0 + c + l;
      if (RanksBefore(ScoredItem{scores[c + l], item}, heap_[0]) &&
          !IsExcluded(sorted_exclusions, item)) {
        Push(item, scores[c + l]);
      }
    }
  }
}

void TopKSelector::Merge(const TopKSelector& other) {
  WR_CHECK(&other != this);
  WR_CHECK_GE(other.k_, k_);
  for (const ScoredItem& candidate : other.heap_) {
    Push(candidate.item, candidate.score);
  }
}

std::vector<ScoredItem> TopKSelector::SortedDescending() const {
  std::vector<ScoredItem> out = heap_;
  std::sort(out.begin(), out.end(), RanksBefore);
  return out;
}

std::vector<ScoredItem> SelectTopK(const double* scores, std::size_t n,
                                   std::size_t k) {
  std::vector<ScoredItem> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = ScoredItem{scores[i], i};
  const std::size_t take = std::min(k, n);
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), RanksBefore);
  all.resize(take);
  return all;
}

}  // namespace linalg
}  // namespace whitenrec
