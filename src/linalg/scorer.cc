#include "linalg/scorer.h"

#include <algorithm>
#include <span>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"

namespace whitenrec {
namespace linalg {
namespace {

// Least multiply-adds worth one column range of a split batch: a range
// costs a pool dispatch (~10 us on a 4-core Xeon), and below this a 1-row
// batch over a few thousand items scored slower split than on one thread.
constexpr std::size_t kMinRangeWork = std::size_t{1} << 17;

// Pushes rows [i0, i1) of one score panel into sel[i0 .. i1).
void PushRows(TopKSelector* sel,
              const std::vector<std::vector<std::size_t>>& exclusions,
              std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
              const Matrix& panel) {
  for (std::size_t r = i0; r < i1; ++r) {
    sel[r].PushTile(panel.RowPtr(r), j0, jn,
                    exclusions.empty() ? std::span<const std::size_t>()
                                       : exclusions[r]);
  }
}

// Exact fused scoring: the streamed GEMM + per-row gated selector pass.
// Rebuild copies the fp32 table once into the blocked kernel's strip layout,
// so TopKBatch costs the GEMM over already-packed strips plus a top-K
// epilogue that mostly costs one vector scan per row and tile. When
// WHITENREC_ITEM_QUANT picks a compressed representation, Rebuild encodes
// the table instead and TopKBatch streams through the dequantize-in-tile
// driver — same epilogue, different producer, so compression is invisible to
// every Scorer consumer. WHITENREC_GEMM=naive scores the borrowed table
// through the unpacked reference stream. All three producers deliver
// bitwise-identical fp32 scores, so every route selects the same lists.
class ExactScorer final : public Scorer {
 public:
  void Rebuild(const Matrix& items) override {
    items_ = &items;
    num_items_ = items.rows();
    kind_ = CurrentItemQuantKind();
    if (kind_ == ItemQuantKind::kFp32) {
      quant_.Clear();
      packed_.Pack(items);
    } else {
      packed_.Clear();
      quant_.Pack(items, kind_);
    }
  }

  void TopKBatch(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::vector<TopKSelector>* selectors) const override {
    WR_CHECK(items_ != nullptr);
    WR_CHECK_EQ(selectors->size(), users.rows());
    WR_CHECK(exclusions.empty() || exclusions.size() == users.rows());
    // Both copies are taken at Rebuild; a table reshaped since then would
    // be scored from stale rows.
    const bool fp32 = kind_ == ItemQuantKind::kFp32;
    WR_CHECK_MSG(
        items_->rows() == (fp32 ? packed_.rows() : quant_.rows()) &&
            items_->cols() == (fp32 ? packed_.cols() : quant_.cols()),
        "item table changed shape since Scorer::Rebuild");
    TopKSelector* sel = selectors->data();
    const ScoreRowsFn push =
        [sel, &exclusions](std::size_t i0, std::size_t i1, std::size_t j0,
                           std::size_t jn, const Matrix& panel) {
          PushRows(sel, exclusions, i0, i1, j0, jn, panel);
        };
    // Column ranges for a one-block batch: one per thread, as long as each
    // keeps kMinRangeWork multiply-adds.
    const std::size_t ranges = std::min(
        core::NumThreads(),
        users.rows() * packed_.rows() * packed_.cols() / kMinRangeWork);
    if (!fp32) {
      StreamQuantMatMulTransB(users, quant_, push);
    } else if (CurrentGemmKind() == GemmKind::kNaive) {
      StreamMatMulTransB(users, *items_, push);
    } else if (users.rows() > kGemmRowBlock || ranges <= 1) {
      StreamPackedMatMulTransB(users, packed_, push);
    } else {
      TopKColumnSplit(users, exclusions, ranges, selectors);
    }
  }

  const char* name() const override { return "exact"; }

 private:
  // A batch of one row block gives the stream's row-block ParallelFor a
  // single chunk, which would leave the pool idle. Instead the catalog is
  // cut into `ranges` column ranges of whole strips, one per pool chunk (a
  // range is empty when there are fewer strips than ranges), each streamed
  // into its own selectors: range 0 into the caller's, the rest into
  // partials made here, outside the parallel section. The partials are
  // then merged in range order. The selected sets are feed-order
  // independent, so every list is bitwise the single-stream one.
  void TopKColumnSplit(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions,
      std::size_t ranges, std::vector<TopKSelector>* selectors) const {
    const std::size_t rows = users.rows();
    const std::size_t n = packed_.rows();
    const std::size_t strips = (n + kGemmStripCols - 1) / kGemmStripCols;
    std::vector<TopKSelector> partial;
    partial.reserve((ranges - 1) * rows);
    for (std::size_t range = 1; range < ranges; ++range) {
      for (std::size_t r = 0; r < rows; ++r) {
        partial.emplace_back((*selectors)[r].k());
      }
    }
    const std::size_t tile = ScoreTileCols();
    core::ParallelFor(0, ranges, 1, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t range = r0; range < r1; ++range) {
        const std::size_t j_begin =
            std::min(n, strips * range / ranges * kGemmStripCols);
        const std::size_t j_end =
            std::min(n, strips * (range + 1) / ranges * kGemmStripCols);
        TopKSelector* sel = range == 0 ? selectors->data()
                                       : partial.data() + (range - 1) * rows;
        StreamPackedMatMulTransBRange(
            users, packed_, j_begin, j_end, tile,
            [sel, &exclusions](std::size_t i0, std::size_t i1,
                               std::size_t j0, std::size_t jn,
                               const Matrix& panel) {
              PushRows(sel, exclusions, i0, i1, j0, jn, panel);
            });
      }
    });
    for (std::size_t range = 1; range < ranges; ++range) {
      for (std::size_t r = 0; r < rows; ++r) {
        (*selectors)[r].Merge(partial[(range - 1) * rows + r]);
      }
    }
  }

  const Matrix* items_ = nullptr;  // borrowed
  ItemQuantKind kind_ = ItemQuantKind::kFp32;
  PackedItemTable packed_;    // fp32: strip-packed copy, filled at Rebuild
  QuantizedItemTable quant_;  // int8/bf16: encoded copy, filled at Rebuild
};

}  // namespace

std::unique_ptr<Scorer> MakeExactScorer() {
  return std::make_unique<ExactScorer>();
}

}  // namespace linalg
}  // namespace whitenrec
