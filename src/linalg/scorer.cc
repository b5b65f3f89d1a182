#include "linalg/scorer.h"

#include <span>

#include "core/check.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"

namespace whitenrec {
namespace linalg {
namespace {

// Exact fused scoring: the streamed GEMM + per-row gated selector pass.
// Rebuild copies the fp32 table once into the blocked kernel's strip layout,
// so TopKBatch costs the GEMM over already-packed strips plus a top-K
// epilogue that mostly costs one vector compare per 8 scores. When
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
    const ScoreRowsFn push =
        [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
            const Matrix& panel) {
          for (std::size_t r = i0; r < i1; ++r) {
            (*selectors)[r].PushTile(
                panel.RowPtr(r), j0, jn,
                exclusions.empty() ? std::span<const std::size_t>()
                                   : exclusions[r]);
          }
        };
    // Both copies are taken at Rebuild; a table reshaped since then would
    // be scored from stale rows.
    const bool fp32 = kind_ == ItemQuantKind::kFp32;
    WR_CHECK_MSG(
        items_->rows() == (fp32 ? packed_.rows() : quant_.rows()) &&
            items_->cols() == (fp32 ? packed_.cols() : quant_.cols()),
        "item table changed shape since Scorer::Rebuild");
    if (!fp32) {
      StreamQuantMatMulTransB(users, quant_, push);
    } else if (CurrentGemmKind() == GemmKind::kNaive) {
      StreamMatMulTransB(users, *items_, push);
    } else {
      StreamPackedMatMulTransB(users, packed_, push);
    }
  }

  const char* name() const override { return "exact"; }

 private:
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
