#ifndef WHITENREC_LINALG_GEMM_H_
#define WHITENREC_LINALG_GEMM_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace whitenrec {
namespace linalg {

// Dense GEMM kernel layer. Two interchangeable implementations sit behind
// every MatMul/MatMulTransA/MatMulTransB/MatVec call:
//
//  * kNaive   — the original triple loops, kept as the reference and as an
//               escape hatch.
//  * kBlocked — panel-packed, register-tiled, L1/L2 cache-blocked kernels
//               (see gemm.cc and DESIGN.md §6).
//
// Both variants accumulate every output element with the SAME canonical
// order — one running accumulator per element, k ascending from 0 — so they
// are bitwise identical to each other, at any thread count. Tests assert
// this (tests/gemm_test.cc); it is what lets the variant switch be invisible
// to the deterministic-training guarantee.
enum class GemmKind { kNaive, kBlocked };

// Active kernel variant. Initialized on first use from WHITENREC_GEMM
// ("naive" or "blocked"; default "blocked"; core/knobs.def).
GemmKind CurrentGemmKind();
void SetGemmKind(GemmKind kind);
const char* GemmKindName(GemmKind kind);

// Destination-reusing entry points: *c is reshaped via Matrix::Resize (so a
// persistent Workspace slot is reused across calls) and overwritten. c must
// not alias a or b.
// C = A * B.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
// C = A^T * B.
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c);
// C = A * B^T.
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c);
// y = A * x.
void MatVecInto(const Matrix& a, const std::vector<double>& x,
                std::vector<double>* y);

// Accumulating variants for gradient sums: C += op(A) * B without the
// intermediate product matrix. The per-element term order is the same
// canonical k-ascending order continued on top of the existing C value.
// C += A * B.
void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* c);
// C += A^T * B.
void MatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c);
// C += A * B^T.
void MatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c);

// ---------------------------------------------------------------------------
// Streaming (fused-epilogue) scoring layer.
//
// The full-softmax objective and full-catalog ranking both need C = A * B^T
// with B the (num_items, d) item table — a C that is (rows, num_items) and
// dominates peak memory. The entry points below never materialize that C:
// they walk item tiles of width ScoreTileCols() in canonical ascending order
// and hand each (rows x tile) score panel to the caller while it is still
// cache-resident.
//
// Determinism and parity guarantees (tests/topk_test.cc, tests/loss_test.cc):
//  * Panel elements are computed by the same kernels with the same canonical
//    per-element ascending-k accumulation as the materialized GEMM, so every
//    streamed score is BITWISE identical to the corresponding element of
//    MatMulTransB(a, b) — for any tile width, kernel variant, thread count.
//  * Tiles are visited sequentially in ascending column order, and every
//    output row belongs to exactly one deterministic ParallelFor chunk, so
//    any per-row reduction the caller runs in the epilogue sees its terms in
//    a fixed order regardless of thread count.
// ---------------------------------------------------------------------------

// Scoring-path selector. kMaterialized is the reference implementation (the
// plain (rows, num_items) GEMM); kFused routes the softmax-CE loss and the
// ranking evaluation through the streaming layer. Initialized on first use
// from WHITENREC_SCORING ("materialized" or "fused"; default
// "materialized"; core/knobs.def).
enum class ScoringMode { kMaterialized, kFused };

ScoringMode CurrentScoringMode();
void SetScoringMode(ScoringMode mode);
const char* ScoringModeName(ScoringMode mode);

// Item-tile width of the streaming layer. Initialized on first use from
// WHITENREC_SCORE_TILE (positive integer; default 256); settable for tests.
// The pre-packed stream (StreamPackedMatMulTransB) rounds it up to a
// multiple of the kernel's 8-column strip so tiles start on strip
// boundaries; scores never depend on tile width, so neither does any result.
std::size_t ScoreTileCols();
void SetScoreTileCols(std::size_t tile);

// Row-range epilogue invoked from inside the kernel while rows [i0, i1) of
// `panel` are cache-hot. panel is (a.rows() x jn) and holds the FINAL scores
// a[i] . b[j0 + c] for columns c in [0, jn). Invoked from worker threads:
// implementations must touch only per-row state (distinct rows may be
// processed concurrently; one row is never processed twice per tile). The
// chunking of [i0, i1) is deterministic but unspecified — epilogues must not
// depend on it beyond per-row independence.
using ScoreRowsFn =
    std::function<void(std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t jn, const Matrix& panel)>;

// Whole-panel epilogue invoked sequentially on the calling thread once the
// (a.rows() x jn) panel for columns [j0, j0 + jn) is complete. The panel is
// mutable so callers can transform scores in place (e.g. into a dlogits
// tile) and feed them straight back into GEMM-accumulate calls.
using ScorePanelFn =
    std::function<void(std::size_t j0, std::size_t jn, Matrix* panel)>;

// Streams C = A * B^T through item tiles, firing `fn` per row block while
// the block is cache-resident. Tile width is ScoreTileCols().
void StreamMatMulTransB(const Matrix& a, const Matrix& b,
                        const ScoreRowsFn& fn);
// Same with an explicit tile width (tests sweep it).
void StreamMatMulTransBTiles(const Matrix& a, const Matrix& b,
                             std::size_t tile, const ScoreRowsFn& fn);

// Streams C = A * B^T delivering each complete panel to `fn` on the calling
// thread. Used by the streaming softmax-CE backward pass, whose per-tile
// work (dlogits -> dH/dV GEMMs) is not row-independent.
void StreamMatMulTransBPanels(const Matrix& a, const Matrix& b,
                              std::size_t tile, const ScorePanelFn& fn);

// Blocked-kernel geometry that callers cut work on. A column strip is
// kGemmStripCols items wide: packed tables are laid out in strips, and
// packed-stream tiles and ranges start on strip boundaries. A row block is
// kGemmRowBlock rows: a batch of at most that many rows is one block, which
// one worker computes per tile.
inline constexpr std::size_t kGemmStripCols = 8;
inline constexpr std::size_t kGemmRowBlock = 64;

// An item table packed once into the blocked kernel's B-strip layout, so
// scoring streams read it directly instead of re-packing B on every call.
// Layout: for each kKc-deep k-panel (ascending), for each 8-column strip of
// items, kb x 8 values with element (k, j) = items(strip * 8 + j, k0 + k);
// the last strip is zero-padded, so the kernels never branch on the column
// edge. Memory is rows rounded up to 8, times cols, times 8 bytes: one more
// copy of the table. Pack() copies values without arithmetic, so every
// score streamed from it is bitwise the score streamed from the source.
class PackedItemTable {
 public:
  void Pack(const Matrix& items);
  void Clear();
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t PackedBytes() const { return strips_.size() * sizeof(double); }
  const double* data() const { return strips_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> strips_;
};

// Streams C = A * items^T from a pre-packed table: same panels, same row
// blocks, same bitwise scores as StreamMatMulTransB over the source matrix,
// minus the per-call B packing. A is packed once per call, not per tile,
// and panels are overwritten rather than zero-filled first. Always runs the
// blocked kernel; tile width is ScoreTileCols() rounded up to a multiple of
// kGemmStripCols.
void StreamPackedMatMulTransB(const Matrix& a, const PackedItemTable& items,
                              const ScoreRowsFn& fn);
// Same with an explicit tile width (rounded up likewise; tests sweep it).
void StreamPackedMatMulTransBTiles(const Matrix& a,
                                   const PackedItemTable& items,
                                   std::size_t tile, const ScoreRowsFn& fn);
// Same over the item columns [j_begin, j_end) only: tiles start at j_begin,
// which must be a multiple of kGemmStripCols, and the last one ends at
// j_end, which may fall mid-strip. fn's j0 is the absolute item index, and
// every score is bitwise the full stream's. The panel and packed A live in
// the calling thread's workspace, so ranges streamed from different threads
// are independent; StreamPackedMatMulTransBTiles is the [0, rows) range.
void StreamPackedMatMulTransBRange(const Matrix& a,
                                   const PackedItemTable& items,
                                   std::size_t j_begin, std::size_t j_end,
                                   std::size_t tile, const ScoreRowsFn& fn);

// Single element of A * B^T: a[i] . b[j], accumulated in the canonical
// ascending-k order inside this translation unit (-ffp-contract=off), so the
// result is bitwise identical to element (i, j) of the materialized or
// streamed GEMM. Used to precompute target scores for streaming rank
// counting.
double RowDotTransB(const Matrix& a, std::size_t i, const Matrix& b,
                    std::size_t j);

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_GEMM_H_
