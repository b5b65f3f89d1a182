#include "linalg/gemm.h"

#include <algorithm>

#include "core/check.h"
#include "core/knobs.h"
#include "core/parallel.h"
#include "linalg/kernel.h"
#include "linalg/workspace.h"

// The blocked kernels follow the classic packed-GEMM decomposition:
//
//   loop over k-panels of depth kKc (sequential, ascending):
//     pack op(B)[k-panel, :] into kNr-wide column strips  (calling thread;
//       a PackedItemTable already holds them, packed once)
//     ParallelFor over kMc-row blocks of C:
//       pack op(A)[row block, k-panel] into kMr-tall row strips  (per worker;
//         the packed score stream packs all of A once per call instead)
//       for each kNr column strip, for each kMr row strip:
//         register-tiled micro-kernel: C tile += Apack strip * Bpack strip
//
// Packing gives the micro-kernel unit-stride, cache-resident operands (and
// makes op(A) transposition free: MatMulTransA's strided a(k, i) column walk
// happens once, during the pack). Determinism comes from the accumulation
// order: every C element is owned by exactly one ParallelFor chunk, carries
// ONE running accumulator, and sums its terms in ascending k — k-panels are
// visited sequentially and the register tile is stored/reloaded between
// panels, so splitting K changes nothing. That order is also exactly the
// naive kernels' order, which is why the two variants are bitwise identical
// (gemm_test asserts it) and why WHITENREC_GEMM is unobservable in results.
//
// The micro-kernel holds its register tile as kMr rows of a kNr-wide GCC /
// Clang vector-extension type (TileRow), not as a scalar array left to the
// auto-vectorizer (which lowered it into a transposed layout with a shuffle
// per k). Each ISA clone keeps a tile row in one zmm (avx512f), two ymm
// (avx2) or four xmm (baseline), broadcasts one packed A value per row and
// k, and issues a vector multiply then a vector add: per lane, the same
// acc = acc + a * b chain as the naive loops. whitenrec_linalg builds with
// -ffp-contract=off so both variants lower a*b+acc identically even on
// FMA-capable -march builds.

namespace whitenrec {
namespace linalg {

namespace {

// Fired per completed output row range by the kernels that support a fused
// epilogue (see StreamMatMulTransB). Null means plain GEMM.
using RowBlockHook = std::function<void(std::size_t i0, std::size_t i1)>;

// Register tile (kMr x kNr accumulators) and cache blocking: a packed A
// strip (kKc * kMr) and B strip (kKc * kNr) are each 8 KB — L1-resident —
// while the full packed A block (kMc * kKc = 128 KB) sits in L2.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = kGemmStripCols;
constexpr std::size_t kMc = kGemmRowBlock;
constexpr std::size_t kKc = 256;
static_assert(kMc % kMr == 0, "row block must be a whole number of strips");

// Below this many multiply-adds the packing set-up costs more than it saves;
// the variants are bitwise identical, so the dispatch is unobservable.
constexpr std::size_t kBlockedMinWork = 8192;

// The process-wide settings below read their knob once, on first use.
GemmKind& ActiveKind() {
  static GemmKind kind = core::knobs::Gemm().value_or("blocked") == "naive"
                             ? GemmKind::kNaive
                             : GemmKind::kBlocked;
  return kind;
}

ScoringMode& ActiveScoringMode() {
  static ScoringMode mode =
      core::knobs::Scoring().value_or("materialized") == "fused"
          ? ScoringMode::kFused
          : ScoringMode::kMaterialized;
  return mode;
}

std::size_t& ActiveScoreTile() {
  static std::size_t tile = core::knobs::ScoreTile().value_or(256);
  return tile;
}

// ---------------------------------------------------------------------------
// Naive reference kernels. All accumulate on top of the existing C (the Into
// entry points zero it first), one term per k in ascending order.
// ---------------------------------------------------------------------------

void NaiveMatMul(const Matrix& a, const Matrix& b, Matrix* c) {
  const std::size_t grain = core::GrainForWork(a.cols() * b.cols());
  core::ParallelFor(0, a.rows(), grain, [&](std::size_t i0, std::size_t i1) {
    // ikj loop order: streams through b and c rows for cache friendliness.
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const double aik = arow[k];
        const double* brow = b.RowPtr(k);
        for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
      }
    }
  });
}

void NaiveMatMulTransA(const Matrix& a, const Matrix& b, Matrix* c) {
  const std::size_t grain = core::GrainForWork(a.rows() * b.cols());
  core::ParallelFor(0, a.cols(), grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* crow = c->RowPtr(i);
      for (std::size_t k = 0; k < a.rows(); ++k) {
        const double aki = a(k, i);
        const double* brow = b.RowPtr(k);
        for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
      }
    }
  });
}

// C has c->cols() columns mapping to B rows [j_off, j_off + c->cols()) — a
// column window into A * B^T so the streaming layer can reuse the kernel for
// score panels. `hook`, when set, fires per completed row chunk while those
// C rows are cache-hot.
void NaiveMatMulTransB(const Matrix& a, const Matrix& b, Matrix* c,
                       std::size_t j_off = 0,
                       const RowBlockHook* hook = nullptr) {
  const std::size_t grain = core::GrainForWork(a.cols() * c->cols());
  core::ParallelFor(0, a.rows(), grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      for (std::size_t j = 0; j < c->cols(); ++j) {
        const double* brow = b.RowPtr(j_off + j);
        double sum = crow[j];
        for (std::size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
        crow[j] = sum;
      }
    }
    if (hook != nullptr && i1 > i0) (*hook)(i0, i1);
  });
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

// Packs op(A)[i0 : i0+mb, k0 : k0+kb] into kMr-tall strips: strip s holds
// kb blocks of kMr values, dst[s*kb*kMr + k*kMr + r] = op(A)(i0+s*kMr+r,
// k0+k). Rows past the edge are zero-padded so the micro-kernel never
// branches on m inside its k loop.
void PackA(const Matrix& a, bool trans, std::size_t i0, std::size_t mb,
           std::size_t k0, std::size_t kb, double* out) {
  const std::size_t strips = (mb + kMr - 1) / kMr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t ibase = i0 + s * kMr;
    const std::size_t mr = std::min(kMr, i0 + mb - ibase);
    double* dst = out + s * kb * kMr;
    if (trans) {
      // op(A) = A^T: source rows are contiguous in the output-row index, so
      // the transposition that used to be a strided a(k, i) column walk in
      // the naive kernel happens here at unit stride, once per panel.
      for (std::size_t k = 0; k < kb; ++k) {
        const double* src = a.RowPtr(k0 + k) + ibase;
        for (std::size_t r = 0; r < kMr; ++r)
          dst[k * kMr + r] = r < mr ? src[r] : 0.0;
      }
    } else {
      for (std::size_t r = 0; r < kMr; ++r) {
        if (r < mr) {
          const double* src = a.RowPtr(ibase + r) + k0;
          for (std::size_t k = 0; k < kb; ++k) dst[k * kMr + r] = src[k];
        } else {
          for (std::size_t k = 0; k < kb; ++k) dst[k * kMr + r] = 0.0;
        }
      }
    }
  }
}

// Packs op(B)[k0 : k0+kb, j0 : j0+nb] into kNr-wide strips:
// dst[s*kb*kNr + k*kNr + j] = op(B)(k0+k, j0+s*kNr+j), zero-padded past the
// column edge.
void PackB(const Matrix& b, bool trans, std::size_t j0, std::size_t nb,
           std::size_t k0, std::size_t kb, double* out) {
  const std::size_t strips = (nb + kNr - 1) / kNr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t jbase = j0 + s * kNr;
    const std::size_t nr = std::min(kNr, j0 + nb - jbase);
    double* dst = out + s * kb * kNr;
    if (trans) {
      // op(B) = B^T with B (n x k): each output column is a contiguous
      // source row.
      for (std::size_t j = 0; j < kNr; ++j) {
        if (j < nr) {
          const double* src = b.RowPtr(jbase + j) + k0;
          for (std::size_t k = 0; k < kb; ++k) dst[k * kNr + j] = src[k];
        } else {
          for (std::size_t k = 0; k < kb; ++k) dst[k * kNr + j] = 0.0;
        }
      }
    } else {
      for (std::size_t k = 0; k < kb; ++k) {
        const double* src = b.RowPtr(k0 + k) + jbase;
        for (std::size_t j = 0; j < kNr; ++j)
          dst[k * kNr + j] = j < nr ? src[j] : 0.0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

// One row of the register tile: kNr doubles in one vector-extension value.
typedef double TileRow __attribute__((vector_size(kNr * sizeof(double))));

// Rows [0, M) of one tile: C[0:M, 0:n] (row stride ldc) = (load_c ? C : 0)
// + Apack strip * Bpack strip, reading row i's A value at ap[k * kMr + i].
// Starting from +0.0 is bitwise starting from a zero-filled C. Lanes past n
// multiply the strip's zero padding and are never stored. Inlined into the
// cloned kernels below, so it compiles once per ISA level.
template <std::size_t M>
WR_ALWAYS_INLINE void TileRows(std::size_t kb, const double* WR_RESTRICT ap,
                               const double* WR_RESTRICT bp,
                               double* WR_RESTRICT c, std::size_t ldc,
                               std::size_t n, bool load_c) {
  TileRow acc[M];
  for (std::size_t i = 0; i < M; ++i) {
    acc[i] = TileRow{};
    if (!load_c) continue;
    if (n == kNr) {
      __builtin_memcpy(&acc[i], c + i * ldc, sizeof(TileRow));
    } else {
      for (std::size_t j = 0; j < n; ++j) acc[i][j] = c[i * ldc + j];
    }
  }
  for (std::size_t k = 0; k < kb; ++k) {
    TileRow bv;
    __builtin_memcpy(&bv, bp + k * kNr, sizeof(TileRow));
    const double* WR_RESTRICT av = ap + k * kMr;
    for (std::size_t i = 0; i < M; ++i) acc[i] = acc[i] + av[i] * bv;
  }
  for (std::size_t i = 0; i < M; ++i) {
    if (n == kNr) {
      __builtin_memcpy(c + i * ldc, &acc[i], sizeof(TileRow));
    } else {
      for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] = acc[i][j];
    }
  }
}

// Full kMr x kNr tile.
WR_KERNEL_CLONES
void MicroKernelFull(std::size_t kb, const double* WR_RESTRICT ap,
                     const double* WR_RESTRICT bp, double* WR_RESTRICT c,
                     std::size_t ldc, bool load_c) {
  TileRows<kMr>(kb, ap, bp, c, ldc, kNr, load_c);
}

// Edge tile: only the m valid rows are computed and the (m x n) valid
// corner of C loaded and stored, so a 1-row batch pays for one row.
WR_KERNEL_CLONES
void MicroKernelEdge(std::size_t kb, const double* WR_RESTRICT ap,
                     const double* WR_RESTRICT bp, double* WR_RESTRICT c,
                     std::size_t ldc, std::size_t m, std::size_t n,
                     bool load_c) {
  static_assert(kMr == 4, "one case per edge row count");
  switch (m) {
    case 1:
      TileRows<1>(kb, ap, bp, c, ldc, n, load_c);
      break;
    case 2:
      TileRows<2>(kb, ap, bp, c, ldc, n, load_c);
      break;
    case 3:
      TileRows<3>(kb, ap, bp, c, ldc, n, load_c);
      break;
    default:
      TileRows<kMr>(kb, ap, bp, c, ldc, n, load_c);
      break;
  }
}

// ---------------------------------------------------------------------------
// Blocked driver: C += op(A) * op(B) (C = … in overwrite mode), C already
// shaped (m, n).
//
// `a_block(i0, mb, k0, kb)` is the A-strip source. It is called once per
// (row block, k-panel) on the worker that owns the block and returns rows
// [i0, i0 + mb) of that kb-deep panel of op(A) as kMr-tall strips (strip s
// at offset s * kb * kMr, the last strip zero-padded): PackAPerBlock packs
// it into the worker's workspace, PrePackedA points into a whole-A pack the
// caller made once. `b_panel(k0, kb)` is the B-strip source. It is called
// once per k-panel on the calling thread and returns that kb-deep panel of
// op(B) for C's n columns as kNr-wide strips (strip js at offset
// js * kb * kNr, the last strip zero-padded): PackBPerCall packs it into the
// workspace, PrePackedB points into a PackedItemTable. Whatever the sources,
// the row-block loop and the micro-kernels below are the same, so every
// combination is bitwise equal.
//
// With `overwrite` the first k-panel's tiles start from +0.0 instead of
// loading C — bitwise what accumulating onto a zero-filled C gives — so C's
// incoming values are never read and need no zero-fill.
// `hook`, when set, is the tile epilogue — fired per kMc row block as soon
// as the block's final k-panel lands, i.e. while the block's C rows are
// still cache-resident, from the worker that computed them.
// ---------------------------------------------------------------------------

template <typename ABlock, typename BPanel>
void BlockedGemm(const ABlock& a_block, const BPanel& b_panel,
                 std::size_t k_total, bool overwrite, Matrix* c,
                 const RowBlockHook* hook = nullptr) {
  const std::size_t m = c->rows();
  const std::size_t n = c->cols();
  if (m == 0 || n == 0) return;
  if (k_total == 0) {
    // Empty sums: C is already final, or all zeros when overwritten.
    if (overwrite) c->SetZero();
    if (hook != nullptr) (*hook)(0, m);
    return;
  }

  const std::size_t nstrips = (n + kNr - 1) / kNr;
  const std::size_t nblocks = (m + kMc - 1) / kMc;

  for (std::size_t k0 = 0; k0 < k_total; k0 += kKc) {
    const std::size_t kb = std::min(kKc, k_total - k0);
    const bool last_panel = k0 + kb == k_total;
    const bool load_c = !overwrite || k0 > 0;
    // Read by every worker; fetched once per k-panel on the calling thread.
    const double* bpanel = b_panel(k0, kb);

    const std::size_t grain = core::GrainForWork(kMc * n * kb);
    core::ParallelFor(0, nblocks, grain, [&](std::size_t blk0,
                                             std::size_t blk1) {
      for (std::size_t blk = blk0; blk < blk1; ++blk) {
        const std::size_t i0 = blk * kMc;
        const std::size_t mb = std::min(kMc, m - i0);
        const std::size_t mstrips = (mb + kMr - 1) / kMr;
        const double* apack = a_block(i0, mb, k0, kb);
        // j outer / i inner: one L1-resident B strip is reused against the
        // whole L2-resident A block before moving on.
        for (std::size_t js = 0; js < nstrips; ++js) {
          const std::size_t j0 = js * kNr;
          const std::size_t nr = std::min(kNr, n - j0);
          const double* bstrip = bpanel + js * kb * kNr;
          for (std::size_t is = 0; is < mstrips; ++is) {
            const std::size_t ibase = i0 + is * kMr;
            const std::size_t mr = std::min(kMr, m - ibase);
            const double* astrip = apack + is * kb * kMr;
            double* ctile = c->RowPtr(ibase) + j0;
            if (mr == kMr && nr == kNr) {
              MicroKernelFull(kb, astrip, bstrip, ctile, n, load_c);
            } else {
              MicroKernelEdge(kb, astrip, bstrip, ctile, n, mr, nr, load_c);
            }
          }
        }
        if (hook != nullptr && last_panel) (*hook)(i0, i0 + mb);
      }
    });
  }
}

// A-strip source for a plain operand: packs each (row block, k-panel) of
// op(A) into the calling worker's kWsGemmPackA buffer.
struct PackAPerBlock {
  const Matrix& a;
  bool trans;

  std::size_t depth() const { return trans ? a.rows() : a.cols(); }

  const double* operator()(std::size_t i0, std::size_t mb, std::size_t k0,
                           std::size_t kb) const {
    double* apack =
        ThreadLocalWorkspace().Buf(kWsGemmPackA, kMc * kKc).data();
    PackA(a, trans, i0, mb, k0, kb, apack);
    return apack;
  }
};

// A-strip source over a whole-A pack: PackA of every k-panel of all of
// op(A)'s rows, panel k0 at offset k0 * padded_rows (every earlier panel is
// kKc deep and padded_rows tall). Row block i0 starts on a strip boundary
// (kMc is a whole number of strips), at offset i0 * kb within its panel.
struct PrePackedA {
  const double* data;
  std::size_t padded_rows;

  const double* operator()(std::size_t i0, std::size_t /*mb*/,
                           std::size_t k0, std::size_t kb) const {
    return data + k0 * padded_rows + i0 * kb;
  }
};

// B-strip source for a plain operand: packs each k-panel of op(B)'s column
// window [j_off, j_off + n) into the calling thread's kWsGemmPackB buffer.
// The returned raw pointer outlives the ParallelFor: the workspace may grow
// other slots, which can move the vector objects but never their heap
// storage.
struct PackBPerCall {
  const Matrix& b;
  bool trans;
  std::size_t j_off;
  std::size_t n;

  const double* operator()(std::size_t k0, std::size_t kb) const {
    const std::size_t nstrips = (n + kNr - 1) / kNr;
    double* bpack =
        ThreadLocalWorkspace().Buf(kWsGemmPackB, nstrips * kNr * kb).data();
    PackB(b, trans, j_off, n, k0, kb, bpack);
    return bpack;
  }
};

// B-strip source over a PackedItemTable: C column j is item j0 + j, with j0
// on a strip boundary. Every earlier k-panel is kKc deep, so panel k0 starts
// at strips * kNr * k0.
struct PrePackedB {
  const PackedItemTable& items;
  std::size_t j0;

  const double* operator()(std::size_t k0, std::size_t kb) const {
    const std::size_t strips = (items.rows() + kNr - 1) / kNr;
    return items.data() + strips * kNr * k0 + (j0 / kNr) * kb * kNr;
  }
};

// Accumulating blocked GEMM over plain operands: C += op(A) * op(B).
void BlockedAcc(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
                Matrix* c, std::size_t j_off = 0,
                const RowBlockHook* hook = nullptr) {
  const PackAPerBlock a_block{a, trans_a};
  BlockedGemm(a_block, PackBPerCall{b, trans_b, j_off, c->cols()},
              a_block.depth(), /*overwrite=*/false, c, hook);
}

bool UseBlocked(std::size_t m, std::size_t n, std::size_t k) {
  return ActiveKind() == GemmKind::kBlocked && m * n * k >= kBlockedMinWork;
}

// One score panel: *c = A * B[j0 : j0+jn, :]^T, with the optional row-block
// epilogue fired while rows are cache-hot. Both kernel variants produce
// panel elements bitwise equal to the corresponding full-GEMM elements (same
// canonical per-element ascending-k chain; tile boundaries only move where
// zero-padded inert lanes sit).
void PanelTransB(const Matrix& a, const Matrix& b, std::size_t j0,
                 std::size_t jn, Matrix* c, const RowBlockHook* hook) {
  c->Resize(a.rows(), jn);
  if (UseBlocked(a.rows(), jn, a.cols())) {
    BlockedAcc(a, /*trans_a=*/false, b, /*trans_b=*/true, c, j0, hook);
  } else {
    NaiveMatMulTransB(a, b, c, j0, hook);
  }
}

}  // namespace

GemmKind CurrentGemmKind() { return ActiveKind(); }

void SetGemmKind(GemmKind kind) { ActiveKind() = kind; }

const char* GemmKindName(GemmKind kind) {
  return kind == GemmKind::kNaive ? "naive" : "blocked";
}

ScoringMode CurrentScoringMode() { return ActiveScoringMode(); }

void SetScoringMode(ScoringMode mode) { ActiveScoringMode() = mode; }

const char* ScoringModeName(ScoringMode mode) {
  return mode == ScoringMode::kMaterialized ? "materialized" : "fused";
}

std::size_t ScoreTileCols() { return ActiveScoreTile(); }

void SetScoreTileCols(std::size_t tile) {
  WR_CHECK_GT(tile, 0u);
  ActiveScoreTile() = tile;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.rows());
  c->Resize(a.rows(), b.cols());
  MatMulAcc(a, b, c);
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.rows(), b.rows());
  c->Resize(a.cols(), b.cols());
  MatMulTransAAcc(a, b, c);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.cols());
  c->Resize(a.rows(), b.rows());
  MatMulTransBAcc(a, b, c);
}

void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.rows());
  WR_CHECK_EQ(c->rows(), a.rows());
  WR_CHECK_EQ(c->cols(), b.cols());
  if (UseBlocked(c->rows(), c->cols(), a.cols())) {
    BlockedAcc(a, /*trans_a=*/false, b, /*trans_b=*/false, c);
  } else {
    NaiveMatMul(a, b, c);
  }
}

void MatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.rows(), b.rows());
  WR_CHECK_EQ(c->rows(), a.cols());
  WR_CHECK_EQ(c->cols(), b.cols());
  if (UseBlocked(c->rows(), c->cols(), a.rows())) {
    BlockedAcc(a, /*trans_a=*/true, b, /*trans_b=*/false, c);
  } else {
    NaiveMatMulTransA(a, b, c);
  }
}

void MatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_EQ(c->rows(), a.rows());
  WR_CHECK_EQ(c->cols(), b.rows());
  if (UseBlocked(c->rows(), c->cols(), a.cols())) {
    BlockedAcc(a, /*trans_a=*/false, b, /*trans_b=*/true, c);
  } else {
    NaiveMatMulTransB(a, b, c);
  }
}

void MatVecInto(const Matrix& a, const std::vector<double>& x,
                std::vector<double>* y) {
  WR_CHECK(y != &x);
  WR_CHECK_EQ(a.cols(), x.size());
  y->assign(a.rows(), 0.0);
  if (a.rows() == 0 || a.cols() == 0) return;
  const double* WR_RESTRICT xp = x.data();
  double* WR_RESTRICT yp = y->data();
  const std::size_t cols = a.cols();
  // Four independent row accumulators for ILP; each row keeps the canonical
  // single-accumulator ascending-k order, so both variants share this path.
  core::ParallelFor(0, a.rows(), core::GrainForWork(cols),
                    [&](std::size_t i0, std::size_t i1) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const double* WR_RESTRICT r0 = a.RowPtr(i);
      const double* WR_RESTRICT r1 = a.RowPtr(i + 1);
      const double* WR_RESTRICT r2 = a.RowPtr(i + 2);
      const double* WR_RESTRICT r3 = a.RowPtr(i + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t k = 0; k < cols; ++k) {
        const double xk = xp[k];
        s0 += r0[k] * xk;
        s1 += r1[k] * xk;
        s2 += r2[k] * xk;
        s3 += r3[k] * xk;
      }
      yp[i] = s0;
      yp[i + 1] = s1;
      yp[i + 2] = s2;
      yp[i + 3] = s3;
    }
    for (; i < i1; ++i) {
      const double* WR_RESTRICT row = a.RowPtr(i);
      double sum = 0.0;
      for (std::size_t k = 0; k < cols; ++k) sum += row[k] * xp[k];
      yp[i] = sum;
    }
  });
}

// ---------------------------------------------------------------------------
// Streaming scoring layer. The panel lives in the calling thread's workspace
// (slot kWsStreamPanel), so nothing here allocates per call in steady state
// and nesting streaming calls is not supported.
// ---------------------------------------------------------------------------

void StreamMatMulTransBTiles(const Matrix& a, const Matrix& b,
                             std::size_t tile, const ScoreRowsFn& fn) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_GT(tile, 0u);
  WR_CHECK(fn != nullptr);
  const std::size_t n = b.rows();
  if (a.rows() == 0 || n == 0) return;
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += tile) {
    const std::size_t jn = std::min(tile, n - j0);
    const RowBlockHook hook = [&](std::size_t i0, std::size_t i1) {
      fn(i0, i1, j0, jn, panel);
    };
    PanelTransB(a, b, j0, jn, &panel, &hook);
  }
}

void StreamMatMulTransB(const Matrix& a, const Matrix& b,
                        const ScoreRowsFn& fn) {
  StreamMatMulTransBTiles(a, b, ScoreTileCols(), fn);
}

void StreamMatMulTransBPanels(const Matrix& a, const Matrix& b,
                              std::size_t tile, const ScorePanelFn& fn) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_GT(tile, 0u);
  WR_CHECK(fn != nullptr);
  const std::size_t n = b.rows();
  if (a.rows() == 0 || n == 0) return;
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += tile) {
    const std::size_t jn = std::min(tile, n - j0);
    PanelTransB(a, b, j0, jn, &panel, /*hook=*/nullptr);
    fn(j0, jn, &panel);
  }
}

void PackedItemTable::Pack(const Matrix& items) {
  rows_ = items.rows();
  cols_ = items.cols();
  const std::size_t strips = (rows_ + kNr - 1) / kNr;
  // PackB writes every element, padding included, so a repack of the same
  // shape reuses the buffer without clearing it first.
  strips_.resize(strips * kNr * cols_);
  for (std::size_t k0 = 0; k0 < cols_; k0 += kKc) {
    const std::size_t kb = std::min(kKc, cols_ - k0);
    PackB(items, /*trans=*/true, 0, rows_, k0, kb,
          strips_.data() + strips * kNr * k0);
  }
}

void PackedItemTable::Clear() {
  rows_ = 0;
  cols_ = 0;
  std::vector<double>().swap(strips_);
}

void StreamPackedMatMulTransBRange(const Matrix& a,
                                   const PackedItemTable& items,
                                   std::size_t j_begin, std::size_t j_end,
                                   std::size_t tile, const ScoreRowsFn& fn) {
  WR_CHECK_EQ(a.cols(), items.cols());
  WR_CHECK_LE(j_begin, j_end);
  WR_CHECK_LE(j_end, items.rows());
  WR_CHECK_EQ(j_begin % kNr, 0u);
  WR_CHECK_GT(tile, 0u);
  WR_CHECK(fn != nullptr);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  if (m == 0 || j_begin == j_end) return;
  // Whole strips per tile: every tile starts on a strip boundary, and the
  // last one ends at j_end (inside the table's zero-padded last strip, or
  // mid-strip, where the edge kernel stores only the columns in range).
  // Clamped first so rounding a huge knob value cannot wrap to zero.
  tile = (std::min(tile, j_end - j_begin) + kNr - 1) / kNr * kNr;
  // The users block is the same for every tile: pack all of it once, into
  // the calling thread's workspace (read by the row-block workers).
  const std::size_t padded_rows = (m + kMr - 1) / kMr * kMr;
  double* apack =
      ThreadLocalWorkspace().Buf(kWsStreamPackA, padded_rows * k).data();
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    PackA(a, /*trans=*/false, 0, m, k0, std::min(kKc, k - k0),
          apack + k0 * padded_rows);
  }
  const PrePackedA a_block{apack, padded_rows};
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  for (std::size_t j0 = j_begin; j0 < j_end; j0 += tile) {
    const std::size_t jn = std::min(tile, j_end - j0);
    const RowBlockHook hook = [&](std::size_t i0, std::size_t i1) {
      fn(i0, i1, j0, jn, panel);
    };
    // Every element is overwritten, so the panel is reshaped, not cleared.
    panel.Reshape(m, jn);
    BlockedGemm(a_block, PrePackedB{items, j0}, k, /*overwrite=*/true,
                &panel, &hook);
  }
}

void StreamPackedMatMulTransBTiles(const Matrix& a,
                                   const PackedItemTable& items,
                                   std::size_t tile, const ScoreRowsFn& fn) {
  StreamPackedMatMulTransBRange(a, items, 0, items.rows(), tile, fn);
}

void StreamPackedMatMulTransB(const Matrix& a, const PackedItemTable& items,
                              const ScoreRowsFn& fn) {
  StreamPackedMatMulTransBTiles(a, items, ScoreTileCols(), fn);
}

double RowDotTransB(const Matrix& a, std::size_t i, const Matrix& b,
                    std::size_t j) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_LT(i, a.rows());
  WR_CHECK_LT(j, b.rows());
  const double* WR_RESTRICT arow = a.RowPtr(i);
  const double* WR_RESTRICT brow = b.RowPtr(j);
  // One accumulator, k ascending, mul-then-add (-ffp-contract=off in this
  // TU): the exact chain both kernel variants use per element, so the result
  // is bitwise identical to the GEMM's element (i, j).
  double sum = 0.0;
  for (std::size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
  return sum;
}

}  // namespace linalg
}  // namespace whitenrec
