// Bitwise equivalence of the blocked GEMM kernels (linalg/gemm.cc) against
// the naive reference loops, across shapes that stress every packing edge
// case (empty, single row/column, odd remainders, non-square, larger than
// one cache block) and across thread counts. Both variants promise ONE
// canonical accumulation order per output element — ascending k with a
// single running accumulator — so equality here is exact, not tolerance-
// based. Also checks that the thread-local packing workspace carries no
// state between calls.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/workspace.h"

namespace whitenrec {
namespace linalg {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(core::NumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }

 private:
  std::size_t saved_;
};

class ScopedGemmKind {
 public:
  explicit ScopedGemmKind(GemmKind kind) : saved_(CurrentGemmKind()) {
    SetGemmKind(kind);
  }
  ~ScopedGemmKind() { SetGemmKind(saved_); }

 private:
  GemmKind saved_;
};

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << " diverges at flat index " << i << " (" << a.data()[i]
        << " vs " << b.data()[i] << ")";
  }
}

// (m, k, n) triples covering the packing edge cases: kMr=4 / kNr=8 register
// tiles, kMc=64 row blocks, kKc=256 k-panels. Shapes straddle each boundary
// and include degenerate and strongly rectangular cases.
struct Shape {
  std::size_t m, k, n;
};

const Shape kShapes[] = {
    {0, 0, 0},    {0, 5, 7},    {3, 4, 0},    {1, 1, 1},   {1, 17, 9},
    {5, 1, 8},    {4, 8, 8},    {7, 13, 11},  {31, 29, 37}, {64, 256, 8},
    {65, 257, 9}, {12, 300, 5}, {130, 40, 70}, {96, 512, 96},
};

// Fresh deterministic operands for a shape; `salt` decorrelates A from B.
Matrix Operand(std::size_t rows, std::size_t cols, std::uint64_t salt) {
  Rng rng(0x9e3779b9u + salt);
  return rng.GaussianMatrix(rows, cols, 1.0);
}

enum class Op { kMatMul, kTransA, kTransB };

void RunInto(Op op, const Matrix& a, const Matrix& b, Matrix* c) {
  switch (op) {
    case Op::kMatMul:
      MatMulInto(a, b, c);
      break;
    case Op::kTransA:
      MatMulTransAInto(a, b, c);
      break;
    case Op::kTransB:
      MatMulTransBInto(a, b, c);
      break;
  }
}

void RunAcc(Op op, const Matrix& a, const Matrix& b, Matrix* c) {
  switch (op) {
    case Op::kMatMul:
      MatMulAcc(a, b, c);
      break;
    case Op::kTransA:
      MatMulTransAAcc(a, b, c);
      break;
    case Op::kTransB:
      MatMulTransBAcc(a, b, c);
      break;
  }
}

// Builds (A, B) with the right orientation for `op` given logical (m, k, n).
void MakeOperands(Op op, const Shape& s, Matrix* a, Matrix* b) {
  switch (op) {
    case Op::kMatMul:  // (m,k) x (k,n)
      *a = Operand(s.m, s.k, 1);
      *b = Operand(s.k, s.n, 2);
      break;
    case Op::kTransA:  // (k,m)^T x (k,n)
      *a = Operand(s.k, s.m, 1);
      *b = Operand(s.k, s.n, 2);
      break;
    case Op::kTransB:  // (m,k) x (n,k)^T
      *a = Operand(s.m, s.k, 1);
      *b = Operand(s.n, s.k, 2);
      break;
  }
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kMatMul:
      return "MatMul";
    case Op::kTransA:
      return "MatMulTransA";
    case Op::kTransB:
      return "MatMulTransB";
  }
  return "?";
}

TEST(GemmEquivalenceTest, BlockedMatchesNaiveBitwiseAcrossShapesAndThreads) {
  for (Op op : {Op::kMatMul, Op::kTransA, Op::kTransB}) {
    for (const Shape& s : kShapes) {
      Matrix a, b;
      MakeOperands(op, s, &a, &b);

      Matrix ref;
      {
        ScopedGemmKind naive(GemmKind::kNaive);
        ScopedThreads one(1);
        RunInto(op, a, b, &ref);
      }
      for (std::size_t threads : kThreadCounts) {
        for (GemmKind kind : {GemmKind::kNaive, GemmKind::kBlocked}) {
          ScopedGemmKind k(kind);
          ScopedThreads t(threads);
          Matrix c;
          RunInto(op, a, b, &c);
          SCOPED_TRACE(::testing::Message()
                       << OpName(op) << " m=" << s.m << " k=" << s.k
                       << " n=" << s.n << " kind=" << GemmKindName(kind)
                       << " threads=" << threads);
          ExpectBitwiseEqual(ref, c, OpName(op));
        }
      }
    }
  }
}

TEST(GemmEquivalenceTest, AccVariantsMatchNaiveBitwise) {
  for (Op op : {Op::kMatMul, Op::kTransA, Op::kTransB}) {
    for (const Shape& s : kShapes) {
      Matrix a, b;
      MakeOperands(op, s, &a, &b);
      // Accumulate on top of a non-trivial C so the "+=" path is real.
      const Matrix c0 = Operand(s.m, s.n, 3);

      Matrix ref = c0;
      {
        ScopedGemmKind naive(GemmKind::kNaive);
        ScopedThreads one(1);
        RunAcc(op, a, b, &ref);
      }
      for (std::size_t threads : kThreadCounts) {
        ScopedGemmKind blocked(GemmKind::kBlocked);
        ScopedThreads t(threads);
        Matrix c = c0;
        RunAcc(op, a, b, &c);
        SCOPED_TRACE(::testing::Message()
                     << OpName(op) << "Acc m=" << s.m << " k=" << s.k
                     << " n=" << s.n << " threads=" << threads);
        ExpectBitwiseEqual(ref, c, OpName(op));
      }
    }
  }
}

// Every (m, n) register-tile edge — 1 to 3 valid rows of the 4-row tile,
// 1 to 7 valid columns of the 8-column strip, and whole tiles — at one
// k-panel (k = 1, 31) and two (k = 257 > kKc). The public entry points send
// products below the blocked kernel's minimum work to the naive loops, so
// the packed stream, which always runs the blocked kernel, covers the small
// shapes too.
TEST(GemmEquivalenceTest, SmallEdgeTilesMatchNaiveBitwise) {
  for (const std::size_t k : {1u, 31u, 257u}) {
    for (std::size_t m = 1; m <= 5; ++m) {
      for (std::size_t n = 1; n <= 17; ++n) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n);
        for (Op op : {Op::kMatMul, Op::kTransB}) {
          const Shape s{m, k, n};
          Matrix a, b;
          MakeOperands(op, s, &a, &b);
          Matrix ref;
          {
            ScopedGemmKind naive(GemmKind::kNaive);
            RunInto(op, a, b, &ref);
          }
          ScopedGemmKind blocked(GemmKind::kBlocked);
          Matrix c;
          RunInto(op, a, b, &c);
          ExpectBitwiseEqual(ref, c, OpName(op));
          if (op != Op::kTransB) continue;
          PackedItemTable packed;
          packed.Pack(b);
          Matrix streamed(m, n);
          StreamPackedMatMulTransBTiles(
              a, packed, 8,
              [&](std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t jn, const Matrix& panel) {
                for (std::size_t i = i0; i < i1; ++i) {
                  for (std::size_t col = 0; col < jn; ++col) {
                    streamed(i, j0 + col) = panel(i, col);
                  }
                }
              });
          ExpectBitwiseEqual(ref, streamed, "packed stream");
        }
      }
    }
  }
}

TEST(GemmEquivalenceTest, MatVecMatchesMatMulColumn) {
  Rng rng(11);
  const Matrix a = rng.GaussianMatrix(37, 53, 1.0);
  std::vector<double> x(53);
  for (double& v : x) v = rng.Gaussian();
  Matrix xcol(53, 1);
  for (std::size_t i = 0; i < x.size(); ++i) xcol(i, 0) = x[i];

  const Matrix ref = MatMul(a, xcol);
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads t(threads);
    std::vector<double> y;
    MatVecInto(a, x, &y);
    ASSERT_EQ(y.size(), ref.rows());
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], ref(i, 0)) << "MatVec row " << i << " at " << threads
                                 << " threads";
    }
  }
}

TEST(GemmEquivalenceTest, EnvKindNamesRoundTrip) {
  EXPECT_STREQ(GemmKindName(GemmKind::kNaive), "naive");
  EXPECT_STREQ(GemmKindName(GemmKind::kBlocked), "blocked");
}

// The packing workspace is thread-local scratch: a big product followed by a
// small one, then the small one again from scratch, must agree bitwise. If
// stale packed panels leaked between calls, the second small product would
// read residue from the large one.
TEST(GemmWorkspaceTest, NoContaminationAcrossCalls) {
  ScopedGemmKind blocked(GemmKind::kBlocked);
  const Matrix big_a = Operand(96, 512, 7);
  const Matrix big_b = Operand(512, 96, 8);
  const Matrix small_a = Operand(5, 9, 9);
  const Matrix small_b = Operand(9, 6, 10);

  Matrix fresh;
  MatMulInto(small_a, small_b, &fresh);  // before any big call this test makes

  Matrix big;
  MatMulInto(big_a, big_b, &big);
  Matrix after;
  MatMulInto(small_a, small_b, &after);
  ExpectBitwiseEqual(fresh, after, "small product after large product");

  // Same property for the destination-reusing path: shrinking a workspace
  // matrix must zero-fill, not expose old values.
  Workspace ws;
  Matrix& m = ws.Mat(0, 64, 64);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = 123.0;
  Matrix& shrunk = ws.Mat(0, 3, 3);
  for (std::size_t i = 0; i < shrunk.size(); ++i) {
    ASSERT_EQ(shrunk.data()[i], 0.0) << "stale workspace value at " << i;
  }
  ASSERT_EQ(&m, &shrunk);  // same slot object, capacity reused
}

// ---------------------------------------------------------------------------
// Streaming score panels (the fused-scoring tile layer)
// ---------------------------------------------------------------------------

// The streaming layer promises each panel element is the SAME accumulation
// chain as the corresponding full-GEMM element, so reassembling the panels
// must reproduce MatMulTransB bitwise — for any tile width, thread count,
// and kernel variant — and every (row, tile) cell must be delivered exactly
// once.
TEST(StreamingGemmTest, ReassembledPanelsMatchMatMulTransBBitwise) {
  const Shape stream_shapes[] = {
      {1, 1, 1}, {5, 17, 9}, {31, 29, 37}, {64, 256, 8}, {96, 512, 96}};
  for (const Shape& s : stream_shapes) {
    const Matrix a = Operand(s.m, s.k, 1);
    const Matrix b = Operand(s.n, s.k, 2);
    Matrix ref;
    {
      ScopedGemmKind naive(GemmKind::kNaive);
      ScopedThreads one(1);
      MatMulTransBInto(a, b, &ref);
    }
    for (std::size_t threads : kThreadCounts) {
      for (GemmKind kind : {GemmKind::kNaive, GemmKind::kBlocked}) {
        for (const std::size_t tile : {1u, 7u, 64u, 1000u}) {
          ScopedGemmKind k(kind);
          ScopedThreads t(threads);
          SCOPED_TRACE(::testing::Message()
                       << "m=" << s.m << " k=" << s.k << " n=" << s.n
                       << " kind=" << GemmKindName(kind)
                       << " threads=" << threads << " tile=" << tile);
          Matrix assembled(s.m, s.n);
          std::vector<int> delivered(s.m * s.n, 0);
          StreamMatMulTransBTiles(
              a, b, tile,
              [&](std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t jn, const Matrix& panel) {
                for (std::size_t i = i0; i < i1; ++i) {
                  for (std::size_t c = 0; c < jn; ++c) {
                    assembled(i, j0 + c) = panel(i, c);
                    ++delivered[i * s.n + j0 + c];
                  }
                }
              });
          ExpectBitwiseEqual(ref, assembled, "streamed tiles");
          for (std::size_t i = 0; i < delivered.size(); ++i) {
            ASSERT_EQ(delivered[i], 1) << "cell " << i << " delivered "
                                       << delivered[i] << " times";
          }

          Matrix from_panels(s.m, s.n);
          StreamMatMulTransBPanels(
              a, b, tile,
              [&](std::size_t j0, std::size_t jn, Matrix* panel) {
                for (std::size_t i = 0; i < s.m; ++i) {
                  for (std::size_t c = 0; c < jn; ++c) {
                    from_panels(i, j0 + c) = (*panel)(i, c);
                  }
                }
              });
          ExpectBitwiseEqual(ref, from_panels, "streamed panels");
        }
      }
    }
  }
}

// The pre-packed stream reads B strips straight out of a PackedItemTable
// instead of packing per call. Reassembled, its panels must be the
// materialized product bit for bit: any tile width (rounded up to whole
// 8-column strips), a column count that leaves a zero-padded last strip,
// one k-panel (d = 32) or two (d = 300 > kKc), 1 or 4 threads. The largest
// tile must not wrap to zero when rounded up.
TEST(StreamingGemmTest, PackedStreamMatchesMatMulTransBBitwise) {
  const std::size_t n = 203;  // 25 full strips + a 3-column tail strip
  const std::size_t tiles[] = {1, 7, 8, 256, 1000,
                               std::numeric_limits<std::size_t>::max()};
  for (const std::size_t d : {32u, 300u}) {
    const Matrix b = Operand(n, d, 6);
    PackedItemTable packed;
    packed.Pack(b);
    ASSERT_EQ(packed.rows(), n);
    ASSERT_EQ(packed.cols(), d);
    EXPECT_EQ(packed.PackedBytes(), 26u * 8u * d * sizeof(double));
    for (const std::size_t m : {1u, 3u, 4u, 65u}) {
      const Matrix a = Operand(m, d, 5);
      Matrix ref;
      MatMulTransBInto(a, b, &ref);
      for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t tile : tiles) {
          ScopedThreads t(threads);
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " d=" << d << " threads=" << threads
                       << " tile=" << tile);
          Matrix assembled(m, n);
          std::vector<int> delivered(m * n, 0);
          StreamPackedMatMulTransBTiles(
              a, packed, tile,
              [&](std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t jn, const Matrix& panel) {
                EXPECT_EQ(j0 % 8, 0u);
                for (std::size_t i = i0; i < i1; ++i) {
                  for (std::size_t c = 0; c < jn; ++c) {
                    assembled(i, j0 + c) = panel(i, c);
                    ++delivered[i * n + j0 + c];
                  }
                }
              });
          ExpectBitwiseEqual(ref, assembled, "packed stream");
          for (std::size_t i = 0; i < delivered.size(); ++i) {
            ASSERT_EQ(delivered[i], 1) << "cell " << i;
          }
        }
      }
    }
  }
}

// Reassembles a packed stream (or one of its column ranges) into an
// (a.rows() x items) matrix; cells outside the range stay NaN.
Matrix StreamPacked(const Matrix& a, const PackedItemTable& packed,
                    std::size_t j_begin, std::size_t j_end,
                    std::size_t tile) {
  Matrix out(a.rows(), packed.rows(),
             std::numeric_limits<double>::quiet_NaN());
  StreamPackedMatMulTransBRange(
      a, packed, j_begin, j_end, tile,
      [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
          const Matrix& panel) {
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t c = 0; c < jn; ++c) out(i, j0 + c) = panel(i, c);
        }
      });
  return out;
}

// Fills the calling thread's stream panel with NaN, so a stream that read a
// panel value before writing it would show.
void PoisonStreamPanel() {
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  panel.Reshape(128, 512);
  panel.Fill(std::numeric_limits<double>::quiet_NaN());
}

// The packed stream overwrites its panel instead of zero-filling it: a
// small stream right after a larger one, and after a NaN-poisoned panel,
// must still be the materialized product bit for bit.
TEST(StreamingGemmTest, PackedStreamOverwritesStalePanel) {
  ScopedThreads one(1);
  const Matrix big_b = Operand(203, 300, 11);
  PackedItemTable big;
  big.Pack(big_b);
  const Matrix big_a = Operand(65, 300, 12);
  Matrix big_ref;
  MatMulTransBInto(big_a, big_b, &big_ref);
  ExpectBitwiseEqual(big_ref, StreamPacked(big_a, big, 0, 203, 256),
                     "large stream");

  const Matrix small_b = Operand(13, 9, 13);
  PackedItemTable small;
  small.Pack(small_b);
  const Matrix small_a = Operand(3, 9, 14);
  Matrix small_ref;
  MatMulTransBInto(small_a, small_b, &small_ref);
  ExpectBitwiseEqual(small_ref, StreamPacked(small_a, small, 0, 13, 256),
                     "small stream after a large one");
  PoisonStreamPanel();
  ExpectBitwiseEqual(small_ref, StreamPacked(small_a, small, 0, 13, 8),
                     "small stream over a poisoned panel");
}

// d = 0: every score is an empty sum, +0.0, even over a stale panel.
TEST(StreamingGemmTest, PackedStreamZeroDepthGivesZeros) {
  const Matrix items(21, 0);
  PackedItemTable packed;
  packed.Pack(items);
  const Matrix users(5, 0);
  for (const std::size_t threads : {1u, 4u}) {
    ScopedThreads t(threads);
    PoisonStreamPanel();
    const Matrix got = StreamPacked(users, packed, 0, 21, 8);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], 0.0) << "flat index " << i;
      ASSERT_FALSE(std::signbit(got.data()[i])) << "flat index " << i;
    }
  }
}

// A column range of the stream is those columns of the full stream, bit for
// bit: strip-aligned starts, ends on a strip boundary, mid-strip, or at the
// table's ragged last strip, and the empty range. Cells outside the range
// are never delivered.
TEST(StreamingGemmTest, PackedRangeMatchesFullStreamColumns) {
  const std::size_t n = 203;
  for (const std::size_t d : {32u, 300u}) {
    const Matrix b = Operand(n, d, 15);
    PackedItemTable packed;
    packed.Pack(b);
    for (const std::size_t m : {1u, 4u, 65u}) {
      const Matrix a = Operand(m, d, 16);
      const Matrix full = StreamPacked(a, packed, 0, n, 256);
      const std::size_t ranges[][2] = {{0, 8},    {8, 64},   {64, 67},
                                       {96, 203}, {200, 203}, {0, 203},
                                       {40, 40},  {16, 131}};
      for (const auto& range : ranges) {
        for (const std::size_t tile : {1u, 16u, 1000u}) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " d=" << d << " range=[" << range[0]
                       << ", " << range[1] << ") tile=" << tile);
          const Matrix got = StreamPacked(a, packed, range[0], range[1], tile);
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              if (j >= range[0] && j < range[1]) {
                ASSERT_EQ(got(i, j), full(i, j)) << "(" << i << ", " << j
                                                 << ")";
              } else {
                ASSERT_TRUE(std::isnan(got(i, j)))
                    << "(" << i << ", " << j << ") outside the range";
              }
            }
          }
        }
      }
    }
  }
}

TEST(StreamingGemmTest, RowDotMatchesFullGemmElementBitwise) {
  const Matrix a = Operand(13, 37, 3);
  const Matrix b = Operand(29, 37, 4);
  Matrix ref;
  MatMulTransBInto(a, b, &ref);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      ASSERT_EQ(RowDotTransB(a, i, b, j), ref(i, j))
          << "element (" << i << ", " << j << ")";
    }
  }
}

TEST(StreamingGemmTest, ScoringKnobsRoundTripAndDefaultSafe) {
  const ScoringMode saved_mode = CurrentScoringMode();
  const std::size_t saved_tile = ScoreTileCols();
  SetScoringMode(ScoringMode::kFused);
  EXPECT_EQ(CurrentScoringMode(), ScoringMode::kFused);
  SetScoreTileCols(77);
  EXPECT_EQ(ScoreTileCols(), 77u);
  SetScoringMode(saved_mode);
  SetScoreTileCols(saved_tile);
}

// Buf() slots grow monotonically and keep their identity.
TEST(GemmWorkspaceTest, BufGrowsMonotonically) {
  Workspace ws;
  std::vector<double>& b1 = ws.Buf(0, 100);
  EXPECT_GE(b1.size(), 100u);
  std::vector<double>& b2 = ws.Buf(0, 10);
  EXPECT_EQ(&b1, &b2);
  EXPECT_GE(b2.size(), 100u) << "Buf must never shrink";
  std::vector<double>& b3 = ws.Buf(1, 50);
  EXPECT_NE(&b1, &b3) << "distinct slots must be distinct buffers";
}

}  // namespace
}  // namespace linalg
}  // namespace whitenrec
