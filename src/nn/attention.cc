#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/workspace.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim,
                                               std::size_t num_heads,
                                               linalg::Rng* rng,
                                               std::string name, bool causal)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      causal_(causal),
      wq_(dim, dim, rng, name + ".wq"),
      wk_(dim, dim, rng, name + ".wk"),
      wv_(dim, dim, rng, name + ".wv"),
      wo_(dim, dim, rng, name + ".wo") {
  WR_CHECK_MSG(dim % num_heads == 0, "dim must be divisible by num_heads");
}

Matrix MultiHeadSelfAttention::Forward(const Matrix& x, std::size_t batch,
                                       std::size_t seq_len) {
  WR_CHECK_EQ(x.rows(), batch * seq_len);
  WR_CHECK_EQ(x.cols(), dim_);
  WR_CHECK_FINITE(x);
  batch_ = batch;
  seq_len_ = seq_len;

  wq_.ForwardInto(x, &cached_q_);
  wk_.ForwardInto(x, &cached_k_);
  wv_.ForwardInto(x, &cached_v_);
  if (cached_probs_.size() != batch * num_heads_) {
    cached_probs_.resize(batch * num_heads_);
  }

  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  mixed_.Resize(x.rows(), dim_);  // concatenated head outputs
  Matrix& mixed = mixed_;

  // Parallel over (sequence, head) pairs: pair (b, h) touches only rows of
  // sequence b and the columns of head h, so writes are disjoint and the
  // result is bitwise independent of the thread count.
  core::ParallelFor(0, batch * num_heads_, 1, [&](std::size_t p0,
                                                  std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t b = p / num_heads_;
      const std::size_t h = p % num_heads_;
      const std::size_t base = b * seq_len;
      const std::size_t off = h * head_dim_;
      Matrix& probs = cached_probs_[b * num_heads_ + h];
      probs.Resize(seq_len, seq_len);
      // Masked scores + row softmax: causal attends to positions <= i,
      // bidirectional to every position.
      for (std::size_t i = 0; i < seq_len; ++i) {
        const std::size_t jmax = causal_ ? i : seq_len - 1;
        const double* qi = cached_q_.RowPtr(base + i) + off;
        double max_s = -1e300;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double* kj = cached_k_.RowPtr(base + j) + off;
          double s = 0.0;
          for (std::size_t c = 0; c < head_dim_; ++c) s += qi[c] * kj[c];
          s *= scale;
          probs(i, j) = s;
          if (s > max_s) max_s = s;
        }
        double sum = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j) {
          probs(i, j) = std::exp(probs(i, j) - max_s);
          sum += probs(i, j);
        }
        const double inv = 1.0 / sum;
        for (std::size_t j = 0; j <= jmax; ++j) probs(i, j) *= inv;
        // Mix values: out_i = sum_j probs_ij * v_j.
        double* out = mixed.RowPtr(base + i) + off;
        for (std::size_t c = 0; c < head_dim_; ++c) out[c] = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double pij = probs(i, j);
          const double* vj = cached_v_.RowPtr(base + j) + off;
          for (std::size_t c = 0; c < head_dim_; ++c) out[c] += pij * vj[c];
        }
      }
    }
  });
  // A softmax overflow or bad V projection shows up here, before the output
  // projection can smear it across every feature.
  WR_CHECK_FINITE(mixed);
  return wo_.Forward(mixed);
}

void AttentionKvCache::Reserve(std::size_t rows, std::size_t dim) {
  if (k.rows() >= rows && k.cols() == dim) return;
  WR_CHECK(len == 0 || k.cols() == dim);
  const std::size_t cap = std::max({rows, 2 * k.rows(), std::size_t{8}});
  Matrix grown_k(cap, dim);
  Matrix grown_v(cap, dim);
  std::copy(k.data(), k.data() + len * dim, grown_k.data());
  std::copy(v.data(), v.data() + len * dim, grown_v.data());
  k = std::move(grown_k);
  v = std::move(grown_v);
}

void MultiHeadSelfAttention::ForwardSegmentsInto(
    const Matrix& x, std::span<const KvSegment> segments, std::size_t block,
    Matrix* y) const {
  WR_CHECK(causal_);
  WR_CHECK_EQ(x.cols(), dim_);
  WR_CHECK_FINITE(x);
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& q = ws.MatRef(linalg::kWsSegQ);
  Matrix& k = ws.MatRef(linalg::kWsSegK);
  Matrix& v = ws.MatRef(linalg::kWsSegV);
  Matrix& mixed = ws.MatRef(linalg::kWsSegMixed);
  // One GEMM per projection over every stacked row: each element keeps the
  // canonical ascending-k chain, so a row's Q/K/V do not depend on which
  // rows share the GEMM.
  wq_.ForwardEvalInto(x, &q);
  wk_.ForwardEvalInto(x, &k);
  wv_.ForwardEvalInto(x, &v);
  mixed.Reshape(x.rows(), dim_);

  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  std::size_t row0 = 0;
  for (const KvSegment& seg : segments) {
    AttentionKvCache& kv = seg.kv->blocks[block];
    WR_CHECK_LE(seg.start + seg.rows, kv.k.rows());
    // The segment's K/V rows land in the cache in place; every row below
    // then reads its keys and values from the cache alone.
    std::copy(k.RowPtr(row0), k.RowPtr(row0) + seg.rows * dim_,
              kv.k.RowPtr(seg.start));
    std::copy(v.RowPtr(row0), v.RowPtr(row0) + seg.rows * dim_,
              kv.v.RowPtr(seg.start));
    kv.len = seg.start + seg.rows;
    double* probs =
        ws.Buf(linalg::kWsSegProbs, kv.len).data();
    // Row i of the causal attention, head by head — the same masked-score /
    // softmax / value-mix loops as Forward.
    for (std::size_t r = 0; r < seg.rows; ++r) {
      const std::size_t i = seg.start + r;
      for (std::size_t h = 0; h < num_heads_; ++h) {
        const std::size_t off = h * head_dim_;
        const double* qi = q.RowPtr(row0 + r) + off;
        double max_s = -1e300;
        for (std::size_t j = 0; j <= i; ++j) {
          const double* kj = kv.k.RowPtr(j) + off;
          double s = 0.0;
          for (std::size_t c = 0; c < head_dim_; ++c) s += qi[c] * kj[c];
          s *= scale;
          probs[j] = s;
          if (s > max_s) max_s = s;
        }
        double sum = 0.0;
        for (std::size_t j = 0; j <= i; ++j) {
          probs[j] = std::exp(probs[j] - max_s);
          sum += probs[j];
        }
        const double inv = 1.0 / sum;
        for (std::size_t j = 0; j <= i; ++j) probs[j] *= inv;
        double* out = mixed.RowPtr(row0 + r) + off;
        for (std::size_t c = 0; c < head_dim_; ++c) out[c] = 0.0;
        for (std::size_t j = 0; j <= i; ++j) {
          const double pij = probs[j];
          const double* vj = kv.v.RowPtr(j) + off;
          for (std::size_t c = 0; c < head_dim_; ++c) out[c] += pij * vj[c];
        }
      }
    }
    row0 += seg.rows;
  }
  WR_CHECK_EQ(row0, x.rows());
  WR_CHECK_FINITE(mixed);
  wo_.ForwardEvalInto(mixed, y);
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& dy) {
  WR_CHECK_EQ(dy.rows(), batch_ * seq_len_);
  WR_CHECK_FINITE(dy);
  wo_.BackwardInto(dy, &dmixed_);
  const Matrix& dmixed = dmixed_;

  dq_.Resize(dy.rows(), dim_);
  dk_.Resize(dy.rows(), dim_);
  dv_.Resize(dy.rows(), dim_);
  Matrix& dq = dq_;
  Matrix& dk = dk_;
  Matrix& dv = dv_;
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));

  // Mirrors the forward parallelization: (b, h) owns the rows of sequence b
  // restricted to head h's columns in dq/dk/dv, so the scatter-adds below
  // never collide across chunks.
  core::ParallelFor(0, batch_ * num_heads_, 1, [&](std::size_t p0,
                                                   std::size_t p1) {
    std::vector<double> dprob_row;
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t b = p / num_heads_;
      const std::size_t h = p % num_heads_;
      const std::size_t base = b * seq_len_;
      const std::size_t off = h * head_dim_;
      const Matrix& probs = cached_probs_[b * num_heads_ + h];
      for (std::size_t i = 0; i < seq_len_; ++i) {
        const std::size_t jmax = causal_ ? i : seq_len_ - 1;
        const double* dout = dmixed.RowPtr(base + i) + off;
        // dprobs_ij = dout . v_j ; dv_j += probs_ij * dout.
        dprob_row.assign(jmax + 1, 0.0);
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double pij = probs(i, j);
          const double* vj = cached_v_.RowPtr(base + j) + off;
          double* dvj = dv.RowPtr(base + j) + off;
          double dp = 0.0;
          for (std::size_t c = 0; c < head_dim_; ++c) {
            // Causal masking makes each row's extent ragged, and the pass
            // fuses two updates (dp dot + dv scatter) per element; a square
            // GEMM would do 2x the FLOPs and need an unmask/remask pass.
            // whitenrec-lint: allow(hand-rolled-gemm)
            dp += dout[c] * vj[c];
            dvj[c] += pij * dout[c];
          }
          dprob_row[j] = dp;
        }
        // Softmax backward over the (masked) row: a ragged-extent dot, not
        // a matmul.
        double inner = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j)
          inner += dprob_row[j] * probs(i, j);  // whitenrec-lint: allow(hand-rolled-gemm)
        const double* qi = cached_q_.RowPtr(base + i) + off;
        double* dqi = dq.RowPtr(base + i) + off;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double ds = probs(i, j) * (dprob_row[j] - inner) * scale;
          const double* kj = cached_k_.RowPtr(base + j) + off;
          double* dkj = dk.RowPtr(base + j) + off;
          for (std::size_t c = 0; c < head_dim_; ++c) {
            // Same ragged causal extent as above, fusing the dq and dk
            // rank-1 updates in one sweep.
            // whitenrec-lint: allow(hand-rolled-gemm)
            dqi[c] += ds * kj[c];
            dkj[c] += ds * qi[c];
          }
        }
      }
    }
  });

  // dX accumulates the three projection backwards in-kernel, skipping two
  // full-size temporaries and elementwise adds.
  Matrix dx;
  wq_.BackwardInto(dq, &dx);
  wk_.BackwardAccInto(dk, &dx);
  wv_.BackwardAccInto(dv, &dx);
  WR_CHECK_FINITE(dx);
  return dx;
}

void MultiHeadSelfAttention::CollectParameters(std::vector<Parameter*>* out) {
  wq_.CollectParameters(out);
  wk_.CollectParameters(out);
  wv_.CollectParameters(out);
  wo_.CollectParameters(out);
}

}  // namespace nn
}  // namespace whitenrec
