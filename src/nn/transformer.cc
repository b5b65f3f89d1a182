#include "nn/transformer.h"

#include "linalg/workspace.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

FeedForward::FeedForward(std::size_t dim, std::size_t hidden_dim,
                         linalg::Rng* rng, std::string name)
    : fc1_(dim, hidden_dim, rng, name + ".fc1"),
      fc2_(hidden_dim, dim, rng, name + ".fc2") {}

Matrix FeedForward::Forward(const Matrix& x) {
  return fc2_.Forward(relu_.Forward(fc1_.Forward(x)));
}

Matrix FeedForward::Backward(const Matrix& dy) {
  return fc1_.Backward(relu_.Backward(fc2_.Backward(dy)));
}

void FeedForward::ForwardEvalInto(const Matrix& x, Matrix* y) const {
  Matrix& hidden = linalg::ThreadLocalWorkspace().MatRef(linalg::kWsSegFfn);
  fc1_.ForwardEvalInto(x, &hidden);
  ReluInPlace(&hidden);
  fc2_.ForwardEvalInto(hidden, y);
}

void FeedForward::CollectParameters(std::vector<Parameter*>* out) {
  fc1_.CollectParameters(out);
  fc2_.CollectParameters(out);
}

TransformerBlock::TransformerBlock(std::size_t dim, std::size_t num_heads,
                                   std::size_t ffn_hidden, double dropout_rate,
                                   linalg::Rng* rng, std::string name,
                                   bool causal)
    : ln1_(dim, name + ".ln1"),
      attn_(dim, num_heads, rng, name + ".attn", causal),
      drop1_(dropout_rate, rng),
      ln2_(dim, name + ".ln2"),
      ffn_(dim, ffn_hidden, rng, name + ".ffn"),
      drop2_(dropout_rate, rng) {}

Matrix TransformerBlock::Forward(const Matrix& x, std::size_t batch,
                                 std::size_t seq_len, bool train) {
  Matrix h = x;
  h += drop1_.Forward(attn_.Forward(ln1_.Forward(x), batch, seq_len), train);
  Matrix y = h;
  y += drop2_.Forward(ffn_.Forward(ln2_.Forward(h)), train);
  return y;
}

void TransformerBlock::ForwardSegmentsInPlace(
    Matrix* h, std::span<const KvSegment> segments, std::size_t block) const {
  // h = x + Attn(LN1(x)); y = h + FFN(LN2(h)) — dropout is identity in eval
  // mode, and h[c] + out[c] is x[c] + out[c], so the residual adds are
  // exactly Forward(train=false)'s.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& ln = ws.MatRef(linalg::kWsSegNorm);
  Matrix& out = ws.MatRef(linalg::kWsSegOut);
  ln1_.ForwardEvalInto(*h, &ln);
  attn_.ForwardSegmentsInto(ln, segments, block, &out);
  *h += out;
  ln2_.ForwardEvalInto(*h, &ln);
  ffn_.ForwardEvalInto(ln, &out);
  *h += out;
}

Matrix TransformerBlock::Backward(const Matrix& dy) {
  // y = h + Drop(FFN(LN2(h))): residual splits the gradient.
  Matrix dh = dy;
  dh += ln2_.Backward(ffn_.Backward(drop2_.Backward(dy)));
  // h = x + Drop(Attn(LN1(x))).
  Matrix dx = dh;
  dx += ln1_.Backward(attn_.Backward(drop1_.Backward(dh)));
  return dx;
}

void TransformerBlock::CollectParameters(std::vector<Parameter*>* out) {
  ln1_.CollectParameters(out);
  attn_.CollectParameters(out);
  ln2_.CollectParameters(out);
  ffn_.CollectParameters(out);
}

TransformerEncoder::TransformerEncoder(std::size_t dim, std::size_t num_blocks,
                                       std::size_t num_heads,
                                       std::size_t ffn_hidden,
                                       double dropout_rate, linalg::Rng* rng,
                                       std::string name, bool causal)
    : final_ln_(dim, name + ".final_ln") {
  for (std::size_t i = 0; i < num_blocks; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        dim, num_heads, ffn_hidden, dropout_rate, rng,
        name + ".block" + std::to_string(i), causal));
  }
}

Matrix TransformerEncoder::Forward(const Matrix& x, std::size_t batch,
                                   std::size_t seq_len, bool train) {
  Matrix h = x;
  for (auto& block : blocks_) {
    h = block->Forward(h, batch, seq_len, train);
  }
  return final_ln_.Forward(h);
}

void TransformerEncoder::ForwardSegmentsInto(
    const Matrix& x, std::span<const KvSegment> segments, Matrix* y) const {
  WR_CHECK(y != nullptr);
  const std::size_t dim = final_ln_.dim();
  WR_CHECK_EQ(x.cols(), dim);
  std::size_t rows = 0;
  for (const KvSegment& seg : segments) {
    WR_CHECK(seg.kv != nullptr);
    WR_CHECK_GT(seg.rows, 0u);
    SequenceKvCache& cache = *seg.kv;
    if (cache.blocks.size() != blocks_.size()) {
      cache.blocks.assign(blocks_.size(), AttentionKvCache());
    }
    // Positions [0, start) must already be cached; whatever sits at or past
    // start is stale and is overwritten.
    WR_CHECK_LE(seg.start, cache.len());
    for (AttentionKvCache& kv : cache.blocks) {
      kv.len = seg.start;
      kv.Reserve(seg.start + seg.rows, dim);
    }
    rows += seg.rows;
  }
  WR_CHECK_EQ(rows, x.rows());

  Matrix& h = linalg::ThreadLocalWorkspace().MatRef(linalg::kWsSegHidden);
  h = x;  // copy-assignment reuses the slot's capacity
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b]->ForwardSegmentsInPlace(&h, segments, b);
  }
  // The final LayerNorm runs on each segment's last row only.
  y->Reshape(segments.size(), dim);
  std::size_t row_end = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    row_end += segments[s].rows;
    final_ln_.ForwardEvalRowInto(h.RowPtr(row_end - 1), y->RowPtr(s));
  }
}

Matrix TransformerEncoder::Backward(const Matrix& dy) {
  Matrix dh = final_ln_.Backward(dy);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    dh = (*it)->Backward(dh);
  }
  return dh;
}

void TransformerEncoder::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& block : blocks_) block->CollectParameters(out);
  final_ln_.CollectParameters(out);
}

}  // namespace nn
}  // namespace whitenrec
