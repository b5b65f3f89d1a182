#ifndef WHITENREC_NN_TRANSFORMER_H_
#define WHITENREC_NN_TRANSFORMER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"

namespace whitenrec {
namespace nn {

// Position-wise feed-forward: Linear(d, hidden) -> ReLU -> Linear(hidden, d).
class FeedForward : public Layer {
 public:
  FeedForward(std::size_t dim, std::size_t hidden_dim, linalg::Rng* rng,
              std::string name = "ffn");

  linalg::Matrix Forward(const linalg::Matrix& x);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Eval-only, cache-free forward (same fc1 -> ReLU -> fc2 arithmetic); the
  // hidden activations live in the calling thread's workspace, so it is
  // safe to call concurrently from distinct threads. Used by the segment
  // forward.
  void ForwardEvalInto(const linalg::Matrix& x, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

 private:
  Linear fc1_;
  ReLU relu_;
  Linear fc2_;
};

// Pre-LN Transformer block (SASRec sequence-encoder unit):
//   h = x + Dropout(MHSA(LN(x)))
//   y = h + Dropout(FFN(LN(h)))
class TransformerBlock : public Layer {
 public:
  TransformerBlock(std::size_t dim, std::size_t num_heads,
                   std::size_t ffn_hidden, double dropout_rate,
                   linalg::Rng* rng, std::string name = "block",
                   bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len, bool train);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Segment eval forward of block `block` in place on the stacked residual
  // stream *h (see KvSegment): h = h + Attn(LN1(h)); h = h + FFN(LN2(h)).
  // Dropout is identity in eval mode, so every row is bitwise the matching
  // row of Forward(train=false) over the whole sequence. Const; scratch from
  // the calling thread's workspace.
  void ForwardSegmentsInPlace(linalg::Matrix* h,
                              std::span<const KvSegment> segments,
                              std::size_t block) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

 private:
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  Dropout drop1_;
  LayerNorm ln2_;
  FeedForward ffn_;
  Dropout drop2_;
};

// Stack of Transformer blocks with a final LayerNorm. The caller supplies
// item + positional embeddings already summed; this class is purely the
// sequence encoder f_theta2 from the paper.
class TransformerEncoder : public Layer {
 public:
  TransformerEncoder(std::size_t dim, std::size_t num_blocks,
                     std::size_t num_heads, std::size_t ffn_hidden,
                     double dropout_rate, linalg::Rng* rng,
                     std::string name = "encoder", bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len, bool train);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Segment eval forward — the serving forward. x stacks the embedded
  // input rows of every segment (item + positional embedding), in segment
  // order. Per block, LayerNorm, the Q/K/V and output projections and the
  // FFN run as GEMMs over all stacked rows; attention runs per segment,
  // causally, against the segment's own K/V caches, which receive the new
  // rows in place (each cache is first cut back to the segment's start and
  // grown to fit). *y receives one row per segment: the final-LayerNorm'd
  // hidden state of the segment's last position — the only rows that
  // answer a request. Each is bitwise the same row of
  // Forward(train=false) over the sequence's positions [0, start + rows),
  // whatever else shares the call (tests/serving_test.cc). Const and
  // allocation-free once the caches and the calling thread's workspace
  // have grown; distinct threads may run it concurrently over disjoint
  // sequences.
  void ForwardSegmentsInto(const linalg::Matrix& x,
                           std::span<const KvSegment> segments,
                           linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
};

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_TRANSFORMER_H_
