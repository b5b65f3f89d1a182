#ifndef WHITENREC_NN_ATTENTION_H_
#define WHITENREC_NN_ATTENTION_H_

#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace whitenrec {
namespace nn {

// Per-sequence key/value cache for the incremental eval forward. Holds the
// projected K/V rows of every position seen so far; rows [0, len) of `k`/`v`
// are valid, and the matrices' row count is the capacity. Because attention
// is causal, appending positions never changes earlier K/V rows, so the
// cache stays valid until the sequence window itself shifts (max_len
// truncation) — at which point the owner replays the window from position 0.
struct AttentionKvCache {
  linalg::Matrix k;
  linalg::Matrix v;
  std::size_t len = 0;

  void Clear() { len = 0; }
  // Grows the capacity to at least `rows` positions of width `dim`
  // (geometrically, keeping rows [0, len)); a no-op once it fits, so a
  // session that is replayed again and again allocates only while its
  // window first grows.
  void Reserve(std::size_t rows, std::size_t dim);
};

// The incremental state of one sequence through a stack of attention
// blocks: one K/V cache per block (index = block). len() is the number of
// positions encoded so far.
struct SequenceKvCache {
  std::vector<AttentionKvCache> blocks;

  std::size_t len() const { return blocks.empty() ? 0 : blocks[0].len; }
  void Clear() {
    for (AttentionKvCache& kv : blocks) kv.Clear();
  }
};

// One sequence's run of rows in a stacked (segment) eval forward. Segments
// are stacked in order: a segment's rows follow the previous segment's rows
// in the [R x dim] activations. Its `rows` rows are positions
// [start, start + rows) of the sequence whose cache is `kv`; positions
// [0, start) are read from the cache, anything the cache held at or past
// `start` is overwritten. start = 0 replays the window; start = kv->len()
// with rows = 1 is the append-one-item step. The segments of one call
// belong to distinct sequences.
struct KvSegment {
  SequenceKvCache* kv = nullptr;
  std::size_t start = 0;
  std::size_t rows = 0;
};

// Multi-head self-attention over a batch of equal-length sequences.
// Input/output activations have shape (batch * seq_len, dim); sequence b
// occupies rows [b * seq_len, (b + 1) * seq_len). With `causal` (the SASRec
// default) position i attends to positions <= i; without it attention is
// bidirectional (the BERT4Rec setting). Dropout is applied by the
// surrounding Transformer block on the sublayer output, not on the attention
// probabilities.
class MultiHeadSelfAttention : public Layer {
 public:
  MultiHeadSelfAttention(std::size_t dim, std::size_t num_heads,
                         linalg::Rng* rng, std::string name = "mhsa",
                         bool causal = true);

  linalg::Matrix Forward(const linalg::Matrix& x, std::size_t batch,
                         std::size_t seq_len);
  linalg::Matrix Backward(const linalg::Matrix& dy);

  // Segment eval forward of block `block` (see KvSegment): x is the stacked
  // [R x dim] LayerNorm'd input, *y receives the [R x dim] attention output.
  // Q/K/V and the output projection run as one GEMM each over all R rows;
  // each segment's new K/V rows are written into its cache
  // (kv->blocks[block], already reserved by the caller) and each row
  // attends causally to its own sequence's positions [0, position]. No
  // element depends on which segments share the call, and the score /
  // softmax / value-mix loops are source-identical to Forward's row loops
  // (this library builds with -ffp-contract=off), so every row is bitwise
  // the matching row of Forward over the whole sequence. Const; scratch
  // comes from the calling thread's workspace, so distinct threads may run
  // it concurrently over disjoint sequences. Requires `causal`.
  void ForwardSegmentsInto(const linalg::Matrix& x,
                           std::span<const KvSegment> segments,
                           std::size_t block, linalg::Matrix* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  std::size_t num_heads() const { return num_heads_; }

 private:
  std::size_t dim_;
  std::size_t num_heads_;
  std::size_t head_dim_;
  bool causal_;
  std::size_t batch_ = 0;
  std::size_t seq_len_ = 0;

  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;

  // Forward caches: projected Q/K/V (batch*L, dim) and, per (sequence, head),
  // the (L, L) causal-masked attention probabilities.
  linalg::Matrix cached_q_;
  linalg::Matrix cached_k_;
  linalg::Matrix cached_v_;
  std::vector<linalg::Matrix> cached_probs_;

  // Per-batch scratch reused across steps (reshaped, not reallocated).
  linalg::Matrix mixed_;
  linalg::Matrix dmixed_;
  linalg::Matrix dq_;
  linalg::Matrix dk_;
  linalg::Matrix dv_;
};

}  // namespace nn
}  // namespace whitenrec

#endif  // WHITENREC_NN_ATTENTION_H_
