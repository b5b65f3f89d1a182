#ifndef WHITENREC_SEQREC_MODEL_H_
#define WHITENREC_SEQREC_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "whitening/item_encoder.h"
#include "data/batcher.h"
#include "linalg/rng.h"
#include "linalg/workspace.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"

namespace whitenrec {
namespace seqrec {

// Hyper-parameters of the SASRec backbone (paper Sec. V-A4: 2 self-attention
// blocks, 2 heads, 2 projection MLP layers; our sizes are scaled down for
// the 1-core reproduction).
struct SasRecConfig {
  std::size_t hidden_dim = 32;
  std::size_t num_blocks = 2;
  std::size_t num_heads = 2;
  std::size_t ffn_hidden = 64;
  double dropout = 0.2;
  std::size_t max_len = 12;
  std::uint64_t seed = 42;
};

// The general sequential-recommendation framework of paper Fig. 1: an item
// encoder f_theta1 (pluggable — ID, text, whitened text, ensembles), a
// Transformer sequence encoder f_theta2, and an inner-product prediction
// layer trained with full-softmax cross-entropy over the catalog.
//
// The granular Encode*/Loss*/Backward* methods are public so that baseline
// variants (CL4SRec, S3-Rec, FDSA) can compose additional objectives around
// the same backbone; TrainStep() is the plain SASRec step.
class SasRecModel {
 public:
  SasRecModel(std::unique_ptr<ItemEncoder> encoder, const SasRecConfig& config);

  std::size_t num_items() const { return encoder_->num_items(); }
  const SasRecConfig& config() const { return config_; }
  ItemEncoder* encoder() { return encoder_.get(); }
  linalg::Rng* rng() { return &rng_; }

  std::vector<nn::Parameter*> Parameters();
  std::size_t NumParameters();

  // --- Granular API ------------------------------------------------------
  // Item representations V (num_items, d).
  linalg::Matrix EncodeItems(bool train);
  // Hidden states H (batch*L, d) for a batch given V.
  linalg::Matrix EncodeSequences(const data::Batch& batch,
                                 const linalg::Matrix& v, bool train);
  // Full-softmax CE over all positions with a target; fills dH and adds the
  // logits' contribution into dV.
  double SequenceLossAndGrad(const data::Batch& batch, const linalg::Matrix& h,
                             const linalg::Matrix& v, linalg::Matrix* dh,
                             linalg::Matrix* dv);
  // Backprop dH through the sequence encoder and input embeddings; adds the
  // gather contribution into dV.
  void BackwardSequences(const data::Batch& batch, const linalg::Matrix& dh,
                         linalg::Matrix* dv);
  // Backprop dV into the item encoder parameters.
  void BackwardItems(const linalg::Matrix& dv);

  // --- Convenience -------------------------------------------------------
  // One SASRec training step; returns the batch loss. Caller steps the
  // optimizer.
  double TrainStep(const data::Batch& batch);

  // Scores (batch_size, num_items) for the last position of each sequence;
  // eval mode, no caches disturbed for training. This materializes the full
  // score matrix by contract; streaming consumers use ScoreFactors instead.
  linalg::Matrix ScoreLastPositions(const data::Batch& batch);

  // The factored form of ScoreLastPositions: *users receives the last-
  // position representations (batch_size, d) and *items the item table
  // (num_items, d), so scores = users * items^T. Lets the streaming
  // (WHITENREC_SCORING=fused) evaluation path consume score panels without
  // ever allocating the (batch_size, num_items) matrix.
  void ScoreFactors(const data::Batch& batch, linalg::Matrix* users,
                    linalg::Matrix* items);

  // Last-position user representations (batch_size, d), eval mode.
  linalg::Matrix UserRepresentations(const data::Batch& batch);

  // --- Serving forward ---------------------------------------------------
  // Per-session state of the serving forward: the transformer K/V caches of
  // every position encoded so far.
  struct SessionStepState {
    nn::SequenceKvCache cache;

    std::size_t len() const { return cache.len(); }
    void Clear() { cache.Clear(); }
  };

  // The segment forward (nn::TransformerEncoder::ForwardSegmentsInto) over
  // item ids: segment s covers the next segments[s].rows entries of `items`
  // (segments in order, items.size() = their total), which are positions
  // [start, start + rows) of its session (< config().max_len). The embedded
  // rows are item + positional embedding, exactly EmbedInputs' rows for an
  // unpadded eval sequence. *h_last receives one (hidden_dim) row per
  // segment: the final hidden state of its last position, bitwise the
  // matching row of EncodeSequences(train=false) over the session's
  // positions [0, start + rows) (tests/serving_test.cc). `v` is the item
  // table from EncodeItems(false), passed in so the serving layer can cache
  // it across requests. Const, touches no training caches, and allocates
  // nothing once the caches and the calling thread's workspace have grown;
  // disjoint sessions may be encoded concurrently from ParallelFor chunks.
  void EncodeSegments(const linalg::Matrix& v,
                      std::span<const std::size_t> items,
                      std::span<const nn::KvSegment> segments,
                      linalg::Matrix* h_last) const;

  // The one-row segment: appends `item` at position state->len() and writes
  // the (1, hidden_dim) final hidden row into *h_row. Requires
  // state->len() < config().max_len; on window overflow the caller clears
  // the state and replays the truncated window.
  void EncodeSequenceStep(const linalg::Matrix& v, std::size_t item,
                          SessionStepState* state,
                          linalg::Matrix* h_row) const;

 private:
  // Gathers item rows, adds positional embeddings, masks padding.
  linalg::Matrix EmbedInputs(const data::Batch& batch, const linalg::Matrix& v,
                             bool train);

  std::unique_ptr<ItemEncoder> encoder_;
  SasRecConfig config_;
  linalg::Rng rng_;
  nn::Embedding pos_emb_;
  nn::Dropout input_dropout_;
  nn::TransformerEncoder transformer_;

  // Cache for BackwardSequences (the batch's input mask and item indices).
  std::vector<double> cached_input_mask_;
  std::vector<std::size_t> cached_items_;

  // Scratch reused across training steps: the (batch*L, num_items) logits /
  // dlogits pair dominates per-step allocation, so those buffers (plus
  // dH/dV) live here and are reshaped rather than reallocated.
  linalg::Workspace ws_;
};

// Extracts the per-sequence rows at the last valid position from a
// (batch*L, d) activation.
linalg::Matrix GatherLastPositions(const linalg::Matrix& h,
                                   const data::Batch& batch);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_MODEL_H_
