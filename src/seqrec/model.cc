#include "seqrec/model.h"

#include "linalg/gemm.h"
#include "nn/loss.h"
#include "nn/tensor.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {
// Slots in SasRecModel::ws_ (see linalg/workspace.h).
constexpr std::size_t kWsLogits = 0;
constexpr std::size_t kWsDlogits = 1;
constexpr std::size_t kWsDh = 2;
constexpr std::size_t kWsDv = 3;
}  // namespace

SasRecModel::SasRecModel(std::unique_ptr<ItemEncoder> encoder,
                         const SasRecConfig& config)
    : encoder_(std::move(encoder)),
      config_(config),
      rng_(config.seed),
      pos_emb_(config.max_len, config.hidden_dim, &rng_, "pos"),
      input_dropout_(config.dropout, &rng_),
      transformer_(config.hidden_dim, config.num_blocks, config.num_heads,
                   config.ffn_hidden, config.dropout, &rng_) {
  WR_CHECK_EQ(encoder_->output_dim(), config.hidden_dim);
}

std::vector<nn::Parameter*> SasRecModel::Parameters() {
  std::vector<nn::Parameter*> params;
  encoder_->CollectParameters(&params);
  pos_emb_.CollectParameters(&params);
  transformer_.CollectParameters(&params);
  return params;
}

std::size_t SasRecModel::NumParameters() {
  std::size_t n = 0;
  for (nn::Parameter* p : Parameters()) n += p->NumElements();
  return n;
}

Matrix SasRecModel::EncodeItems(bool train) { return encoder_->Forward(train); }

Matrix SasRecModel::EmbedInputs(const data::Batch& batch, const Matrix& v,
                                bool train) {
  cached_input_mask_ = batch.input_mask;
  cached_items_ = batch.items;

  Matrix x = nn::GatherRows(v, batch.items);
  // Positional embeddings: position index within the sequence.
  std::vector<std::size_t> positions(batch.items.size());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    for (std::size_t t = 0; t < batch.seq_len; ++t) {
      positions[batch.Flat(b, t)] = t;
    }
  }
  x += pos_emb_.Forward(positions);
  // Zero padded positions so they contribute nothing downstream.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (batch.input_mask[r] == 0.0) {
      double* row = x.RowPtr(r);
      for (std::size_t c = 0; c < x.cols(); ++c) row[c] = 0.0;
    }
  }
  return input_dropout_.Forward(x, train);
}

Matrix SasRecModel::EncodeSequences(const data::Batch& batch, const Matrix& v,
                                    bool train) {
  const Matrix x = EmbedInputs(batch, v, train);
  return transformer_.Forward(x, batch.batch_size, batch.seq_len, train);
}

double SasRecModel::SequenceLossAndGrad(const data::Batch& batch,
                                        const Matrix& h, const Matrix& v,
                                        Matrix* dh, Matrix* dv) {
  WR_CHECK(dh != nullptr);
  WR_CHECK(dv != nullptr);
  if (linalg::CurrentScoringMode() == linalg::ScoringMode::kFused) {
    // Streaming path: the loss consumes score panels straight out of the
    // GEMM epilogue; no (batch*L, num_items) buffer exists at any point.
    return nn::StreamingSoftmaxCrossEntropy(h, v, batch.targets,
                                            batch.target_weights, dh, dv);
  }
  // Logits over the catalog at every position: (batch*L, num_items). The
  // logits/dlogits pair is the step's largest allocation, so both live in
  // the model workspace and keep their capacity across steps.
  Matrix& logits = ws_.MatRef(kWsLogits);
  linalg::MatMulTransBInto(h, v, &logits);
  Matrix& dlogits = ws_.MatRef(kWsDlogits);
  const double loss = nn::SoftmaxCrossEntropy(logits, batch.targets,
                                              batch.target_weights, &dlogits);
  linalg::MatMulInto(dlogits, v, dh);
  if (dv->rows() == 0) dv->Resize(v.rows(), v.cols());
  linalg::MatMulTransAAcc(dlogits, h, dv);
  return loss;
}

void SasRecModel::BackwardSequences(const data::Batch& /*batch*/,
                                    const Matrix& dh, Matrix* dv) {
  // The forward pass cached the batch's mask and item ids; the parameter is
  // kept so call sites read naturally as the mirror of EncodeSequences.
  Matrix dx = transformer_.Backward(dh);
  dx = input_dropout_.Backward(dx);
  // The padding mask was applied after embedding: zero those grads.
  for (std::size_t r = 0; r < dx.rows(); ++r) {
    if (cached_input_mask_[r] == 0.0) {
      double* row = dx.RowPtr(r);
      for (std::size_t c = 0; c < dx.cols(); ++c) row[c] = 0.0;
    }
  }
  pos_emb_.Backward(dx);
  if (dv->rows() == 0) {
    dv->Resize(encoder_->num_items(), config_.hidden_dim);
  }
  nn::ScatterAddRows(dx, cached_items_, dv);
}

void SasRecModel::BackwardItems(const Matrix& dv) { encoder_->Backward(dv); }

double SasRecModel::TrainStep(const data::Batch& batch) {
  const Matrix v = EncodeItems(/*train=*/true);
  const Matrix h = EncodeSequences(batch, v, /*train=*/true);
  Matrix& dh = ws_.MatRef(kWsDh);
  Matrix& dv = ws_.MatRef(kWsDv);
  dv.Resize(0, 0);  // empty signals "zero-fill at the right shape" below
  const double loss = SequenceLossAndGrad(batch, h, v, &dh, &dv);
  BackwardSequences(batch, dh, &dv);
  BackwardItems(dv);
  return loss;
}

Matrix GatherLastPositions(const Matrix& h, const data::Batch& batch) {
  Matrix out(batch.batch_size, h.cols());
  for (std::size_t b = 0; b < batch.batch_size; ++b) {
    const std::size_t flat = batch.Flat(b, batch.last_position[b]);
    out.SetRow(b, h.Row(flat));
  }
  return out;
}

Matrix SasRecModel::ScoreLastPositions(const data::Batch& batch) {
  const Matrix v = EncodeItems(/*train=*/false);
  const Matrix h = EncodeSequences(batch, v, /*train=*/false);
  const Matrix s = GatherLastPositions(h, batch);
  return linalg::MatMulTransB(s, v);
}

void SasRecModel::ScoreFactors(const data::Batch& batch, Matrix* users,
                               Matrix* items) {
  WR_CHECK(users != nullptr);
  WR_CHECK(items != nullptr);
  *items = EncodeItems(/*train=*/false);
  const Matrix h = EncodeSequences(batch, *items, /*train=*/false);
  *users = GatherLastPositions(h, batch);
}

void SasRecModel::EncodeSegments(const Matrix& v,
                                 std::span<const std::size_t> items,
                                 std::span<const nn::KvSegment> segments,
                                 Matrix* h_last) const {
  WR_CHECK(h_last != nullptr);
  const std::size_t d = config_.hidden_dim;
  WR_CHECK_EQ(v.cols(), d);
  // Embedded input rows: item embedding + positional embedding, exactly
  // EmbedInputs' gather + add for an unpadded position in eval mode
  // (dropout identity, mask all-valid).
  const Matrix& pos = pos_emb_.table().value;
  Matrix& x = linalg::ThreadLocalWorkspace().MatRef(linalg::kWsSegInput);
  x.Reshape(items.size(), d);
  std::size_t r = 0;
  for (const nn::KvSegment& seg : segments) {
    WR_CHECK_LE(seg.start + seg.rows, config_.max_len);
    WR_CHECK_LE(r + seg.rows, items.size());
    for (std::size_t i = 0; i < seg.rows; ++i, ++r) {
      WR_CHECK_LT(items[r], v.rows());
      const double* item_row = v.RowPtr(items[r]);
      const double* pos_row = pos.RowPtr(seg.start + i);
      double* x_row = x.RowPtr(r);
      for (std::size_t c = 0; c < d; ++c) x_row[c] = item_row[c] + pos_row[c];
    }
  }
  WR_CHECK_EQ(r, items.size());
  transformer_.ForwardSegmentsInto(x, segments, h_last);
}

void SasRecModel::EncodeSequenceStep(const Matrix& v, std::size_t item,
                                     SessionStepState* state,
                                     Matrix* h_row) const {
  WR_CHECK(state != nullptr);
  const nn::KvSegment segment{&state->cache, state->len(), 1};
  EncodeSegments(v, std::span<const std::size_t>(&item, 1),
                 std::span<const nn::KvSegment>(&segment, 1), h_row);
}

Matrix SasRecModel::UserRepresentations(const data::Batch& batch) {
  const Matrix v = EncodeItems(/*train=*/false);
  const Matrix h = EncodeSequences(batch, v, /*train=*/false);
  return GatherLastPositions(h, batch);
}

}  // namespace seqrec
}  // namespace whitenrec
