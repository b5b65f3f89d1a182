// Online serving core contracts (ISSUE 6):
//  * the incremental session-cache forward (EncodeSequenceStep) is BITWISE
//    identical to the full batched eval forward at every prefix length up
//    to max_len truncation, across evictions and thread counts;
//  * micro-batched responses are bitwise identical to serving each request
//    alone, for every batch-window size, thread count, and cache capacity
//    (eviction is a cost event, never a correctness event);
//  * the synthetic traffic generator replays identical traces from a seed;
//  * the latency histogram reports exact quantiles on hand-computed
//    distributions in its unit-bucket region and merges associatively;
//  * the WHITENREC_SERVE_* env knobs parse strictly;
//  * the ingest path grows the catalog through an online whitening refit
//    without breaking serving.
// The *Soak* test doubles as the randomized-traffic TSan workload run by
// `make check-serve` (WHITENREC_SERVE_SOAK scales it up).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/knobs.h"
#include "core/parallel.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "eval/conditioning.h"
#include "eval/metrics.h"
#include "linalg/rng.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/degrade.h"
#include "serve/degrade_harness.h"
#include "serve/harness.h"
#include "serve/latency_histogram.h"
#include "serve/service.h"
#include "serve/traffic.h"

namespace whitenrec {
namespace serve {
namespace {

using linalg::Matrix;
using linalg::ScoredItem;

const std::vector<std::size_t> kThreadCounts = {1, 4};

// Tiny dataset + untrained (random-init) WhitenRec model: the serving
// contracts are about bitwise reproducibility of the forward pass, which is
// independent of training.
struct ServingFixture {
  ServingFixture()
      : data(data::GenerateDataset(data::ToysProfile(0.05))),
        rec(seqrec::MakeWhitenRec(data.dataset, ModelConfig(), WConfig())) {}

  static seqrec::SasRecConfig ModelConfig() {
    seqrec::SasRecConfig config;
    config.hidden_dim = 16;
    config.num_blocks = 2;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.max_len = 8;
    return config;
  }
  static WhitenRecConfig WConfig() {
    WhitenRecConfig config;
    config.out_dim = 16;
    return config;
  }

  seqrec::SasRecModel* model() { return rec->model(); }

  data::GeneratedData data;
  std::unique_ptr<seqrec::SasRecRecommender> rec;
};

ServingFixture& Fixture() {
  static ServingFixture* fixture = new ServingFixture();
  return *fixture;
}

// Ingest refits mutate the model's catalog in place, so tests that exercise
// it build a private model instead of touching the shared fixture.
std::unique_ptr<seqrec::SasRecRecommender> FreshModel() {
  return seqrec::MakeWhitenRec(Fixture().data.dataset,
                               ServingFixture::ModelConfig(),
                               ServingFixture::WConfig());
}

bool BitwiseEqualRows(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool SameResponses(const std::vector<ServeResponse>& a,
                   const std::vector<ServeResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].topk.size() != b[i].topk.size()) return false;
    if (a[i].session_len != b[i].session_len) return false;
    for (std::size_t k = 0; k < a[i].topk.size(); ++k) {
      if (a[i].topk[k].item != b[i].topk[k].item) return false;
      if (!BitwiseEqualRows(&a[i].topk[k].score, &b[i].topk[k].score, 1)) {
        return false;
      }
    }
  }
  return true;
}

// An unpadded single-sequence eval batch over `items`.
data::Batch MakeBatch(const std::vector<std::size_t>& items) {
  data::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = items.size();
  batch.items = items;
  batch.input_mask.assign(items.size(), 1.0);
  batch.targets.assign(items.size(), 0);
  batch.target_weights.assign(items.size(), 0.0);
  batch.last_position = {items.size() - 1};
  batch.users = {0};
  return batch;
}

// ---------------------------------------------------------------------------
// Satellite 1: incremental forward parity.
// ---------------------------------------------------------------------------

TEST(IncrementalForward, BitwiseMatchesBatchedForwardAtEveryPrefix) {
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t max_len = model->config().max_len;
  const std::size_t hidden = model->config().hidden_dim;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(7);

  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (std::size_t len = 1; len <= max_len; ++len) {
      std::vector<std::size_t> items(len);
      for (std::size_t t = 0; t < len; ++t) {
        items[t] = rng.UniformInt(v.rows());
      }
      const Matrix h_full =
          model->EncodeSequences(MakeBatch(items), v, /*train=*/false);

      seqrec::SasRecModel::SessionStepState state;
      Matrix h_row;
      for (std::size_t t = 0; t < len; ++t) {
        model->EncodeSequenceStep(v, items[t], &state, &h_row);
        ASSERT_TRUE(BitwiseEqualRows(h_row.RowPtr(0), h_full.RowPtr(t),
                                     hidden))
            << "threads=" << threads << " len=" << len << " position=" << t;
      }
    }
  }
  core::SetNumThreads(0);
}

TEST(IncrementalForward, ReplayAfterClearMatchesUninterruptedSession) {
  // Eviction = losing the KV cache mid-session. Replaying the window into a
  // fresh cache must land bitwise on the uninterrupted session's state.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t hidden = model->config().hidden_dim;
  const std::size_t max_len = model->config().max_len;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(11);
  std::vector<std::size_t> items(max_len);
  for (std::size_t t = 0; t < max_len; ++t) {
    items[t] = rng.UniformInt(v.rows());
  }

  for (std::size_t cut = 1; cut < max_len; ++cut) {
    seqrec::SasRecModel::SessionStepState uninterrupted;
    seqrec::SasRecModel::SessionStepState evicted;
    Matrix h_a;
    Matrix h_b;
    for (std::size_t t = 0; t < max_len; ++t) {
      model->EncodeSequenceStep(v, items[t], &uninterrupted, &h_a);
      if (t == cut) {
        // Simulate the eviction: drop state, replay the prefix.
        evicted.Clear();
        for (std::size_t r = 0; r < t; ++r) {
          model->EncodeSequenceStep(v, items[r], &evicted, &h_b);
        }
      }
      model->EncodeSequenceStep(v, items[t], &evicted, &h_b);
      ASSERT_TRUE(BitwiseEqualRows(h_a.RowPtr(0), h_b.RowPtr(0), hidden))
          << "cut=" << cut << " t=" << t;
    }
  }
}

TEST(IncrementalForward, TruncationShiftMatchesBatchedWindow) {
  // Streams longer than max_len: the service drops the oldest item and
  // replays. The replayed hidden state must equal the batched forward over
  // exactly the truncated window.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t hidden = model->config().hidden_dim;
  const std::size_t max_len = model->config().max_len;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(13);
  std::vector<std::size_t> stream(3 * max_len);
  for (std::size_t t = 0; t < stream.size(); ++t) {
    stream[t] = rng.UniformInt(v.rows());
  }

  std::vector<std::size_t> window;
  seqrec::SasRecModel::SessionStepState state;
  Matrix h_step;
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (window.size() == max_len) {
      window.erase(window.begin());
      state.Clear();
    }
    window.push_back(stream[t]);
    if (state.len() + 1 != window.size()) {
      state.Clear();
      for (std::size_t r = 0; r + 1 < window.size(); ++r) {
        model->EncodeSequenceStep(v, window[r], &state, &h_step);
      }
    }
    model->EncodeSequenceStep(v, stream[t], &state, &h_step);

    const Matrix h_full =
        model->EncodeSequences(MakeBatch(window), v, /*train=*/false);
    ASSERT_TRUE(BitwiseEqualRows(h_step.RowPtr(0),
                                 h_full.RowPtr(window.size() - 1), hidden))
        << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Stacked segment forward parity: many sessions' replays and one-row steps
// stacked into one forward give each session bitwise its own step loop's
// row, at every thread count and however the sessions are cut into groups.
// ---------------------------------------------------------------------------

// One session of a stacked call: its items at positions [start, start +
// rows) and its step state.
struct StackedSession {
  std::vector<std::size_t> window;
  seqrec::SasRecModel::SessionStepState state;
};

// Group cuts exercised per call: everything in one group, two and three
// near-equal groups, and one group per segment.
std::vector<std::vector<std::size_t>> GroupCuts(std::size_t num_segments) {
  std::vector<std::vector<std::size_t>> cuts;
  for (std::size_t parts : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            num_segments}) {
    std::vector<std::size_t> bounds;
    for (std::size_t g = 0; g <= parts; ++g) {
      bounds.push_back(g * num_segments / parts);
    }
    cuts.push_back(std::move(bounds));
  }
  return cuts;
}

// Encodes segments[s] = positions [starts[s], window.size()) of
// sessions[s], cut into groups by `bounds` (one ParallelFor chunk per
// group, each one EncodeSegments call), and returns the answer rows in
// segment order.
Matrix StackedForward(const seqrec::SasRecModel& model, const Matrix& v,
                      std::vector<StackedSession>* sessions,
                      const std::vector<std::size_t>& starts,
                      const std::vector<std::size_t>& bounds) {
  const std::size_t hidden = model.config().hidden_dim;
  std::vector<nn::KvSegment> segments;
  std::vector<std::size_t> items;
  std::vector<std::size_t> item_at;
  for (std::size_t s = 0; s < sessions->size(); ++s) {
    StackedSession& session = (*sessions)[s];
    item_at.push_back(items.size());
    segments.push_back(nn::KvSegment{&session.state.cache, starts[s],
                                     session.window.size() - starts[s]});
    items.insert(items.end(),
                 session.window.begin() +
                     static_cast<std::ptrdiff_t>(starts[s]),
                 session.window.end());
  }
  item_at.push_back(items.size());
  Matrix out(sessions->size(), hidden);
  core::ParallelFor(0, bounds.size() - 1, 1, [&](std::size_t g0,
                                                std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t s0 = bounds[g];
      const std::size_t s1 = bounds[g + 1];
      if (s0 == s1) continue;
      Matrix answers;
      model.EncodeSegments(
          v,
          std::span<const std::size_t>(items).subspan(
              item_at[s0], item_at[s1] - item_at[s0]),
          std::span<const nn::KvSegment>(segments).subspan(s0, s1 - s0),
          &answers);
      for (std::size_t s = s0; s < s1; ++s) {
        std::copy(answers.RowPtr(s - s0), answers.RowPtr(s - s0) + hidden,
                  out.RowPtr(s));
      }
    }
  });
  return out;
}

// The oracle: the window replayed one EncodeSequenceStep at a time into a
// fresh state.
std::vector<double> StepLoopLastRow(const seqrec::SasRecModel& model,
                                    const Matrix& v,
                                    const std::vector<std::size_t>& window) {
  seqrec::SasRecModel::SessionStepState state;
  Matrix h_row;
  for (std::size_t item : window) {
    model.EncodeSequenceStep(v, item, &state, &h_row);
  }
  return h_row.Row(0);
}

std::vector<std::size_t> RandomWindow(std::size_t len, std::size_t num_items,
                                      linalg::Rng* rng) {
  std::vector<std::size_t> window(len);
  for (std::size_t& item : window) item = rng->UniformInt(num_items);
  return window;
}

TEST(StackedForward, FreshAndReplayedSessionsMatchStepLoopBitwise) {
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t hidden = model->config().hidden_dim;
  const std::size_t max_len = model->config().max_len;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(17);
  const std::vector<std::size_t> lens = {1, 2, max_len, 3, 5, 1, max_len - 1};
  std::vector<std::vector<std::size_t>> windows;
  for (std::size_t len : lens) {
    windows.push_back(RandomWindow(len, v.rows(), &rng));
  }

  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (const std::vector<std::size_t>& bounds : GroupCuts(lens.size())) {
      std::vector<StackedSession> sessions(lens.size());
      for (std::size_t s = 0; s < lens.size(); ++s) {
        sessions[s].window = windows[s];
      }
      const std::vector<std::size_t> starts(lens.size(), 0);
      // Fresh sessions, then a replay into cleared states, then a replay
      // over states that still hold the previous pass (start 0 overwrites
      // them in place).
      for (int pass = 0; pass < 3; ++pass) {
        if (pass == 1) {
          for (StackedSession& session : sessions) session.state.Clear();
        }
        const Matrix got = StackedForward(*model, v, &sessions, starts, bounds);
        for (std::size_t s = 0; s < lens.size(); ++s) {
          const std::vector<double> want =
              StepLoopLastRow(*model, v, windows[s]);
          ASSERT_TRUE(BitwiseEqualRows(got.RowPtr(s), want.data(), hidden))
              << "threads=" << threads << " groups=" << bounds.size() - 1
              << " pass=" << pass << " session=" << s;
          const Matrix h_full = model->EncodeSequences(
              MakeBatch(windows[s]), v, /*train=*/false);
          ASSERT_TRUE(BitwiseEqualRows(
              got.RowPtr(s), h_full.RowPtr(windows[s].size() - 1), hidden))
              << "threads=" << threads << " session=" << s;
          ASSERT_EQ(sessions[s].state.len(), windows[s].size());
        }
      }
    }
  }
  core::SetNumThreads(0);
}

TEST(StackedForward, ShiftAtMaxLenReplaysTruncatedWindow) {
  // Every session streams past max_len; each step past it shifts the window
  // and replays it as one max_len-row segment, stacked beside the others.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t hidden = model->config().hidden_dim;
  const std::size_t max_len = model->config().max_len;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(19);
  constexpr std::size_t kSessions = 5;
  std::vector<std::vector<std::size_t>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(RandomWindow(max_len + 3, v.rows(), &rng));
  }
  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (const std::vector<std::size_t>& bounds : GroupCuts(kSessions)) {
      std::vector<StackedSession> sessions(kSessions);
      for (std::size_t s = 0; s < kSessions; ++s) {
        sessions[s].window.assign(
            streams[s].begin(),
            streams[s].begin() + static_cast<std::ptrdiff_t>(max_len));
      }
      const std::vector<std::size_t> starts(kSessions, 0);
      StackedForward(*model, v, &sessions, starts, bounds);
      for (std::size_t t = max_len; t < max_len + 3; ++t) {
        for (StackedSession& session : sessions) {
          ASSERT_EQ(session.window.size(), max_len);
          session.window.erase(session.window.begin());
        }
        for (std::size_t s = 0; s < kSessions; ++s) {
          sessions[s].window.push_back(streams[s][t]);
        }
        const Matrix got = StackedForward(*model, v, &sessions, starts, bounds);
        for (std::size_t s = 0; s < kSessions; ++s) {
          const std::vector<double> want =
              StepLoopLastRow(*model, v, sessions[s].window);
          ASSERT_TRUE(BitwiseEqualRows(got.RowPtr(s), want.data(), hidden))
              << "threads=" << threads << " groups=" << bounds.size() - 1
              << " t=" << t << " session=" << s;
        }
      }
    }
  }
  core::SetNumThreads(0);
}

TEST(StackedForward, OneRowStepsBesideReplaysMatchStepLoop) {
  // Sessions 0, 2, 4 extend their cached state by one row per call while
  // sessions 1 and 3 replay their whole window in the same stacked call.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t hidden = model->config().hidden_dim;
  const std::size_t max_len = model->config().max_len;
  const Matrix v = model->EncodeItems(/*train=*/false);
  linalg::Rng rng(23);
  constexpr std::size_t kSessions = 5;
  std::vector<std::vector<std::size_t>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(RandomWindow(max_len, v.rows(), &rng));
  }
  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (const std::vector<std::size_t>& bounds : GroupCuts(kSessions)) {
      std::vector<StackedSession> sessions(kSessions);
      std::vector<seqrec::SasRecModel::SessionStepState> oracle(kSessions);
      Matrix h_row;
      for (std::size_t t = 0; t < max_len; ++t) {
        std::vector<std::size_t> starts(kSessions, 0);
        for (std::size_t s = 0; s < kSessions; ++s) {
          sessions[s].window.push_back(streams[s][t]);
          if (s % 2 == 0) starts[s] = t;
        }
        const Matrix got = StackedForward(*model, v, &sessions, starts, bounds);
        for (std::size_t s = 0; s < kSessions; ++s) {
          model->EncodeSequenceStep(v, streams[s][t], &oracle[s], &h_row);
          ASSERT_TRUE(BitwiseEqualRows(got.RowPtr(s), h_row.RowPtr(0), hidden))
              << "threads=" << threads << " groups=" << bounds.size() - 1
              << " t=" << t << " session=" << s;
          ASSERT_EQ(sessions[s].state.len(), t + 1);
        }
      }
    }
  }
  core::SetNumThreads(0);
}

TEST(StackedForward, SeveralRequestsOfOneSessionInOneBatch) {
  // Sessions appearing 2-3 times in one batch (one of them across its
  // max_len shift) run in later rounds of the stacked forward; each
  // response must be bitwise the one-request-at-a-time response.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t max_len = model->config().max_len;
  linalg::Rng rng(29);
  const std::size_t num_items = model->num_items();
  std::vector<ServeRequest> warmup;
  // Session 7 is two items short of max_len, so its third request in the
  // batch shifts its window; session 9 starts cold.
  for (std::size_t t = 0; t + 2 < max_len; ++t) {
    warmup.push_back(ServeRequest{7, rng.UniformInt(num_items)});
  }
  warmup.push_back(ServeRequest{8, rng.UniformInt(num_items)});
  std::vector<ServeRequest> batch;
  for (std::uint64_t session : {7u, 8u, 9u, 7u, 10u, 9u, 7u, 8u, 11u, 9u}) {
    batch.push_back(ServeRequest{session, rng.UniformInt(num_items)});
  }
  ServeConfig config;
  config.top_k = 10;

  core::SetNumThreads(1);
  std::vector<ServeResponse> reference;
  {
    RecommendService single(model, config);
    single.HandleBatch(warmup);
    for (const ServeRequest& request : batch) {
      reference.push_back(single.Handle(request));
    }
  }
  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    RecommendService batched(model, config);
    batched.HandleBatch(warmup);
    const std::vector<ServeResponse> got = batched.HandleBatch(batch);
    ASSERT_TRUE(SameResponses(reference, got)) << "threads=" << threads;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(got[i].incremental, reference[i].incremental) << i;
    }
    // Session 7 stepped one row at its first two requests in the batch and
    // replayed its shifted window at the third; cold session 9 replayed,
    // then stepped.
    EXPECT_TRUE(got[0].incremental);
    EXPECT_TRUE(got[3].incremental);
    EXPECT_FALSE(got[6].incremental);
    EXPECT_EQ(got[6].session_len, max_len);
    EXPECT_FALSE(got[2].incremental);
    EXPECT_TRUE(got[5].incremental);
    EXPECT_TRUE(got[9].incremental);
  }
  core::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Satellite 2: micro-batch determinism.
// ---------------------------------------------------------------------------

// Cuts a trace into micro-batches exactly like the harness batcher: same
// virtual window index, capped at max_batch.
std::vector<std::vector<ServeRequest>> CutBatches(
    const std::vector<TraceRequest>& trace, std::uint64_t window_ns,
    std::size_t max_batch) {
  std::vector<std::vector<ServeRequest>> batches;
  for (std::size_t i = 0; i < trace.size();) {
    std::vector<ServeRequest> batch;
    if (window_ns == 0) {
      batch.push_back(ServeRequest{trace[i].session_id, trace[i].item});
      ++i;
    } else {
      const std::uint64_t window = trace[i].arrival_ns / window_ns;
      while (i < trace.size() && trace[i].arrival_ns / window_ns == window &&
             batch.size() < max_batch) {
        batch.push_back(ServeRequest{trace[i].session_id, trace[i].item});
        ++i;
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<ServeResponse> ServeTrace(seqrec::SasRecModel* model,
                                      const std::vector<TraceRequest>& trace,
                                      const ServeConfig& config,
                                      std::uint64_t window_ns,
                                      ServeStats* stats = nullptr) {
  RecommendService service(model, config);
  std::vector<ServeResponse> responses;
  responses.reserve(trace.size());
  for (const std::vector<ServeRequest>& batch :
       CutBatches(trace, window_ns, config.max_batch)) {
    std::vector<ServeResponse> out = service.HandleBatch(batch);
    for (ServeResponse& r : out) responses.push_back(std::move(r));
  }
  if (stats != nullptr) *stats = service.stats();
  return responses;
}

TEST(MicroBatching, CoalescedBitwiseEqualsSingleAtEveryWindowAndThreadCount) {
  seqrec::SasRecModel* model = Fixture().model();
  TrafficConfig traffic;
  traffic.num_sessions = 24;
  traffic.num_requests = 400;
  traffic.seed = 99;
  const std::vector<TraceRequest> trace =
      GenerateTrace(Fixture().data.dataset.sequences, traffic);

  ServeConfig config;
  config.top_k = 10;

  // Reference: every request served alone, single thread.
  core::SetNumThreads(1);
  const std::vector<ServeResponse> reference =
      ServeTrace(model, trace, config, /*window_ns=*/0);
  ASSERT_EQ(reference.size(), trace.size());
  for (const ServeResponse& r : reference) {
    ASSERT_EQ(r.topk.size(), config.top_k);
  }

  const std::vector<std::uint64_t> windows = {0, 1, 50000, 1000000,
                                              1000000000000ull};
  for (std::size_t threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (std::uint64_t window_ns : windows) {
      const std::vector<ServeResponse> got =
          ServeTrace(model, trace, config, window_ns);
      ASSERT_TRUE(SameResponses(reference, got))
          << "window_ns=" << window_ns << " threads=" << threads;
    }
  }
  core::SetNumThreads(0);
}

TEST(MicroBatching, EvictionIsCostNotCorrectness) {
  seqrec::SasRecModel* model = Fixture().model();
  TrafficConfig traffic;
  traffic.num_sessions = 16;
  traffic.num_requests = 300;
  traffic.seed = 5;
  const std::vector<TraceRequest> trace =
      GenerateTrace(Fixture().data.dataset.sequences, traffic);

  ServeConfig roomy;
  roomy.top_k = 8;
  roomy.max_cached_sessions = 1 << 20;
  ServeStats roomy_stats;
  const std::vector<ServeResponse> reference =
      ServeTrace(model, trace, roomy, /*window_ns=*/200000, &roomy_stats);
  EXPECT_EQ(roomy_stats.evictions, 0u);

  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    ServeConfig tight = roomy;
    tight.max_cached_sessions = cap;
    ServeStats tight_stats;
    const std::vector<ServeResponse> got =
        ServeTrace(model, trace, tight, /*window_ns=*/200000, &tight_stats);
    ASSERT_TRUE(SameResponses(reference, got)) << "cap=" << cap;
    EXPECT_GT(tight_stats.evictions, 0u) << "cap=" << cap;
    EXPECT_GT(tight_stats.recomputes, roomy_stats.recomputes) << "cap=" << cap;
  }
}

TEST(MicroBatching, StatefulSessionCountStaysExactAcrossWindowShifts) {
  // Regression: a max_len window shift cleared has_state without
  // decrementing the stateful-session count, so the count drifted past
  // max_cached_sessions and every batch evicted sessions it did not need to.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t max_len = model->config().max_len;
  const std::size_t num_items = Fixture().data.dataset.num_items;
  constexpr std::uint64_t kSessions = 6;
  ServeConfig roomy;
  roomy.max_cached_sessions = kSessions + 2;
  ServeConfig tight = roomy;
  tight.max_cached_sessions = 1;
  RecommendService service(model, roomy);
  RecommendService reference(model, tight);
  // Round-robin single-request batches, so a tight cap has sessions to
  // evict; every session runs six windows past max_len.
  for (std::uint64_t step = 0; step < 6 * max_len * kSessions; ++step) {
    const std::vector<ServeRequest> batch = {
        ServeRequest{step % kSessions, (step * 7) % num_items}};
    // Cache capacity is cost, never correctness.
    ASSERT_TRUE(SameResponses(service.HandleBatch(batch),
                              reference.HandleBatch(batch)))
        << "step " << step;
    ASSERT_EQ(service.cached_sessions(), std::min(step + 1, kSessions))
        << "step " << step;
  }
  EXPECT_EQ(service.stats().evictions, 0u);
  EXPECT_GT(reference.stats().evictions, 0u);
}

TEST(MicroBatching, ExcludesSessionHistoryFromRecommendations) {
  seqrec::SasRecModel* model = Fixture().model();
  ServeConfig config;
  config.top_k = 5;
  RecommendService service(model, config);
  const std::uint64_t session = 42;
  std::vector<std::size_t> consumed;
  linalg::Rng rng(3);
  for (std::size_t t = 0; t < model->config().max_len; ++t) {
    const std::size_t item = rng.UniformInt(service.num_items());
    consumed.push_back(item);
    const ServeResponse response =
        service.Handle(ServeRequest{session, item});
    ASSERT_EQ(response.session_len, consumed.size());
    for (const ScoredItem& hit : response.topk) {
      for (std::size_t seen : consumed) {
        EXPECT_NE(hit.item, seen) << "recommended an already-consumed item";
      }
    }
  }
}

TEST(Traffic, SameSeedReplaysIdenticalTrace) {
  TrafficConfig config;
  config.num_sessions = 32;
  config.num_requests = 500;
  config.seed = 1234;
  const auto& sequences = Fixture().data.dataset.sequences;
  const std::vector<TraceRequest> a = GenerateTrace(sequences, config);
  const std::vector<TraceRequest> b = GenerateTrace(sequences, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival_ns, b[i].arrival_ns);
    ASSERT_EQ(a[i].session_id, b[i].session_id);
    ASSERT_EQ(a[i].item, b[i].item);
  }

  config.seed = 4321;
  const std::vector<TraceRequest> c = GenerateTrace(sequences, config);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].arrival_ns != c[i].arrival_ns ||
              a[i].session_id != c[i].session_id || a[i].item != c[i].item;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same trace";
}

TEST(Traffic, ArrivalsStrictlyIncreaseAndZipfSkews) {
  TrafficConfig config;
  config.num_sessions = 50;
  config.num_requests = 2000;
  config.zipf_exponent = 1.2;
  const auto& sequences = Fixture().data.dataset.sequences;
  const std::vector<TraceRequest> trace = GenerateTrace(sequences, config);
  std::vector<std::size_t> hits(config.num_sessions, 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      ASSERT_GT(trace[i].arrival_ns, trace[i - 1].arrival_ns);
    }
    ASSERT_LT(trace[i].session_id, config.num_sessions);
    ++hits[trace[i].session_id];
  }
  // Session 0 must dominate the tail under a Zipf law.
  EXPECT_GT(hits[0], hits[config.num_sessions - 1] * 2);
}

// ---------------------------------------------------------------------------
// Satellite 3: latency histogram.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, ExactQuantilesOnHandComputedDistribution) {
  LatencyHistogram hist;
  for (std::uint64_t v = 1; v <= 100; ++v) hist.Record(v);
  // rank = ceil(q * 100): p50 -> 50th smallest, p99 -> 99th, p999 -> 100th.
  EXPECT_EQ(hist.Quantile(0.50), 50u);
  EXPECT_EQ(hist.Quantile(0.99), 99u);
  EXPECT_EQ(hist.Quantile(0.999), 100u);
  EXPECT_EQ(hist.Quantile(0.0), 1u);
  EXPECT_EQ(hist.Quantile(1.0), 100u);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 100u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 50.5);

  // Skewed distribution: 90 fast, 9 medium, 1 slow.
  LatencyHistogram skew;
  for (int i = 0; i < 90; ++i) skew.Record(10);
  for (int i = 0; i < 9; ++i) skew.Record(100);
  skew.Record(200);
  EXPECT_EQ(skew.Quantile(0.50), 10u);
  EXPECT_EQ(skew.Quantile(0.90), 10u);
  EXPECT_EQ(skew.Quantile(0.99), 100u);
  EXPECT_EQ(skew.Quantile(0.999), 200u);
}

TEST(LatencyHistogram, EmptyAndSingleValue) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Quantile(0.5), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);

  LatencyHistogram one;
  one.Record(77);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(one.Quantile(q), 77u) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  linalg::Rng rng(2024);
  auto fill = [&rng](LatencyHistogram* h, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      // Mix unit-bucket and log-bucket regions up to ~17 minutes in ns.
      const std::uint64_t v = rng.NextU64() % 1000000000000ull;
      h->Record(v);
    }
  };
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram c;
  fill(&a, 500);
  fill(&b, 300);
  fill(&c, 700);

  LatencyHistogram ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  LatencyHistogram bc = b;  // a + (b + c)
  bc.Merge(c);
  LatencyHistogram a_bc = a;
  a_bc.Merge(bc);
  LatencyHistogram cba = c;  // commuted order
  cba.Merge(b);
  cba.Merge(a);

  for (const LatencyHistogram* other : {&a_bc, &cba}) {
    EXPECT_EQ(ab_c.count(), other->count());
    EXPECT_EQ(ab_c.sum(), other->sum());
    EXPECT_EQ(ab_c.min(), other->min());
    EXPECT_EQ(ab_c.max(), other->max());
    ASSERT_EQ(ab_c.buckets(), other->buckets());
  }
  // Identical bucket contents imply identical quantiles.
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(ab_c.Quantile(q), a_bc.Quantile(q));
  }
}

TEST(LatencyHistogram, BucketBoundsRoundTripWithBoundedRelativeError) {
  linalg::Rng rng(55);
  std::vector<std::uint64_t> probes = {0,       1,   255, 256, 257,
                                       511,     512, 1023, 1024, 65535,
                                       1u << 30};
  for (std::size_t i = 0; i < 200; ++i) {
    probes.push_back(rng.NextU64() % 1000000000000ull);
  }
  for (std::uint64_t v : probes) {
    const std::size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(index, LatencyHistogram::NumBuckets());
    const std::uint64_t lower = LatencyHistogram::BucketLowerBound(index);
    ASSERT_LE(lower, v) << "v=" << v;
    if (v < LatencyHistogram::kExactMax) {
      ASSERT_EQ(lower, v);
    } else {
      // Bucket width <= lower / kLogSubBuckets in the log region.
      ASSERT_LE(v - lower, lower / LatencyHistogram::kLogSubBuckets)
          << "v=" << v;
    }
    if (index + 1 < LatencyHistogram::NumBuckets()) {
      ASSERT_GT(LatencyHistogram::BucketLowerBound(index + 1), v) << "v=" << v;
    }
  }
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  linalg::Rng rng(77);
  LatencyHistogram hist;
  for (std::size_t i = 0; i < 5000; ++i) {
    hist.Record(rng.NextU64() % 100000000ull);
  }
  std::uint64_t prev = 0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t value = hist.Quantile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
}

// ---------------------------------------------------------------------------
// Satellite 4 support: env knob parsing.
// ---------------------------------------------------------------------------

TEST(ServeConfig, FromEnvOverlaysKnobs) {
  ASSERT_EQ(setenv("WHITENREC_SERVE_TOPK", "25", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_WINDOW_NS", "777", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_MAX_BATCH", "33", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_CACHE_SESSIONS", "99", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_REFIT_EVERY", "5", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_DEADLINE_NS", "123456", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_SERVE_QUEUE_MAX", "77", 1), 0);
  ASSERT_EQ(setenv("WHITENREC_DEGRADE_LADDER", "exact,ivf:3,popularity", 1), 0);
  const ServeConfig config = ServeConfig::FromEnv();
  EXPECT_EQ(config.top_k, 25u);
  EXPECT_EQ(config.batch_window_ns, 777u);
  EXPECT_EQ(config.max_batch, 33u);
  EXPECT_EQ(config.max_cached_sessions, 99u);
  EXPECT_EQ(config.refit_every, 5u);
  EXPECT_EQ(config.deadline_ns, 123456u);
  EXPECT_EQ(config.queue_max, 77u);
  ASSERT_EQ(config.ladder.rungs.size(), 3u);
  EXPECT_EQ(config.ladder.rungs[0].kind, RungKind::kExact);
  EXPECT_EQ(config.ladder.rungs[1].kind, RungKind::kIvf);
  EXPECT_EQ(config.ladder.rungs[1].nprobe, 3u);
  EXPECT_EQ(config.ladder.rungs[2].kind, RungKind::kPopularity);
  for (const char* name :
       {"WHITENREC_SERVE_TOPK", "WHITENREC_SERVE_WINDOW_NS",
        "WHITENREC_SERVE_MAX_BATCH", "WHITENREC_SERVE_CACHE_SESSIONS",
        "WHITENREC_SERVE_REFIT_EVERY", "WHITENREC_SERVE_DEADLINE_NS",
        "WHITENREC_SERVE_QUEUE_MAX", "WHITENREC_DEGRADE_LADDER"}) {
    unsetenv(name);
  }
  const ServeConfig defaults = ServeConfig::FromEnv();
  EXPECT_EQ(defaults.top_k, ServeConfig().top_k);
  EXPECT_EQ(defaults.batch_window_ns, ServeConfig().batch_window_ns);
  EXPECT_EQ(defaults.deadline_ns, ServeConfig().deadline_ns);
  EXPECT_EQ(defaults.queue_max, ServeConfig().queue_max);
  EXPECT_TRUE(defaults.ladder.rungs.empty());
}

// ---------------------------------------------------------------------------
// Ingest path: online whitening refit.
// ---------------------------------------------------------------------------

TEST(Ingest, GrowsCatalogThroughOnlineWhiteningRefit) {
  auto rec = FreshModel();
  seqrec::SasRecModel* model = rec->model();
  ServeConfig config;
  config.top_k = 5;
  config.refit_every = 4;
  RecommendService service(model, config);
  const std::size_t before = service.num_items();

  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  ASSERT_TRUE(service
                  .EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5)
                  .ok());

  // Warm a session, then ingest through a refit boundary.
  const ServeResponse warm1 =
      service.Handle(ServeRequest{7, 0});
  const ServeResponse warm2 = service.Handle(ServeRequest{7, 1 % before});
  EXPECT_FALSE(warm1.incremental);
  EXPECT_TRUE(warm2.incremental);

  linalg::Rng rng(21);
  for (std::size_t i = 0; i < config.refit_every; ++i) {
    std::vector<double> feature = raw.Row(i % raw.rows());
    for (double& x : feature) x += rng.Gaussian() * 0.05;
    ASSERT_TRUE(service.IngestItem(feature).ok()) << "i=" << i;
  }
  EXPECT_EQ(service.num_items(), before + config.refit_every);
  EXPECT_EQ(service.pending_ingests(), 0u);
  EXPECT_EQ(service.stats().refits, 1u);

  // The refit invalidated every cached session state: the next request
  // replays the window (recompute), then the session is warm again.
  const ServeResponse after = service.Handle(ServeRequest{7, 0});
  EXPECT_FALSE(after.incremental);
  const ServeResponse warm3 = service.Handle(ServeRequest{7, 1 % before});
  EXPECT_TRUE(warm3.incremental);
  ASSERT_EQ(after.topk.size(), config.top_k);
  for (const ScoredItem& hit : after.topk) {
    EXPECT_TRUE(std::isfinite(hit.score));
    EXPECT_LT(hit.item, service.num_items());
  }

  // New items are scorable: request one of them directly.
  const ServeResponse on_new =
      service.Handle(ServeRequest{8, before});  // first ingested item
  EXPECT_EQ(on_new.topk.size(), config.top_k);

  // Dimension mismatch is rejected.
  EXPECT_FALSE(service.IngestItem(std::vector<double>(raw.cols() + 1, 0.0))
                   .ok());
}

TEST(Ingest, RequiresTextFeatureEncoder) {
  auto id_rec = seqrec::MakeSasRecId(Fixture().data.dataset,
                                     ServingFixture::ModelConfig());
  RecommendService service(id_rec->model(), ServeConfig());
  const Status armed = service.EnableIngest(
      Fixture().data.dataset.text_embeddings, WhiteningKind::kZca, 1e-5);
  EXPECT_FALSE(armed.ok());
  EXPECT_FALSE(service.IngestItem(std::vector<double>(4, 0.0)).ok());
}

// ---------------------------------------------------------------------------
// Harness + BENCH_serving.json schema.
// ---------------------------------------------------------------------------

TEST(Harness, SweepProducesValidSchemaCheckedJson) {
  seqrec::SasRecModel* model = Fixture().model();
  HarnessConfig config;
  config.traffic.num_sessions = 12;
  config.traffic.num_requests = 120;
  config.batch_windows_ns = {0, 500000};
  config.thread_counts = {1, 2};
  const ServingBenchResult result = RunServingHarness(
      model, Fixture().data.dataset.sequences, config);
  ASSERT_EQ(result.points.size(), 4u);
  for (const SweepPoint& point : result.points) {
    EXPECT_GT(point.qps, 0.0);
    EXPECT_LE(point.p50_ns, point.p99_ns);
    EXPECT_LE(point.p99_ns, point.p999_ns);
    EXPECT_EQ(point.num_batches > 0, true);
  }
  // Coalescing windows can only grow the mean batch size.
  EXPECT_GE(result.points[1].mean_batch_size, result.points[0].mean_batch_size);

  const std::string json = ServingBenchJson(result);
  EXPECT_TRUE(ValidateServingBenchJson(json).ok())
      << ValidateServingBenchJson(json).message();
}

TEST(Harness, SchemaCheckerRejectsMalformedDocuments) {
  EXPECT_FALSE(ValidateServingBenchJson("").ok());
  EXPECT_FALSE(ValidateServingBenchJson("not json at all").ok());
  EXPECT_FALSE(ValidateServingBenchJson("[1, 2, 3]").ok());
  EXPECT_FALSE(ValidateServingBenchJson("{\"bench\": \"serving\"}").ok());
  // Wrong bench tag.
  EXPECT_FALSE(
      ValidateServingBenchJson(
          "{\"bench\": \"other\", \"catalog_items\": 1, \"hidden_dim\": 1, "
          "\"top_k\": 1, \"traffic\": {}, \"sweep\": []}")
          .ok());
  // Complete but with inverted percentiles: must be rejected.
  const std::string inverted =
      "{\"bench\": \"serving\", \"catalog_items\": 10, \"hidden_dim\": 4, "
      "\"top_k\": 2, \"traffic\": {\"num_sessions\": 1, \"num_requests\": 1, "
      "\"zipf_exponent\": 1, \"mean_interarrival_ns\": 1, \"seed\": 1}, "
      "\"sweep\": [{\"batch_window_ns\": 0, \"threads\": 1, \"qps\": 1, "
      "\"p50_ns\": 100, \"p99_ns\": 50, \"p999_ns\": 60, \"mean_ns\": 1, "
      "\"num_batches\": 1, \"mean_batch_size\": 1, \"cache_hit_rate\": 0, "
      "\"service_seconds\": 1}]}";
  const Status status = ValidateServingBenchJson(inverted);
  EXPECT_FALSE(status.ok());
  // An empty sweep is also invalid.
  const std::string empty_sweep =
      "{\"bench\": \"serving\", \"catalog_items\": 10, \"hidden_dim\": 4, "
      "\"top_k\": 2, \"traffic\": {\"num_sessions\": 1, \"num_requests\": 1, "
      "\"zipf_exponent\": 1, \"mean_interarrival_ns\": 1, \"seed\": 1}, "
      "\"sweep\": []}";
  EXPECT_FALSE(ValidateServingBenchJson(empty_sweep).ok());
}

// ---------------------------------------------------------------------------
// Randomized-traffic soak: the check-serve TSan workload. Scaled up via
// WHITENREC_SERVE_SOAK (request multiplier); small by default so the tier-1
// run stays fast.
// ---------------------------------------------------------------------------

TEST(Soak, RandomizedTrafficWithIngestStaysWellFormed) {
  auto rec = FreshModel();
  seqrec::SasRecModel* model = rec->model();
  const std::size_t multiplier = core::knobs::ServeSoak().value_or(1);
  ASSERT_GE(multiplier, 1u);

  TrafficConfig traffic;
  traffic.num_sessions = 40;
  traffic.num_requests = 600 * multiplier;
  traffic.zipf_exponent = 1.1;
  traffic.seed = 31337;
  const std::vector<TraceRequest> trace =
      GenerateTrace(Fixture().data.dataset.sequences, traffic);

  ServeConfig config;
  config.top_k = 10;
  config.max_cached_sessions = 8;  // force steady eviction pressure
  config.max_batch = 32;
  config.refit_every = 64;
  RecommendService service(model, config);
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  ASSERT_TRUE(
      service.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());

  linalg::Rng rng(8);
  std::size_t served = 0;
  const std::vector<std::vector<ServeRequest>> batches =
      CutBatches(trace, /*window_ns=*/250000, config.max_batch);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<ServeResponse> responses =
        service.HandleBatch(batches[b]);
    ASSERT_EQ(responses.size(), batches[b].size());
    for (const ServeResponse& response : responses) {
      ASSERT_EQ(response.topk.size(), config.top_k);
      for (std::size_t k = 1; k < response.topk.size(); ++k) {
        // Canonical ranking order.
        ASSERT_TRUE(linalg::RanksBefore(response.topk[k - 1],
                                        response.topk[k]));
      }
      for (const ScoredItem& hit : response.topk) {
        ASSERT_TRUE(std::isfinite(hit.score));
        ASSERT_LT(hit.item, service.num_items());
      }
    }
    served += responses.size();
    // Interleave catalog growth with serving.
    if (b % 7 == 3) {
      std::vector<double> feature = raw.Row(rng.UniformInt(raw.rows()));
      for (double& x : feature) x += rng.Gaussian() * 0.02;
      ASSERT_TRUE(service.IngestItem(feature).ok());
    }
  }
  EXPECT_EQ(served, trace.size());
  EXPECT_GT(service.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Overload resilience (ISSUE 10): admission control, degradation ladder,
// poisoned-ingest defense, chaos plane. DESIGN.md §13.
// ---------------------------------------------------------------------------

TEST(Admission, EdfOrderOverflowShedAndOverdueDropHandComputed) {
  AdmissionConfig config;
  config.queue_max = 3;
  AdmissionQueue queue(config);

  // Offers: (session, deadline). seq is assigned in offer order 0, 1, 2.
  auto offer = [&queue](std::uint64_t session, std::uint64_t deadline) {
    ServeRequest request;
    request.session_id = session;
    request.item = 0;
    request.deadline_ns = deadline;
    return queue.Offer(request);
  };

  EXPECT_FALSE(offer(10, 500).shed.has_value());   // seq 0
  EXPECT_FALSE(offer(11, 100).shed.has_value());   // seq 1
  EXPECT_FALSE(offer(12, 0).shed.has_value());     // seq 2: no deadline, last
  EXPECT_EQ(queue.size(), 3u);

  // Overflow sheds the unique EDF maximum: the deadline-free seq 2.
  const AdmissionQueue::OfferResult r3 = offer(13, 300);  // seq 3
  ASSERT_TRUE(r3.shed.has_value());
  EXPECT_EQ(r3.seq, 3u);
  EXPECT_EQ(r3.shed->seq, 2u);
  EXPECT_EQ(r3.shed->request.session_id, 12u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.shed_overflow(), 1u);

  // An offer that is itself the EDF maximum sheds itself.
  const AdmissionQueue::OfferResult r4 = offer(14, 900);  // seq 4
  ASSERT_TRUE(r4.shed.has_value());
  EXPECT_EQ(r4.shed->seq, 4u);
  EXPECT_EQ(r4.shed->request.session_id, 14u);

  // DropOverdue removes exactly the expired EDF prefix: deadlines 100, 300.
  const std::vector<AdmittedRequest> overdue = queue.DropOverdue(300);
  ASSERT_EQ(overdue.size(), 2u);
  EXPECT_EQ(overdue[0].request.session_id, 11u);
  EXPECT_EQ(overdue[1].request.session_id, 13u);
  EXPECT_EQ(queue.shed_overdue(), 2u);

  // PopBatch returns the EDF prefix sorted back into seq (arrival) order.
  EXPECT_FALSE(offer(15, 200).shed.has_value());  // seq 5: earliest deadline
  const std::vector<AdmittedRequest> batch = queue.PopBatch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].seq, 0u);  // seq order, not deadline order
  EXPECT_EQ(batch[1].seq, 5u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.offered(), 6u);
}

TEST(Admission, ShedSetIsPureFunctionOfTheOfferSequence) {
  // Same randomized offer/pop schedule twice: identical shed sets, identical
  // pop order — the queue consumes no clocks and no thread identity.
  auto run = [] {
    AdmissionConfig config;
    config.queue_max = 5;
    AdmissionQueue queue(config);
    linalg::Rng rng(404);
    std::vector<std::uint64_t> shed_seqs;
    std::vector<std::uint64_t> popped_seqs;
    for (std::size_t i = 0; i < 200; ++i) {
      ServeRequest request;
      request.session_id = rng.UniformInt(9);
      request.deadline_ns = 1 + rng.UniformInt(1000);
      const AdmissionQueue::OfferResult result = queue.Offer(request);
      if (result.shed.has_value()) shed_seqs.push_back(result.shed->seq);
      if (i % 3 == 2) {
        for (const AdmittedRequest& r : queue.PopBatch(2)) {
          popped_seqs.push_back(r.seq);
        }
      }
    }
    shed_seqs.push_back(queue.shed_overflow());
    return std::make_pair(shed_seqs, popped_seqs);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(DegradationLadder, HysteresisDegradesFastAndRecoversSlow) {
  LadderConfig config;
  config.rungs = {LadderRung{RungKind::kExact, 0, 1.0},
                  LadderRung{RungKind::kIvf, 8, 0.55},
                  LadderRung{RungKind::kPopularity, 0, 0.02}};
  config.high_watermark = 10;
  config.low_watermark = 2;
  config.degrade_after = 1;
  config.recover_after = 3;
  DegradationLadder ladder(config);

  EXPECT_EQ(ladder.Observe(5), 0u);   // dead band: stay
  EXPECT_EQ(ladder.Observe(10), 1u);  // >= high once: step down
  EXPECT_EQ(ladder.Observe(12), 2u);  // again: bottom rung
  EXPECT_EQ(ladder.Observe(50), 2u);  // clamped at the bottom
  EXPECT_EQ(ladder.Observe(2), 2u);   // <= low run 1 of 3
  EXPECT_EQ(ladder.Observe(0), 2u);   // run 2
  EXPECT_EQ(ladder.Observe(1), 1u);   // run 3: step up one rung
  EXPECT_EQ(ladder.Observe(2), 1u);   // run restarts after the step
  EXPECT_EQ(ladder.Observe(5), 1u);   // dead band resets the low run
  EXPECT_EQ(ladder.Observe(2), 1u);
  EXPECT_EQ(ladder.Observe(2), 1u);
  EXPECT_EQ(ladder.Observe(2), 0u);   // three consecutive lows: recovered
  EXPECT_EQ(ladder.Observe(0), 0u);   // clamped at the top

  ladder.Reset();
  EXPECT_EQ(ladder.rung(), 0u);
}

TEST(DegradationLadder, ParseLadderSpecAcceptsRungsAndRejectsMalformedOnes) {
  const std::vector<LadderRung> rungs =
      ParseLadderSpec("exact,ivf:8,ivf:2,popularity").ValueOrDie();
  ASSERT_EQ(rungs.size(), 4u);
  EXPECT_EQ(rungs[0].kind, RungKind::kExact);
  EXPECT_EQ(rungs[0].cost_factor, 1.0);
  EXPECT_EQ(rungs[1].kind, RungKind::kIvf);
  EXPECT_EQ(rungs[1].nprobe, 8u);
  EXPECT_EQ(rungs[2].nprobe, 2u);
  EXPECT_LT(rungs[2].cost_factor, rungs[1].cost_factor);
  EXPECT_EQ(rungs[3].kind, RungKind::kPopularity);
  for (const char* bad :
       {"", ",", "exact,", ",exact", "exact,,popularity", "Exact", "fast",
        "ivf", "ivf:", "ivf:0", "ivf:x", "ivf:8x", "ivf:-1", "ivf:+8",
        "ivf: 8", "ivf:99999999999999999999999", "exact ,popularity"}) {
    EXPECT_FALSE(ParseLadderSpec(bad).ok()) << "spec \"" << bad << "\"";
  }
}

TEST(DegradationLadder, TrajectoryIsPureFunctionOfDepthSequence) {
  LadderConfig config;
  config.rungs = {LadderRung{RungKind::kExact, 0, 1.0},
                  LadderRung{RungKind::kIvf, 4, 0.35},
                  LadderRung{RungKind::kIvf, 2, 0.25},
                  LadderRung{RungKind::kPopularity, 0, 0.02}};
  config.high_watermark = 12;
  config.low_watermark = 3;
  config.degrade_after = 2;
  config.recover_after = 4;

  linalg::Rng rng(77);
  std::vector<std::size_t> depths(500);
  for (std::size_t& d : depths) d = rng.UniformInt(20);

  auto replay = [&config, &depths] {
    DegradationLadder ladder(config);
    std::vector<std::size_t> rungs;
    rungs.reserve(depths.size());
    for (std::size_t d : depths) rungs.push_back(ladder.Observe(d));
    return rungs;
  };
  const std::vector<std::size_t> first = replay();
  const std::vector<std::size_t> second = replay();
  EXPECT_EQ(first, second);
  // The trajectory actually moves: some batch was served degraded.
  EXPECT_GT(*std::max_element(first.begin(), first.end()), 0u);
}

bool SameOutcomes(const std::vector<ServeOutcome>& a,
                  const std::vector<ServeOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq) return false;
    if (a[i].kind != b[i].kind) return false;
    if (a[i].status.code() != b[i].status.code()) return false;
    if (a[i].request.session_id != b[i].request.session_id) return false;
    if (a[i].request.item != b[i].request.item) return false;
    if (a[i].kind != ServeOutcomeKind::kServed) continue;
    if (a[i].response.rung != b[i].response.rung) return false;
    if (a[i].response.session_len != b[i].response.session_len) return false;
    if (a[i].response.topk.size() != b[i].response.topk.size()) return false;
    for (std::size_t k = 0; k < a[i].response.topk.size(); ++k) {
      if (a[i].response.topk[k].item != b[i].response.topk[k].item) {
        return false;
      }
      if (!BitwiseEqualRows(&a[i].response.topk[k].score,
                            &b[i].response.topk[k].score, 1)) {
        return false;
      }
    }
  }
  return true;
}

struct QueuedRun {
  std::vector<ServeOutcome> outcomes;
  std::vector<std::size_t> rung_served;
  ServeStats stats;
};

// Deterministic single-server drive of the admission-controlled path on the
// virtual clock: enqueue `serve_every` arrivals, cut one batch whose modeled
// cost advances the clock, repeat; then drain. Cutting batch `stall_at`
// additionally freezes the server for stall_ns (a simulated pause), so the
// queued requests outlive their deadlines and the overdue-drop path fires.
// Every control decision is a pure function of the trace, so the outcome
// stream must be bitwise reproducible at any thread count.
QueuedRun DriveQueued(seqrec::SasRecModel* model,
                      const std::vector<TraceRequest>& trace,
                      const ServeConfig& config, std::size_t serve_every,
                      std::uint64_t batch_cost_ns, std::size_t stall_at = 0,
                      std::uint64_t stall_ns = 0) {
  RecommendService service(model, config);
  QueuedRun run;
  std::uint64_t now_ns = 0;
  std::size_t since_batch = 0;
  std::size_t batches = 0;
  for (const TraceRequest& t : trace) {
    now_ns = std::max(now_ns, t.arrival_ns);
    ServeRequest request;
    request.session_id = t.session_id;
    request.item = t.item;
    request.arrival_ns = t.arrival_ns;
    request.deadline_ns = t.deadline_ns;
    service.Enqueue(request, &run.outcomes);
    if (++since_batch == serve_every) {
      since_batch = 0;
      service.ServeQueued(now_ns, &run.outcomes);
      now_ns += batch_cost_ns;
      if (++batches == stall_at) now_ns += stall_ns;
    }
  }
  while (service.queue_depth() > 0) {
    service.ServeQueued(now_ns, &run.outcomes);
    now_ns += batch_cost_ns;
  }
  run.rung_served = service.rung_served();
  run.stats = service.stats();
  return run;
}

TEST(Resilience, QueuedPathBitwiseMatchesDirectPathWhenUnloaded) {
  // No ladder, no deadlines, roomy queue: Enqueue + ServeQueued must be the
  // direct HandleBatch computation, rung-0 labeled, in arrival order.
  seqrec::SasRecModel* model = Fixture().model();
  TrafficConfig traffic;
  traffic.num_sessions = 10;
  traffic.num_requests = 96;
  traffic.seed = 71;
  const std::vector<TraceRequest> trace =
      GenerateTrace(Fixture().data.dataset.sequences, traffic);

  ServeConfig config;
  config.top_k = 6;
  config.max_batch = 16;
  config.queue_max = 1024;

  std::vector<ServeRequest> all;
  for (const TraceRequest& t : trace) {
    all.push_back(ServeRequest{t.session_id, t.item});
  }
  const std::vector<ServeResponse> direct =
      RecommendService(model, config).HandleBatch(all);

  const QueuedRun run = DriveQueued(model, trace, config,
                                    /*serve_every=*/trace.size(),
                                    /*batch_cost_ns=*/1);
  ASSERT_EQ(run.outcomes.size(), trace.size());
  ASSERT_EQ(run.rung_served.size(), 1u);
  EXPECT_EQ(run.rung_served[0], trace.size());
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    ASSERT_EQ(run.outcomes[i].kind, ServeOutcomeKind::kServed);
    EXPECT_EQ(run.outcomes[i].seq, i);
    EXPECT_EQ(run.outcomes[i].response.rung, 0u);
    ASSERT_EQ(run.outcomes[i].response.topk.size(), direct[i].topk.size());
    for (std::size_t k = 0; k < direct[i].topk.size(); ++k) {
      EXPECT_EQ(run.outcomes[i].response.topk[k].item, direct[i].topk[k].item);
      EXPECT_TRUE(BitwiseEqualRows(&run.outcomes[i].response.topk[k].score,
                                   &direct[i].topk[k].score, 1));
    }
  }
}

// Overloaded serving config shared by the determinism and soak tests: a
// bounded queue fed faster than it drains, tight deadlines, and a full
// ladder, so overflow sheds, deadline sheds, and degraded rungs all occur.
ServeConfig OverloadConfig() {
  ServeConfig config;
  config.top_k = 8;
  config.max_batch = 8;
  config.queue_max = 12;
  config.ladder.rungs =
      ParseLadderSpec("exact,ivf:4,popularity").ValueOrDie();
  config.ladder.high_watermark = 6;
  config.ladder.low_watermark = 2;
  // degrade_after 2 so the first (already overloaded) cut still serves at
  // rung 0: the tests below then see full-quality AND degraded service.
  config.ladder.degrade_after = 2;
  config.ladder.recover_after = 2;
  std::vector<std::size_t> popularity(Fixture().data.dataset.num_items, 0);
  for (const std::vector<std::size_t>& seq :
       Fixture().data.dataset.sequences) {
    for (std::size_t item : seq) ++popularity[item];
  }
  config.popularity = std::move(popularity);
  return config;
}

std::vector<TraceRequest> OverloadTrace(std::size_t num_requests,
                                        std::uint64_t seed) {
  TrafficConfig traffic;
  traffic.num_sessions = 20;
  traffic.num_requests = num_requests;
  traffic.mean_interarrival_ns = 50000;
  traffic.deadline_ns = 2000000;  // 2 ms: tight against the modeled cost
  traffic.seed = seed;
  return GenerateTrace(Fixture().data.dataset.sequences, traffic);
}

TEST(Resilience, OutcomesShedSetsAndRungsBitwiseIdenticalAcrossThreadCounts) {
  seqrec::SasRecModel* model = Fixture().model();
  const std::vector<TraceRequest> trace = OverloadTrace(400, 909);
  const ServeConfig config = OverloadConfig();

  core::SetNumThreads(1);
  const QueuedRun reference =
      DriveQueued(model, trace, config, /*serve_every=*/20,
                  /*batch_cost_ns=*/800000, /*stall_at=*/10,
                  /*stall_ns=*/5000000);
  // The run must actually exercise every disposition and a degraded rung;
  // otherwise the determinism claim below is vacuous.
  ASSERT_GT(reference.stats.queue_sheds, 0u);
  ASSERT_GT(reference.stats.deadline_sheds, 0u);
  std::size_t degraded = 0;
  for (std::size_t r = 1; r < reference.rung_served.size(); ++r) {
    degraded += reference.rung_served[r];
  }
  ASSERT_GT(degraded, 0u);
  ASSERT_GT(reference.rung_served[0], 0u);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::SetNumThreads(threads);
    const QueuedRun got =
        DriveQueued(model, trace, config, /*serve_every=*/20,
                    /*batch_cost_ns=*/800000, /*stall_at=*/10,
                    /*stall_ns=*/5000000);
    ASSERT_TRUE(SameOutcomes(reference.outcomes, got.outcomes))
        << "threads=" << threads;
    ASSERT_EQ(reference.rung_served, got.rung_served) << "threads=" << threads;
    EXPECT_EQ(reference.stats.queue_sheds, got.stats.queue_sheds);
    EXPECT_EQ(reference.stats.deadline_sheds, got.stats.deadline_sheds);
  }
  core::SetNumThreads(0);
}

TEST(Resilience, DeadlineShedLeavesSessionStateUntouched) {
  seqrec::SasRecModel* model = Fixture().model();
  ServeConfig config;
  config.top_k = 6;
  const std::size_t items = Fixture().data.dataset.num_items;

  RecommendService shed_service(model, config);
  RecommendService control(model, config);
  const std::uint64_t session = 5;
  for (std::size_t i : {std::size_t{3} % items, std::size_t{9} % items}) {
    (void)shed_service.Handle(ServeRequest{session, i});
    (void)control.Handle(ServeRequest{session, i});
  }

  // A request for the same session whose deadline passes before service: it
  // must be dropped with a typed status and must NOT advance the session.
  std::vector<ServeOutcome> outcomes;
  ServeRequest overdue;
  overdue.session_id = session;
  overdue.item = 1 % items;
  overdue.arrival_ns = 100;
  overdue.deadline_ns = 200;
  shed_service.Enqueue(overdue, &outcomes);
  shed_service.ServeQueued(/*now_ns=*/500, &outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, ServeOutcomeKind::kShedDeadline);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(shed_service.stats().deadline_sheds, 1u);

  const ServeResponse after =
      shed_service.Handle(ServeRequest{session, 7 % items});
  const ServeResponse expected =
      control.Handle(ServeRequest{session, 7 % items});
  EXPECT_EQ(after.session_len, expected.session_len);
  ASSERT_TRUE(SameResponses({after}, {expected}));
}

TEST(Resilience, PopularityRungMatchesHeadSetTieBreak) {
  // A single-rung popularity ladder: responses must rank by (count desc,
  // item id asc) — the eval::PopularityHeadSet tie-break — after history
  // exclusion, with no model scoring involved.
  seqrec::SasRecModel* model = Fixture().model();
  const std::size_t items = Fixture().data.dataset.num_items;
  ServeConfig config;
  config.top_k = 7;
  config.ladder.rungs = ParseLadderSpec("popularity").ValueOrDie();
  std::vector<std::size_t> popularity(items);
  for (std::size_t i = 0; i < items; ++i) popularity[i] = (i * 13) % 5;
  config.popularity = popularity;

  RecommendService service(model, config);
  const std::size_t consumed = 2 % items;
  std::vector<ServeOutcome> outcomes;
  ServeRequest request;
  request.session_id = 77;
  request.item = consumed;
  service.Enqueue(request, &outcomes);
  service.ServeQueued(/*now_ns=*/0, &outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].kind, ServeOutcomeKind::kServed);
  const std::vector<ScoredItem>& topk = outcomes[0].response.topk;
  ASSERT_EQ(topk.size(), config.top_k);

  // Expected order, computed independently.
  std::vector<std::size_t> ids(items);
  for (std::size_t i = 0; i < items; ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(),
                   [&popularity](std::size_t a, std::size_t b) {
                     if (popularity[a] != popularity[b]) {
                       return popularity[a] > popularity[b];
                     }
                     return a < b;
                   });
  std::vector<std::size_t> expected;
  for (std::size_t id : ids) {
    if (id == consumed) continue;  // history exclusion
    expected.push_back(id);
    if (expected.size() == config.top_k) break;
  }
  for (std::size_t k = 0; k < config.top_k; ++k) {
    EXPECT_EQ(topk[k].item, expected[k]) << "k=" << k;
  }

  // Consistency with the eval-side head set: the served top-K (plus the
  // excluded item) sits inside the popularity head of the same size.
  const std::vector<char> head =
      eval::PopularityHeadSet(popularity, config.top_k + 1);
  for (const ScoredItem& hit : topk) {
    EXPECT_TRUE(head[hit.item]) << "item " << hit.item
                                << " served but outside the popularity head";
  }
}

TEST(Ingest, RejectsPoisonedFeaturesIntoQuarantineWithTypedStatus) {
  auto rec = FreshModel();
  ServeConfig config;
  config.refit_every = 100;
  config.ingest_max_abs = 10.0;
  RecommendService service(rec->model(), config);
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  ASSERT_TRUE(
      service.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());
  const std::size_t items_before = service.num_items();

  std::vector<double> nan_row = raw.Row(0);
  nan_row[nan_row.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inf_row = raw.Row(1 % raw.rows());
  inf_row[0] = std::numeric_limits<double>::infinity();
  std::vector<double> big_row = raw.Row(2 % raw.rows());
  big_row.back() = -100.0;  // |value| > ingest_max_abs
  const std::vector<double> short_row(raw.cols() - 1, 0.0);

  std::size_t rejected = 0;
  const std::vector<const std::vector<double>*> poisons = {
      &nan_row, &inf_row, &big_row, &short_row};
  for (const std::vector<double>* poison : poisons) {
    const Status status = service.IngestItem(*poison);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message().empty());
    ++rejected;
    EXPECT_EQ(service.stats().quarantined, rejected);
    ASSERT_EQ(service.quarantine().size(), rejected);
    EXPECT_EQ(service.quarantine().back().reason, status.message());
    EXPECT_EQ(service.pending_ingests(), 0u);
    EXPECT_EQ(service.num_items(), items_before);
  }

  // Rejected rows leave the whitening moments bitwise untouched: a service
  // that saw the poison interleaved with valid rows must refit to exactly
  // the state of one that saw only the valid rows.
  auto rec_clean = FreshModel();
  RecommendService clean(rec_clean->model(), config);
  ASSERT_TRUE(
      clean.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_FALSE(service.IngestItem(nan_row).ok());
    ASSERT_TRUE(service.IngestItem(raw.Row(i % raw.rows())).ok());
    ASSERT_TRUE(clean.IngestItem(raw.Row(i % raw.rows())).ok());
  }
  ASSERT_TRUE(service.RefitNow().ok());
  ASSERT_TRUE(clean.RefitNow().ok());
  const ServeRequest probe{3, 0};
  ASSERT_TRUE(SameResponses({service.Handle(probe)}, {clean.Handle(probe)}));
}

TEST(Ingest, RefitGuardRefusesIllConditionedRefitAndRollsBack) {
  const Matrix& raw = Fixture().data.dataset.text_embeddings;

  // Eigenvalue floor set impossibly high: the guard must refuse the refit,
  // quarantine the pending rows, and leave serving on the pre-ingest state.
  auto rec = FreshModel();
  ServeConfig config;
  config.refit_every = 3;
  config.refit_eigen_floor = 1e9;
  RecommendService guarded(rec->model(), config);
  ASSERT_TRUE(
      guarded.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());
  const std::size_t items_before = guarded.num_items();

  Status refit_status = Status::OK();
  for (std::size_t i = 0; i < config.refit_every; ++i) {
    refit_status = guarded.IngestItem(raw.Row(i));
  }
  ASSERT_FALSE(refit_status.ok());  // the boundary ingest surfaced the guard
  EXPECT_EQ(guarded.stats().refit_failures, 1u);
  EXPECT_EQ(guarded.stats().refits, 0u);
  EXPECT_EQ(guarded.table_version(), 0u);
  EXPECT_EQ(guarded.pending_ingests(), 0u);
  EXPECT_EQ(guarded.num_items(), items_before);
  ASSERT_EQ(guarded.quarantine().size(), config.refit_every);
  for (const QuarantinedFeature& q : guarded.quarantine()) {
    EXPECT_EQ(q.reason, "dropped by refit rollback");
  }

  // Serving is bitwise the pre-ingest computation.
  auto rec_control = FreshModel();
  RecommendService control(rec_control->model(), ServeConfig());
  const ServeRequest probe{11, 1 % items_before};
  ASSERT_TRUE(SameResponses({guarded.Handle(probe)}, {control.Handle(probe)}));

  // Condition-number variant trips with its own message.
  auto rec_cond = FreshModel();
  ServeConfig cond_config;
  cond_config.refit_every = 2;
  cond_config.refit_max_condition = 1.0;  // any real covariance exceeds this
  RecommendService conditioned(rec_cond->model(), cond_config);
  ASSERT_TRUE(conditioned.EnableIngest(raw, WhiteningKind::kZca, 1e-5).ok());
  Status cond_status = Status::OK();
  for (std::size_t i = 0; i < cond_config.refit_every; ++i) {
    cond_status = conditioned.IngestItem(raw.Row(i));
  }
  ASSERT_FALSE(cond_status.ok());
  EXPECT_EQ(cond_status.code(), StatusCode::kNumericalError);
  EXPECT_NE(cond_status.message().find("condition"), std::string::npos);
}

TEST(Ingest, ChaosRefitFailureRollsBackToLastGoodStateBitwise) {
  // With the chaos plane forcing every refit to fail mid-swap, the service
  // must restore the last good whitening transform, item table, and index —
  // bitwise: responses equal a control service that never ingested at all.
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  auto rec = FreshModel();
  ServeConfig config;
  config.refit_every = 4;
  RecommendService service(rec->model(), config);
  ASSERT_TRUE(
      service.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());
  const std::size_t items_before = service.num_items();

  {
    ScopedChaosConfig chaos(/*seed=*/7, /*rate=*/1.0);
    Status refit_status = Status::OK();
    for (std::size_t i = 0; i < config.refit_every; ++i) {
      refit_status = service.IngestItem(raw.Row(i));
    }
    ASSERT_FALSE(refit_status.ok());
    EXPECT_EQ(refit_status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(service.stats().rollbacks, 1u);
  EXPECT_EQ(service.stats().refit_failures, 1u);
  EXPECT_EQ(service.table_version(), 0u);
  EXPECT_EQ(service.num_items(), items_before);
  EXPECT_EQ(service.pending_ingests(), 0u);
  EXPECT_EQ(service.quarantine().size(), config.refit_every);

  auto rec_control = FreshModel();
  RecommendService control(rec_control->model(), ServeConfig());
  for (std::uint64_t session : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (std::size_t step = 0; step < 3; ++step) {
      const ServeRequest probe{session, (session + step) % items_before};
      ASSERT_TRUE(
          SameResponses({service.Handle(probe)}, {control.Handle(probe)}))
          << "session=" << session << " step=" << step;
    }
  }

  // With chaos off, the same ingest stream commits: the rollback cost
  // nothing but the dropped rows.
  {
    ScopedChaosConfig chaos(/*seed=*/7, /*rate=*/0.0);
    for (std::size_t i = 0; i < config.refit_every; ++i) {
      ASSERT_TRUE(service.IngestItem(raw.Row(i)).ok());
    }
  }
  EXPECT_EQ(service.table_version(), 1u);
  EXPECT_EQ(service.num_items(), items_before + config.refit_every);
}

TEST(Ingest, ChaosRollbackRebuildsNoIndex) {
  // The interrupted swap only ever replaced the encoder's features: the item
  // table and every scorer still hold the pre-refit state, so the rollback
  // restores the features and rebuilds nothing. index_rebuilds stays at the
  // construction-time build, and responses are bitwise a control's that
  // never ingested.
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  auto rec = FreshModel();
  ServeConfig config;
  config.refit_every = 2;
  RecommendService service(rec->model(), config);
  ASSERT_TRUE(
      service.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());
  const std::size_t rebuilds_before = service.stats().index_rebuilds;
  EXPECT_EQ(rebuilds_before, 1u);
  {
    ScopedChaosConfig chaos(/*seed=*/3, /*rate=*/1.0);
    for (std::size_t round = 0; round < 2; ++round) {
      Status status = Status::OK();
      for (std::size_t i = 0; i < config.refit_every; ++i) {
        status = service.IngestItem(raw.Row(round * config.refit_every + i));
      }
      ASSERT_EQ(status.code(), StatusCode::kUnavailable) << "round " << round;
    }
  }
  EXPECT_EQ(service.stats().rollbacks, 2u);
  EXPECT_EQ(service.stats().index_rebuilds, rebuilds_before);

  auto rec_control = FreshModel();
  RecommendService control(rec_control->model(), ServeConfig());
  const std::size_t items = service.num_items();
  for (std::uint64_t session : {std::uint64_t{4}, std::uint64_t{5}}) {
    for (std::size_t step = 0; step < 3; ++step) {
      const ServeRequest probe{session, (3 * session + step) % items};
      ASSERT_TRUE(
          SameResponses({service.Handle(probe)}, {control.Handle(probe)}))
          << "session=" << session << " step=" << step;
    }
  }
}

// One ingest trace through a refused refit, a chaos-interrupted refit and a
// committed one, with requests served between the phases.
struct IngestTraceRun {
  std::vector<ServeResponse> responses;
  std::vector<StatusCode> codes;  // one per IngestItem call
  ServeStats stats;
  std::uint64_t table_version = 0;
  std::size_t num_items = 0;
  std::vector<QuarantinedFeature> quarantine;
};

using FeatureRows = std::vector<std::vector<double>>;

// Runs `collapse` rows (a guard refusal), then `interrupted` rows under a
// chaos rate of 1 (a kRefitFailure rollback), then `survivors` (a commit),
// serving the same probe requests before and after every phase. Empty
// `collapse`/`interrupted` give the control that only ever saw survivors.
IngestTraceRun RunIngestTrace(const ServeConfig& config,
                              const FeatureRows& collapse,
                              const FeatureRows& interrupted,
                              const FeatureRows& survivors) {
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  auto rec = FreshModel();
  RecommendService service(rec->model(), config);
  EXPECT_TRUE(service.EnableIngest(raw, WhiteningKind::kZca, 1e-5).ok());
  const std::size_t base = service.num_items();
  IngestTraceRun run;
  std::size_t step = 0;
  auto probe = [&](std::size_t catalog) {
    for (std::uint64_t session = 1; session <= 3; ++session) {
      run.responses.push_back(
          service.Handle(ServeRequest{session, (session * 7 + step) % catalog}));
    }
    ++step;
  };
  auto ingest = [&](const FeatureRows& rows) {
    for (const std::vector<double>& row : rows) {
      run.codes.push_back(service.IngestItem(row).code());
    }
  };
  probe(base);
  ingest(collapse);
  probe(base);
  {
    ScopedChaosConfig chaos(/*seed=*/5, /*rate=*/1.0);
    ingest(interrupted);
  }
  probe(base);
  ingest(survivors);
  probe(service.num_items());  // reaches the newly committed items too
  probe(service.num_items());
  run.stats = service.stats();
  run.table_version = service.table_version();
  run.num_items = service.num_items();
  run.quarantine = service.quarantine();
  return run;
}

bool SameStats(const ServeStats& a, const ServeStats& b) {
  return a.requests == b.requests && a.batches == b.batches &&
         a.cache_hits == b.cache_hits && a.recomputes == b.recomputes &&
         a.evictions == b.evictions && a.ingested == b.ingested &&
         a.refits == b.refits && a.index_rebuilds == b.index_rebuilds &&
         a.queue_sheds == b.queue_sheds &&
         a.deadline_sheds == b.deadline_sheds &&
         a.quarantined == b.quarantined &&
         a.refit_failures == b.refit_failures && a.rollbacks == b.rollbacks;
}

// Smallest covariance eigenvalue the refit guard sees after `rows` are
// ingested on top of `raw` (the same Welford sequence the service runs).
double MinEigenvalueAfter(const Matrix& raw, const FeatureRows& rows) {
  IncrementalWhitening acc(raw.cols());
  acc.Add(raw);
  for (const std::vector<double>& row : rows) acc.Add(Matrix::FromRows({row}));
  return eval::AnalyzeCovarianceConditioning(acc.CovarianceMatrix().value())
      .min_eigenvalue;
}

TEST(Ingest, RollbackThenCommitMatchesServiceThatSawOnlySurvivors) {
  // The raw catalog grows in place and rollbacks truncate it in place, so a
  // refused or interrupted refit must leave no trace once a later refit
  // commits: same catalog, same responses as a service that never saw the
  // dropped rows. 64 pending rows on the 23-item fixture catalog cross
  // several reallocation boundaries of its EnableIngest copy; the later
  // phases append into the capacity the truncations kept.
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  const std::size_t k = 64;
  IncrementalWhitening moments(raw.cols());
  moments.Add(raw);
  // Rows at the exact catalog mean pass every per-row check but add no
  // variance, so the (rank-deficient) fixture covariance keeps its null
  // space. Noisy copies of catalog rows fill it in.
  const FeatureRows collapse(k, moments.Mean());
  linalg::Rng rng(31);
  FeatureRows interrupted;
  FeatureRows survivors;
  for (std::size_t i = 0; i < k; ++i) {
    for (FeatureRows* rows : {&interrupted, &survivors}) {
      std::vector<double> row = raw.Row((rows->size() * 5 + i) % raw.rows());
      for (double& x : row) x += rng.Gaussian() * 0.05;
      rows->push_back(row);
    }
  }
  ServeConfig config;
  config.refit_every = k;
  config.refit_eigen_floor = 1e-6;
  ASSERT_LT(MinEigenvalueAfter(raw, collapse), config.refit_eigen_floor);
  ASSERT_GT(MinEigenvalueAfter(raw, interrupted), config.refit_eigen_floor);
  ASSERT_GT(MinEigenvalueAfter(raw, survivors), config.refit_eigen_floor);

  const std::size_t configured_threads = core::NumThreads();
  core::SetNumThreads(1);
  const IngestTraceRun run = RunIngestTrace(config, collapse, interrupted,
                                            survivors);
  const IngestTraceRun control = RunIngestTrace(config, {}, {}, survivors);

  ASSERT_EQ(run.codes.size(), 3 * k);
  EXPECT_EQ(run.codes[k - 1], StatusCode::kNumericalError);
  EXPECT_EQ(run.codes[2 * k - 1], StatusCode::kUnavailable);
  for (std::size_t i = 2 * k; i < 3 * k; ++i) {
    EXPECT_EQ(run.codes[i], StatusCode::kOk) << "survivor " << i - 2 * k;
  }
  EXPECT_EQ(run.stats.refit_failures, 2u);
  EXPECT_EQ(run.stats.rollbacks, 1u);
  EXPECT_EQ(run.stats.refits, 1u);
  EXPECT_EQ(run.table_version, 1u);
  EXPECT_EQ(control.table_version, 1u);

  EXPECT_EQ(run.num_items, raw.rows() + k);
  EXPECT_EQ(run.num_items, control.num_items);
  EXPECT_TRUE(control.quarantine.empty());
  ASSERT_EQ(run.quarantine.size(), 2 * k);
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const std::vector<double>& dropped =
        i < k ? collapse[i] : interrupted[i - k];
    EXPECT_EQ(run.quarantine[i].reason, "dropped by refit rollback");
    ASSERT_EQ(run.quarantine[i].feature.size(), dropped.size());
    EXPECT_TRUE(BitwiseEqualRows(run.quarantine[i].feature.data(),
                                 dropped.data(), dropped.size()))
        << "quarantined row " << i;
  }
  ASSERT_TRUE(SameResponses(run.responses, control.responses));

  // The two-chunk guard/fit refit is thread-count independent.
  core::SetNumThreads(4);
  const IngestTraceRun threaded = RunIngestTrace(config, collapse,
                                                 interrupted, survivors);
  core::SetNumThreads(configured_threads);
  EXPECT_TRUE(SameResponses(run.responses, threaded.responses));
  EXPECT_TRUE(SameStats(run.stats, threaded.stats));
  EXPECT_EQ(run.codes, threaded.codes);
  EXPECT_EQ(run.table_version, threaded.table_version);
  EXPECT_EQ(run.num_items, threaded.num_items);
}

TEST(Soak, ChaosSoakServesCorrectlyOrShedsTyped) {
  // At fault rates 5% and 25%, every request offered to the admission path
  // ends exactly one way: served with a well-formed rung-labeled response,
  // or shed with a typed retriable status. Nothing is silently wrong.
  const Matrix& raw = Fixture().data.dataset.text_embeddings;
  for (const double rate : {0.05, 0.25}) {
    ScopedChaosConfig chaos(/*seed=*/1234, rate);
    auto rec = FreshModel();
    seqrec::SasRecModel* model = rec->model();
    ServeConfig config = OverloadConfig();
    config.refit_every = 8;
    RecommendService service(model, config);
    ASSERT_TRUE(
        service.EnableIngest(raw, WhiteningKind::kZca, /*epsilon=*/1e-5).ok());

    const std::vector<TraceRequest> trace = OverloadTrace(360, 4242);
    std::vector<ServeOutcome> outcomes;
    std::uint64_t now_ns = 0;
    std::size_t since_batch = 0;
    std::size_t ingested = 0;
    for (const TraceRequest& t : trace) {
      now_ns = std::max(now_ns, t.arrival_ns);
      ServeRequest request;
      request.session_id = t.session_id;
      request.item = t.item;
      request.arrival_ns = t.arrival_ns;
      request.deadline_ns = t.deadline_ns;
      service.Enqueue(request, &outcomes);
      if (++since_batch == 18) {
        since_batch = 0;
        service.ServeQueued(now_ns, &outcomes);
        now_ns += 700000;
        // Poisoned-ingest stream: every third row carries a NaN and must be
        // quarantined; the rest commit through (possibly chaos-failed)
        // refits.
        std::vector<double> feature = raw.Row(ingested % raw.rows());
        if (ingested % 3 == 1) {
          feature[ingested % feature.size()] =
              std::numeric_limits<double>::quiet_NaN();
          ASSERT_FALSE(service.IngestItem(feature).ok());
        } else {
          (void)service.IngestItem(feature);  // chaos may fail the refit
        }
        ++ingested;
      }
    }
    while (service.queue_depth() > 0) {
      service.ServeQueued(now_ns, &outcomes);
      now_ns += 700000;
    }

    ASSERT_EQ(outcomes.size(), trace.size()) << "rate=" << rate;
    std::size_t served = 0;
    std::size_t shed = 0;
    for (const ServeOutcome& outcome : outcomes) {
      switch (outcome.kind) {
        case ServeOutcomeKind::kServed:
          ++served;
          ASSERT_TRUE(outcome.status.ok());
          ASSERT_EQ(outcome.response.topk.size(), config.top_k);
          ASSERT_LT(outcome.response.rung, config.ladder.rungs.size());
          for (std::size_t k = 0; k < outcome.response.topk.size(); ++k) {
            ASSERT_TRUE(std::isfinite(outcome.response.topk[k].score));
            ASSERT_LT(outcome.response.topk[k].item, service.num_items());
            if (k > 0) {
              ASSERT_TRUE(linalg::RanksBefore(outcome.response.topk[k - 1],
                                              outcome.response.topk[k]));
            }
          }
          break;
        case ServeOutcomeKind::kShedOverflow:
          ++shed;
          ASSERT_EQ(outcome.status.code(), StatusCode::kUnavailable);
          break;
        case ServeOutcomeKind::kShedDeadline:
          ++shed;
          ASSERT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
          break;
      }
    }
    EXPECT_EQ(served + shed, trace.size()) << "rate=" << rate;
    EXPECT_GT(served, 0u);
    EXPECT_GT(service.stats().quarantined, 0u) << "rate=" << rate;
  }
}

TEST(LatencyHistogram, OverflowBucketAndResilienceCounters) {
  // The largest possible value must land inside the table (an off-by-one
  // here was once an out-of-bounds write) and round-trip through quantiles.
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  const std::size_t index = LatencyHistogram::BucketIndex(huge);
  ASSERT_LT(index, LatencyHistogram::NumBuckets());
  ASSERT_LE(LatencyHistogram::BucketLowerBound(index), huge);

  LatencyHistogram hist;
  hist.Record(huge);
  hist.Record(1);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.max(), huge);
  EXPECT_EQ(hist.Quantile(0.5), 1u);
  EXPECT_EQ(hist.Quantile(1.0), LatencyHistogram::BucketLowerBound(index));

  // Deadline-miss / shed counters ride the histogram and merge with it.
  LatencyHistogram a;
  a.RecordDeadlineMiss();
  a.RecordDeadlineMiss();
  a.RecordShed();
  LatencyHistogram b;
  b.RecordShed();
  b.Record(5);
  a.Merge(b);
  EXPECT_EQ(a.deadline_misses(), 2u);
  EXPECT_EQ(a.sheds(), 2u);
  EXPECT_EQ(a.count(), 1u);  // sheds never contribute a latency sample
  EXPECT_EQ(a.sum(), 5u);
}

TEST(DegradeHarness, SweepProducesValidSchemaCheckedJson) {
  // Tiny, ingest-free sweep on the shared fixture model (ingest would mutate
  // it). The harness itself re-seeds the chaos injector per point.
  ScopedChaosConfig chaos(/*seed=*/5, /*rate=*/0.25);
  DegradeConfig config;
  config.traffic.num_sessions = 12;
  config.traffic.num_requests = 150;
  config.traffic.mean_interarrival_ns = 100000;
  config.traffic.deadline_ns = 10000000;
  config.serve = OverloadConfig();
  config.serve.queue_max = 64;
  config.load_multipliers = {1.0, 4.0};
  const DegradeBenchResult result = RunDegradeHarness(
      Fixture().model(), Fixture().data.dataset.sequences,
      /*raw_features=*/nullptr, config);
  ASSERT_EQ(result.points.size(), 2u);
  for (const DegradePoint& point : result.points) {
    EXPECT_EQ(point.offered,
              point.served + point.shed_overflow + point.shed_deadline);
    EXPECT_GE(point.availability, 0.0);
    EXPECT_LE(point.availability, 1.0);
    ASSERT_EQ(point.rung_served.size(), config.serve.ladder.rungs.size());
    ASSERT_EQ(point.rung_ndcg.size(), point.rung_served.size());
    for (std::size_t r = 0; r < point.rung_served.size(); ++r) {
      if (point.rung_served[r] == 0) {
        EXPECT_EQ(point.rung_ndcg[r], -1.0);
      } else {
        EXPECT_GE(point.rung_ndcg[r], 0.0);
        EXPECT_LE(point.rung_ndcg[r], 1.0);
      }
    }
  }
  // Rung 0 serves against itself: where it served, quality is exactly 1.
  ASSERT_GT(result.points[0].rung_served[0], 0u);
  EXPECT_DOUBLE_EQ(result.points[0].rung_ndcg[0], 1.0);

  const std::string json = DegradeBenchJson(result);
  EXPECT_TRUE(ValidateDegradeBenchJson(json).ok())
      << ValidateDegradeBenchJson(json).message();
  // Availability can never exceed 1, so a floor above 1 must always reject:
  // the check-degrade gate's floor is actually enforced per point.
  EXPECT_FALSE(ValidateDegradeBenchJson(json, /*min_availability=*/1.01).ok());
}

TEST(DegradeHarness, SchemaCheckerRejectsMalformedDocuments) {
  EXPECT_FALSE(ValidateDegradeBenchJson("").ok());
  EXPECT_FALSE(ValidateDegradeBenchJson("[3]").ok());
  EXPECT_FALSE(ValidateDegradeBenchJson("{\"bench\": \"serving\"}").ok());

  const std::string valid =
      "{\"bench\": \"degrade\", \"catalog_items\": 10, \"ndcg_k\": 10, "
      "\"chaos\": {\"seed\": 1, \"rate\": 0.25}, \"traffic\": {}, "
      "\"sweep\": [{\"load_multiplier\": 1, \"offered\": 10, \"served\": 9, "
      "\"shed_overflow\": 1, \"shed_deadline\": 0, \"availability\": 0.9, "
      "\"deadline_miss_rate\": 0, \"p50_ns\": 10, \"p99_ns\": 20, "
      "\"quarantined\": 0, \"refit_failures\": 0, \"rollbacks\": 0, "
      "\"rung_served\": [9, 0], \"rung_ndcg\": [1, -1]}]}";
  ASSERT_TRUE(ValidateDegradeBenchJson(valid).ok())
      << ValidateDegradeBenchJson(valid).message();
  // The hand-built point has availability 0.9: the floor must reject it.
  EXPECT_FALSE(ValidateDegradeBenchJson(valid, /*min_availability=*/0.99).ok());

  auto mutate = [&valid](const std::string& from, const std::string& to) {
    std::string doc = valid;
    const std::size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
  };
  // Accounting identity: offered != served + sheds.
  EXPECT_FALSE(
      ValidateDegradeBenchJson(mutate("\"served\": 9", "\"served\": 8")).ok());
  // Inverted percentiles.
  EXPECT_FALSE(
      ValidateDegradeBenchJson(mutate("\"p50_ns\": 10", "\"p50_ns\": 30"))
          .ok());
  // Out-of-range availability.
  EXPECT_FALSE(ValidateDegradeBenchJson(
                   mutate("\"availability\": 0.9", "\"availability\": 1.5"))
                   .ok());
  // Rung arrays of unequal length.
  EXPECT_FALSE(ValidateDegradeBenchJson(
                   mutate("\"rung_served\": [9, 0]", "\"rung_served\": [9]"))
                   .ok());
  // NDCG outside [0, 1] and not the -1 sentinel.
  EXPECT_FALSE(ValidateDegradeBenchJson(
                   mutate("\"rung_ndcg\": [1, -1]", "\"rung_ndcg\": [1, 2]"))
                   .ok());
  // Empty sweep.
  const std::string empty_sweep =
      "{\"bench\": \"degrade\", \"catalog_items\": 10, \"ndcg_k\": 10, "
      "\"chaos\": {\"seed\": 1, \"rate\": 0}, \"traffic\": {}, "
      "\"sweep\": []}";
  EXPECT_FALSE(ValidateDegradeBenchJson(empty_sweep).ok());
}

}  // namespace
}  // namespace serve
}  // namespace whitenrec
