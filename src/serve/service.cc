#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/check.h"
#include "core/knobs.h"
#include "core/parallel.h"
#include "eval/conditioning.h"
#include "whitening/whiten_encoder.h"
#include "linalg/gemm.h"
#include "linalg/workspace.h"
#include "serve/chaos.h"

namespace whitenrec {
namespace serve {
namespace {

using linalg::Matrix;

// Quarantined feature rows kept for inspection; the ServeStats counter keeps
// counting past the cap so a poisoning flood is still visible in full.
constexpr std::size_t kQuarantineCap = 256;

}  // namespace

ServeConfig ServeConfig::FromEnv() {
  namespace knobs = core::knobs;
  ServeConfig config;
  config.top_k = knobs::ServeTopk().value_or(config.top_k);
  config.max_cached_sessions =
      knobs::ServeCacheSessions().value_or(config.max_cached_sessions);
  config.max_batch = knobs::ServeMaxBatch().value_or(config.max_batch);
  config.batch_window_ns =
      knobs::ServeWindowNs().value_or(config.batch_window_ns);
  config.refit_every = knobs::ServeRefitEvery().value_or(config.refit_every);
  config.deadline_ns = knobs::ServeDeadlineNs().value_or(config.deadline_ns);
  config.queue_max = knobs::ServeQueueMax().value_or(config.queue_max);
  if (const std::optional<std::string> ladder = knobs::DegradeLadder()) {
    // The accessor already validated the spec against the same grammar.
    config.ladder.rungs = ParseLadderSpec(*ladder).ValueOrDie();
  }
  config.scorer = retrieval::ScorerConfig::FromEnv();
  return config;
}

RecommendService::RecommendService(seqrec::SasRecModel* model,
                                   const ServeConfig& config)
    : model_(model),
      config_(config),
      queue_(AdmissionConfig{config.queue_max}) {
  WR_CHECK(model != nullptr);
  WR_CHECK(config.top_k > 0);
  WR_CHECK(config.max_batch > 0);
  WR_CHECK(config.refit_every > 0);
  item_table_ = model_->EncodeItems(/*train=*/false);
  scorer_ = retrieval::MakeScorer(config.scorer);
  if (!config_.ladder.rungs.empty()) {
    ladder_ = std::make_unique<DegradationLadder>(config_.ladder);
  }
  rung_served_.assign(std::max<std::size_t>(1, config_.ladder.rungs.size()),
                      0);
  RebuildScorers();
}

void RecommendService::RebuildScorers() {
  scorer_->Rebuild(item_table_);
  ++stats_.index_rebuilds;
  rung_scorers_.clear();
  const std::vector<LadderRung>& rungs = config_.ladder.rungs;
  if (rungs.empty()) return;
  bool any_ivf = false;
  for (const LadderRung& rung : rungs) {
    if (rung.kind == RungKind::kIvf) any_ivf = true;
  }
  if (any_ivf) {
    // One deterministic k-means build feeds every IVF rung's view.
    if (shared_ivf_ == nullptr) {
      shared_ivf_ =
          std::make_unique<retrieval::SharedIvfIndex>(config_.scorer);
    }
    shared_ivf_->Rebuild(item_table_);
  }
  for (const LadderRung& rung : rungs) {
    std::unique_ptr<retrieval::Scorer> scorer;
    switch (rung.kind) {
      case RungKind::kExact:
        // An exact primary is this very backend, already rebuilt above:
        // borrow it (null slot) instead of packing a second table copy.
        if (config_.scorer.kind == retrieval::ScorerKind::kExact) {
          rung_scorers_.push_back(nullptr);
          continue;
        }
        scorer = linalg::MakeExactScorer();
        break;
      case RungKind::kIvf:
        scorer = shared_ivf_->MakeView(rung.nprobe);
        break;
      case RungKind::kPopularity:
        scorer = retrieval::MakePopularityScorer(config_.popularity);
        break;
    }
    scorer->Rebuild(item_table_);
    rung_scorers_.push_back(std::move(scorer));
  }
}

const retrieval::Scorer* RecommendService::RungScorer(
    std::size_t rung) const {
  if (rung_scorers_.empty() || rung_scorers_[rung] == nullptr) {
    return scorer_.get();
  }
  return rung_scorers_[rung].get();
}

void RecommendService::EvictFor(const std::vector<std::uint64_t>& needed) {
  // Sessions the incoming slice will touch (they are about to gain state and
  // must not be evicted from under the batch phase).
  const std::size_t incoming = needed.size();
  if (incoming >= config_.max_cached_sessions) {
    // Cap smaller than one batch: evict everything not in the batch; the
    // batch itself is allowed to exceed the cap transiently.
    for (auto& entry : sessions_) {
      if (entry.second.has_state &&
          std::find(needed.begin(), needed.end(), entry.first) ==
              needed.end()) {
        entry.second.state.Clear();
        entry.second.has_state = false;
        --stateful_sessions_;
        ++stats_.evictions;
      }
    }
    return;
  }
  // Count how many of the needed sessions already hold state; the rest will
  // be created by the batch phase.
  std::size_t already = 0;
  for (std::uint64_t id : needed) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end() && it->second.has_state) ++already;
  }
  const std::size_t after = stateful_sessions_ + (incoming - already);
  if (after <= config_.max_cached_sessions) return;
  std::size_t to_evict = after - config_.max_cached_sessions;

  // LRU among stateful sessions not needed by this slice. The map's
  // iteration order is unspecified, but the victims are chosen by a total
  // order on (last_use, session_id) — last_use is a deterministic request
  // sequence number — so the evicted SET is iteration-order independent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates;
  candidates.reserve(sessions_.size());
  for (const auto& entry : sessions_) {
    if (!entry.second.has_state) continue;
    if (std::find(needed.begin(), needed.end(), entry.first) != needed.end()) {
      continue;
    }
    candidates.emplace_back(entry.second.last_use, entry.first);
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& victim : candidates) {
    if (to_evict == 0) break;
    Session& session = sessions_[victim.second];
    session.state.Clear();
    session.has_state = false;
    --stateful_sessions_;
    ++stats_.evictions;
    --to_evict;
  }
}

void RecommendService::HandleSlice(
    const std::vector<ServeRequest>& requests, std::size_t begin,
    std::size_t end, std::vector<ServeResponse>* responses,
    const retrieval::Scorer* scorer, const retrieval::Scorer* reference,
    std::vector<std::vector<linalg::ScoredItem>>* refs_out) {
  const std::size_t n = end - begin;
  const std::size_t hidden = model_->config().hidden_dim;

  // Serial pre-phase: group the slice's requests by session in first-arrival
  // order and run eviction. Grouping guarantees the parallel phase touches
  // each session from exactly one chunk, in arrival order.
  std::vector<std::uint64_t> order;            // unique session ids
  std::vector<std::vector<std::size_t>> bins;  // request indices per session
  {
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t r = begin; r < end; ++r) {
      const std::uint64_t id = requests[r].session_id;
      WR_CHECK_LT(requests[r].item, item_table_.rows());
      const auto it = slot.find(id);
      if (it == slot.end()) {
        slot.emplace(id, order.size());
        order.push_back(id);
        bins.emplace_back(1, r);
      } else {
        bins[it->second].push_back(r);
      }
    }
  }
  EvictFor(order);

  // Serial plan: advance every window in arrival order and decide, per
  // request, whether it extends the session's K/V state by its one new row
  // or replays the whole window (cold, evicted or invalidated state, or a
  // max_len shift, which moves every position). Request out's segment is
  // positions [start, start + rows) of its window, items from
  // plan_items[items_at...].
  struct Planned {
    std::size_t start = 0;
    std::size_t rows = 0;
    std::size_t items_at = 0;
  };
  const std::size_t max_len = model_->config().max_len;
  std::vector<Session*> sessions(order.size());
  std::vector<Planned> plan(n);
  std::vector<std::size_t> plan_items;
  std::vector<std::size_t> session_rows(order.size(), 0);
  std::vector<std::vector<std::size_t>> exclusions(n);
  std::vector<unsigned char> hit(n, 0);
  std::vector<std::size_t> lens(n, 0);
  std::size_t rounds = 0;
  for (std::size_t s = 0; s < order.size(); ++s) {
    // Entries are materialized here, on the serial path; the map never
    // rehashes under the parallel phase, and element pointers survive
    // rehashing anyway.
    Session& session = sessions_[order[s]];
    sessions[s] = &session;
    rounds = std::max(rounds, bins[s].size());
    bool stateful = session.has_state;
    for (std::size_t r : bins[s]) {
      const std::size_t out = r - begin;
      std::vector<std::size_t>& window = session.window;
      const bool shift = window.size() == max_len;
      if (shift) window.erase(window.begin());
      window.push_back(requests[r].item);
      const bool incremental = stateful && !shift;
      Planned& p = plan[out];
      p.items_at = plan_items.size();
      p.start = incremental ? window.size() - 1 : 0;
      p.rows = window.size() - p.start;
      plan_items.insert(plan_items.end(),
                        window.begin() + static_cast<std::ptrdiff_t>(p.start),
                        window.end());
      session_rows[s] += p.rows;
      stateful = true;
      hit[out] = incremental ? 1 : 0;
      lens[out] = window.size();
      if (config_.exclude_history) {
        exclusions[out] = window;
        std::sort(exclusions[out].begin(), exclusions[out].end());
      }
    }
  }

  // Stacked layout. Sessions are cut into one group per pool thread by row
  // count; a group runs its sessions' segments in rounds — round k holds
  // the k-th request of each of its sessions that has one — and each round
  // is one stacked forward. A session's later requests thus run after its
  // earlier ones, against the state they left. segments/items/answer are
  // laid out launch by launch; answer[i] is the request segment i answers.
  struct Launch {
    std::size_t seg_begin = 0;
    std::size_t seg_end = 0;
    std::size_t item_begin = 0;
    std::size_t item_end = 0;
  };
  const std::vector<std::size_t> groups =
      core::SplitByWeight(session_rows, core::NumThreads());
  const std::size_t num_groups = groups.size() - 1;
  std::vector<nn::KvSegment> segments;
  std::vector<std::size_t> items;
  std::vector<std::size_t> answer;
  std::vector<Launch> launches;
  std::vector<std::size_t> group_launches(1, 0);
  segments.reserve(n);
  answer.reserve(n);
  items.reserve(plan_items.size());
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t k = 0; k < rounds; ++k) {
      Launch launch;
      launch.seg_begin = segments.size();
      launch.item_begin = items.size();
      for (std::size_t s = groups[g]; s < groups[g + 1]; ++s) {
        if (bins[s].size() <= k) continue;
        const std::size_t out = bins[s][k] - begin;
        const Planned& p = plan[out];
        segments.push_back(
            nn::KvSegment{&sessions[s]->state.cache, p.start, p.rows});
        const auto first =
            plan_items.begin() + static_cast<std::ptrdiff_t>(p.items_at);
        items.insert(items.end(), first,
                     first + static_cast<std::ptrdiff_t>(p.rows));
        answer.push_back(out);
      }
      launch.seg_end = segments.size();
      launch.item_end = items.size();
      if (launch.seg_end > launch.seg_begin) launches.push_back(launch);
    }
    group_launches.push_back(launches.size());
  }

  // Parallel phase: one chunk per group. Groups own disjoint sessions and
  // sessions_ is not resized here, so chunks race on nothing; the GEMMs
  // inside run inline on the chunk's thread. No output row depends on
  // which rows share a GEMM, so users is bitwise the same at any thread
  // count, grouping or batch composition.
  Matrix users(n, hidden);
  const std::span<const nn::KvSegment> all_segments(segments);
  const std::span<const std::size_t> all_items(items);
  core::ParallelFor(0, num_groups, 1, [&](std::size_t g0, std::size_t g1) {
    Matrix& answers =
        linalg::ThreadLocalWorkspace().MatRef(linalg::kWsSegAnswers);
    for (std::size_t l = group_launches[g0]; l < group_launches[g1]; ++l) {
      const Launch& launch = launches[l];
      model_->EncodeSegments(
          item_table_,
          all_items.subspan(launch.item_begin,
                            launch.item_end - launch.item_begin),
          all_segments.subspan(launch.seg_begin,
                               launch.seg_end - launch.seg_begin),
          &answers);
      for (std::size_t i = launch.seg_begin; i < launch.seg_end; ++i) {
        const double* row = answers.RowPtr(i - launch.seg_begin);
        std::copy(row, row + hidden, users.RowPtr(answer[i]));
      }
    }
  });

  // Serial post-phase bookkeeping.
  for (Session* session : sessions) {
    if (!session->has_state) {
      session->has_state = true;
      ++stateful_sessions_;
    }
    session->last_use = ++request_seq_;
  }

  // Scoring goes through the Scorer seam (retrieval/scorer.h): exact is the
  // fused streamed-GEMM + O(K) selector pass (the pre-Scorer code verbatim,
  // so default responses are bitwise unchanged); ivf probes the deterministic
  // IVF index and exact-reranks candidates with the same selectors. Either
  // way the (n, num_items) score matrix never exists and the selected set is
  // feed-order independent (strict total order).
  std::vector<linalg::TopKSelector> selectors;
  selectors.reserve(n);
  for (std::size_t r = 0; r < n; ++r) selectors.emplace_back(config_.top_k);
  scorer->TopKBatch(users, exclusions, &selectors);

  // Undegraded baseline: score the SAME user states through the reference
  // scorer. Session state advanced once above; this second scoring pass is
  // stateless, so serving degraded + recording the baseline cannot drift
  // from serving undegraded.
  if (reference != nullptr && refs_out != nullptr) {
    if (reference == scorer) {
      for (std::size_t r = 0; r < n; ++r) {
        refs_out->push_back(selectors[r].SortedDescending());
      }
    } else {
      std::vector<linalg::TopKSelector> ref_selectors;
      ref_selectors.reserve(n);
      for (std::size_t r = 0; r < n; ++r) {
        ref_selectors.emplace_back(config_.top_k);
      }
      reference->TopKBatch(users, exclusions, &ref_selectors);
      for (std::size_t r = 0; r < n; ++r) {
        refs_out->push_back(ref_selectors[r].SortedDescending());
      }
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    ServeResponse& response = (*responses)[begin + r];
    response.topk = selectors[r].SortedDescending();
    response.incremental = hit[r] != 0;
    response.session_len = lens[r];
    if (hit[r] != 0) {
      ++stats_.cache_hits;
    } else {
      ++stats_.recomputes;
    }
  }
  stats_.requests += n;
  ++stats_.batches;
}

ServeResponse RecommendService::Handle(const ServeRequest& request) {
  std::vector<ServeRequest> one(1, request);
  std::vector<ServeResponse> responses(1);
  HandleSlice(one, 0, 1, &responses, scorer_.get(), nullptr, nullptr);
  return std::move(responses[0]);
}

std::vector<ServeResponse> RecommendService::HandleBatch(
    const std::vector<ServeRequest>& requests) {
  std::vector<ServeResponse> responses(requests.size());
  for (std::size_t begin = 0; begin < requests.size();
       begin += config_.max_batch) {
    const std::size_t end =
        std::min(requests.size(), begin + config_.max_batch);
    HandleSlice(requests, begin, end, &responses, scorer_.get(), nullptr,
                nullptr);
  }
  return responses;
}

std::size_t RecommendService::current_rung() const {
  return ladder_ == nullptr ? 0 : ladder_->rung();
}

std::uint64_t RecommendService::Enqueue(const ServeRequest& request,
                                        std::vector<ServeOutcome>* outcomes) {
  WR_CHECK(outcomes != nullptr);
  ServeRequest stamped = request;
  if (stamped.deadline_ns == 0 && config_.deadline_ns > 0) {
    stamped.deadline_ns = stamped.arrival_ns + config_.deadline_ns;
  }
  AdmissionQueue::OfferResult offer = queue_.Offer(stamped);
  if (offer.shed.has_value()) {
    ServeOutcome outcome;
    outcome.seq = offer.shed->seq;
    outcome.kind = ServeOutcomeKind::kShedOverflow;
    outcome.status = Status::Unavailable("admission queue full");
    outcome.request = offer.shed->request;
    outcomes->push_back(std::move(outcome));
    ++stats_.queue_sheds;
  }
  return offer.seq;
}

void RecommendService::ServeQueued(
    std::uint64_t now_ns, std::vector<ServeOutcome>* outcomes,
    std::vector<std::vector<linalg::ScoredItem>>* reference) {
  WR_CHECK(outcomes != nullptr);
  // Per-batch deadline check: a request whose deadline has already passed
  // is dropped HERE, before it can touch session state — a shed request
  // leaves the service bitwise as if it had never arrived.
  for (const AdmittedRequest& dropped : queue_.DropOverdue(now_ns)) {
    ServeOutcome outcome;
    outcome.seq = dropped.seq;
    outcome.kind = ServeOutcomeKind::kShedDeadline;
    outcome.status =
        Status::DeadlineExceeded("deadline passed before service");
    outcome.request = dropped.request;
    outcomes->push_back(std::move(outcome));
    ++stats_.deadline_sheds;
  }
  // The ladder observes the post-drop backlog — the work actually waiting.
  std::size_t rung = 0;
  if (ladder_ != nullptr) rung = ladder_->Observe(queue_.size());
  if (queue_.empty()) return;

  std::vector<AdmittedRequest> admitted = queue_.PopBatch(config_.max_batch);
  std::vector<ServeRequest> requests;
  requests.reserve(admitted.size());
  for (const AdmittedRequest& a : admitted) requests.push_back(a.request);

  const retrieval::Scorer* scorer = RungScorer(rung);
  const retrieval::Scorer* ref_scorer = nullptr;
  if (reference != nullptr) ref_scorer = RungScorer(0);
  std::vector<ServeResponse> responses(requests.size());
  HandleSlice(requests, 0, requests.size(), &responses, scorer, ref_scorer,
              reference);
  rung_served_[rung] += requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServeOutcome outcome;
    outcome.seq = admitted[i].seq;
    outcome.kind = ServeOutcomeKind::kServed;
    outcome.request = requests[i];
    responses[i].rung = rung;
    outcome.response = std::move(responses[i]);
    outcomes->push_back(std::move(outcome));
  }
}

Status RecommendService::EnableIngest(const Matrix& raw_features,
                                      WhiteningKind kind, double epsilon) {
  auto* encoder = dynamic_cast<TextFeatureEncoder*>(model_->encoder());
  if (encoder == nullptr) {
    return Status::InvalidArgument(
        "ingest requires a TextFeatureEncoder-backed model");
  }
  if (raw_features.rows() != encoder->num_items()) {
    return Status::InvalidArgument("raw feature rows != catalog size");
  }
  if (raw_features.rows() < 2) {
    return Status::InvalidArgument("need >= 2 items to fit whitening");
  }
  whiten_options_ = WhiteningOptions();
  whiten_options_.kind = kind;
  whiten_options_.epsilon = epsilon;
  // A rank-truncated encoder's frozen feature table is narrower than the raw
  // catalog (whiten_k < d); refits must reproduce that width or
  // ReplaceFeatures would reject the new table. The encoder itself records
  // the rank, so ingest needs no extra configuration.
  if (encoder->features().cols() < raw_features.cols()) {
    whiten_options_.rank = encoder->features().cols();
  }
  raw_features_ = raw_features;
  whiten_acc_ = IncrementalWhitening(raw_features.cols());
  whiten_acc_.Add(raw_features);
  pending_ingests_ = 0;
  // The armed state IS the first good snapshot: a refit that fails before
  // ever committing rolls back to exactly this accumulator and catalog.
  last_good_acc_ = whiten_acc_;
  last_good_raw_rows_ = raw_features_.rows();
  ingest_enabled_ = true;
  return Status::OK();
}

Status RecommendService::ValidateIngestFeature(
    const std::vector<double>& raw_feature) const {
  if (raw_feature.size() != raw_features_.cols()) {
    return Status::InvalidArgument("raw feature dimension mismatch");
  }
  for (double v : raw_feature) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("raw feature has a non-finite value");
    }
    if (config_.ingest_max_abs > 0.0 &&
        std::abs(v) > config_.ingest_max_abs) {
      return Status::InvalidArgument(
          "raw feature magnitude exceeds ingest_max_abs");
    }
  }
  return Status::OK();
}

void RecommendService::Quarantine(const std::vector<double>& raw_feature,
                                  std::string reason) {
  ++stats_.quarantined;
  if (quarantine_.size() < kQuarantineCap) {
    QuarantinedFeature q;
    q.feature = raw_feature;
    q.reason = std::move(reason);
    quarantine_.push_back(std::move(q));
  }
}

Status RecommendService::RollbackPending(Status cause) {
  // Pending (uncommitted) rows are dropped into quarantine: the guard cannot
  // tell WHICH ingested row poisoned the moments, so everything since the
  // last committed refit is suspect.
  const std::size_t rows = raw_features_.rows();
  for (std::size_t r = last_good_raw_rows_; r < rows; ++r) {
    Quarantine(raw_features_.Row(r), "dropped by refit rollback");
  }
  raw_features_.TruncateRows(last_good_raw_rows_);  // keeps the capacity
  whiten_acc_ = last_good_acc_;
  pending_ingests_ = 0;
  return cause;
}

Status RecommendService::IngestItem(const std::vector<double>& raw_feature) {
  if (!ingest_enabled_) {
    return Status::InvalidArgument("call EnableIngest first");
  }
  // Poisoned-ingest defense: validate BEFORE the feature can touch the
  // whitening moments. A rejected row leaves the accumulator, the catalog,
  // and the scorer bitwise unchanged — only the quarantine records it.
  Status valid = ValidateIngestFeature(raw_feature);
  if (!valid.ok()) {
    Quarantine(raw_feature, valid.message());
    return valid;
  }
  // Append the row to the raw catalog in place (amortized O(d)) and fold it
  // into the streaming whitening statistics (exact Welford update, no
  // rescan).
  raw_features_.AppendRow(raw_feature.data(), raw_feature.size());
  whiten_acc_.Add(raw_features_.RowSlice(raw_features_.rows() - 1,
                                         raw_features_.rows()));
  ++pending_ingests_;
  ++stats_.ingested;
  if (pending_ingests_ >= config_.refit_every) return Refit();
  return Status::OK();
}

Status RecommendService::RefitNow() {
  if (!ingest_enabled_) {
    return Status::InvalidArgument("call EnableIngest first");
  }
  if (pending_ingests_ == 0) return Status::OK();
  return Refit();
}

Status RecommendService::Refit() {
  auto* encoder = dynamic_cast<TextFeatureEncoder*>(model_->encoder());
  WR_CHECK(encoder != nullptr);  // EnableIngest verified this

  // The guard's eigensolve of Σ and the fit's eigensolve of Σ + εI only read
  // the accumulator, so they run as the two chunks of one ParallelFor (inline
  // at one thread). Each is the same pure function of the accumulator it
  // would be alone, and the verdicts are checked below in the serial order:
  // guard first, then fit.
  const bool guarded =
      config_.refit_max_condition > 0.0 || config_.refit_eigen_floor > 0.0;
  std::optional<Result<eval::CovarianceConditioning>> guard;
  std::optional<Result<FittedWhitening>> fitted;
  core::ParallelFor(0, 2, 1, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      if (i == 1) {
        fitted.emplace(whiten_acc_.Fit(whiten_options_));
      } else if (guarded) {
        Result<Matrix> cov = whiten_acc_.CovarianceMatrix();
        if (cov.ok()) {
          guard.emplace(eval::AnalyzeCovarianceConditioning(cov.value()));
        } else {
          guard.emplace(cov.status());
        }
      }
    }
  });

  // Refit guard: a poisoned batch that slipped past the per-row bounds still
  // shows up as a sick covariance (blown condition number or collapsed
  // spectrum). Refuse the refit and roll the pending rows back rather than
  // bake a near-singular transform into the serving path.
  if (guarded) {
    if (!guard->ok()) {
      ++stats_.refit_failures;
      return RollbackPending(guard->status());
    }
    const eval::CovarianceConditioning& cond = guard->value();
    if (config_.refit_max_condition > 0.0 &&
        cond.condition_number > config_.refit_max_condition) {
      ++stats_.refit_failures;
      return RollbackPending(Status::NumericalError(
          "refit guard: covariance condition number exceeds bound"));
    }
    if (config_.refit_eigen_floor > 0.0 &&
        cond.min_eigenvalue < config_.refit_eigen_floor) {
      ++stats_.refit_failures;
      return RollbackPending(Status::NumericalError(
          "refit guard: covariance eigenvalue below floor"));
    }
  }

  if (!fitted->ok()) {
    ++stats_.refit_failures;
    return RollbackPending(fitted->status());
  }
  Matrix whitened = ApplyWhitening(fitted->value(), raw_features_);

  // Versioned swap: the encoder hands its current (last good) feature table
  // back by move as the snapshot, so an interrupted swap can restore it
  // bitwise without a copy.
  Matrix old_features;
  Status replaced =
      encoder->ReplaceFeatures(std::move(whitened), &old_features);
  if (!replaced.ok()) {
    ++stats_.refit_failures;
    return RollbackPending(replaced);
  }

  // Injected failure window (ChaosKind::kRefitFailure): the crash lands at
  // the worst moment — features swapped, table and index not yet rebuilt.
  // Only the encoder's features changed: item_table_ and every scorer still
  // hold the pre-refit state, so restoring the old features is the whole
  // rollback. The restored state is bitwise the pre-refit state, no index
  // is rebuilt, and cached sessions stay valid.
  if (ChaosInjector::Global().Next({ChaosKind::kRefitFailure}) ==
      ChaosKind::kRefitFailure) {
    // RestoreFeatures (not ReplaceFeatures): the catalog must shrink back to
    // the snapshot, and nothing can reference the dropped rows because the
    // swap never became visible to a request.
    Status restored = encoder->RestoreFeatures(std::move(old_features));
    WR_CHECK(restored.ok());
    ++stats_.rollbacks;
    ++stats_.refit_failures;
    return RollbackPending(Status::Unavailable(
        "refit interrupted by injected failure; rolled back to last good "
        "transform"));
  }

  // Commit. The whole item table changed: rebuild it, re-index it, and
  // invalidate every cached session state. Windows are kept — the next
  // request per session replays them against the new table (counted as a
  // recompute, not an error). The scorer rebuild runs on every refit, so the
  // index cadence mirrors the whitening refit cadence and responses stay a
  // pure function of the ingest history. Encode is the inference forward:
  // bitwise EncodeItems(false) without filling the training caches.
  item_table_ = encoder->Encode();
  RebuildScorers();
  for (auto& entry : sessions_) {
    if (entry.second.has_state) {
      entry.second.state.Clear();
      entry.second.has_state = false;
    }
  }
  stateful_sessions_ = 0;
  pending_ingests_ = 0;
  last_good_acc_ = whiten_acc_;
  last_good_raw_rows_ = raw_features_.rows();
  ++table_version_;
  ++stats_.refits;
  return Status::OK();
}

}  // namespace serve
}  // namespace whitenrec
