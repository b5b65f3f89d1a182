#ifndef WHITENREC_SERVE_SERVICE_H_
#define WHITENREC_SERVE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "whitening/incremental_whitening.h"
#include "core/status.h"
#include "whitening/whitening.h"
#include "linalg/matrix.h"
#include "linalg/topk.h"
#include "retrieval/scorer.h"
#include "seqrec/model.h"
#include "serve/admission.h"
#include "serve/degrade.h"

namespace whitenrec {
namespace serve {

// Serving knobs. Defaults() gives the compiled-in values; FromEnv() overlays
// WHITENREC_SERVE_* environment variables (see README.md / DESIGN.md Sec. 9):
//   WHITENREC_SERVE_TOPK            top_k
//   WHITENREC_SERVE_WINDOW_NS       batch_window_ns (micro-batching window)
//   WHITENREC_SERVE_MAX_BATCH       max_batch
//   WHITENREC_SERVE_CACHE_SESSIONS  max_cached_sessions
//   WHITENREC_SERVE_REFIT_EVERY     refit_every
//   WHITENREC_SERVE_DEADLINE_NS     deadline_ns (default request deadline)
//   WHITENREC_SERVE_QUEUE_MAX       queue_max (admission queue bound)
//   WHITENREC_DEGRADE_LADDER        ladder.rungs spec, e.g.
//                                   "exact,ivf:8,ivf:2,popularity"
// plus the retrieval knobs (retrieval/scorer.h): WHITENREC_SCORER selects
// exact fused scoring or the sublinear IVF index, WHITENREC_IVF_CLUSTERS /
// WHITENREC_IVF_NPROBE size it.
// Every value is parsed by its core/knobs accessor (rows in core/knobs.def):
// a malformed or out-of-range value aborts with a message naming the
// variable. FromEnv re-reads the environment on every call.
struct ServeConfig {
  // Recommendations returned per request.
  std::size_t top_k = 10;
  // Sessions allowed to hold live transformer K/V state; beyond this the
  // least-recently-used stateful session is evicted (its next request falls
  // back to a full window recompute — a cost, never a correctness, event).
  std::size_t max_cached_sessions = 4096;
  // Requests coalesced into one fused scoring pass, at most.
  std::size_t max_batch = 256;
  // Micro-batcher flush window on the virtual arrival clock. 0 disables
  // coalescing (every request is its own batch).
  std::uint64_t batch_window_ns = 1000000;  // 1 ms
  // Item-ingest path: refit the whitening transform and rebuild the item
  // table after this many ingested items.
  std::size_t refit_every = 32;
  // Drop items already in the session's window from the recommendations.
  bool exclude_history = true;
  // Top-K scoring backend (exact fused | IVF) and its index knobs. The IVF
  // index is rebuilt deterministically on every ingest refit, so the scorer
  // always indexes the table the model scores against.
  retrieval::ScorerConfig scorer;

  // --- Overload resilience (DESIGN.md §13) --------------------------------
  // Default per-request deadline budget relative to arrival, stamped at
  // Enqueue onto requests that carry none. 0 = no default deadline.
  std::uint64_t deadline_ns = 0;
  // Bound on the admission queue (Enqueue/ServeQueued path only; the direct
  // Handle/HandleBatch calls bypass admission).
  std::size_t queue_max = 1024;
  // Degradation ladder. rungs empty = no ladder: ServeQueued always serves
  // on the primary scorer and labels every response rung 0.
  LadderConfig ladder;
  // Per-item interaction counts backing the ladder's popularity rung (and
  // only that rung); empty counts rank the catalog by item id.
  std::vector<std::size_t> popularity;

  // --- Poisoned-ingest defense (DESIGN.md §13) ----------------------------
  // IngestItem rejects features with any |value| above this bound.
  double ingest_max_abs = 1e6;
  // Refit guard: refuse to refit (and roll the pending ingests back) when
  // the accumulated covariance's condition number exceeds this, or its
  // smallest eigenvalue falls below refit_eigen_floor. 0 disables either
  // check.
  double refit_max_condition = 1e12;
  double refit_eigen_floor = 0.0;

  static ServeConfig Defaults() { return ServeConfig(); }
  static ServeConfig FromEnv();
};

struct ServeResponse {
  // Top-K next-item recommendations in canonical ranking order
  // (linalg::RanksBefore: score desc, item id asc).
  std::vector<linalg::ScoredItem> topk;
  // True when the session's cached hidden state was extended in place;
  // false when the window had to be replayed (cold session, eviction, or
  // max_len truncation shift). Purely informational: responses are bitwise
  // identical either way.
  bool incremental = false;
  // Items in the session window after this request (<= model max_len).
  std::size_t session_len = 0;
  // Ladder rung that served this response (0 = full quality). Always 0 on
  // the direct Handle/HandleBatch path.
  std::size_t rung = 0;
};

// Terminal disposition of a request on the admission-controlled path.
enum class ServeOutcomeKind {
  kServed,        // response holds a real recommendation list
  kShedOverflow,  // shed by the bounded admission queue (kUnavailable)
  kShedDeadline,  // dropped with its deadline already passed (kDeadlineExceeded)
};

struct ServeOutcome {
  std::uint64_t seq = 0;  // admission sequence number (AdmittedRequest::seq)
  ServeOutcomeKind kind = ServeOutcomeKind::kServed;
  Status status;          // OK iff kind == kServed
  ServeRequest request;   // the request this outcome answers
  ServeResponse response; // meaningful iff kind == kServed
};

// Counters since construction / ResetStats(); all updated on the serial
// control path so reads need no synchronization.
struct ServeStats {
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t cache_hits = 0;   // responses served incrementally
  std::size_t recomputes = 0;   // responses that replayed the window
  std::size_t evictions = 0;    // session states dropped by the LRU cap
  std::size_t ingested = 0;     // items accepted by IngestItem
  std::size_t refits = 0;       // whitening refits + item-table rebuilds
  std::size_t index_rebuilds = 0;  // scorer Rebuild calls (construction +
                                   // committed refits; never a rollback)
  std::size_t queue_sheds = 0;     // shed by the bounded admission queue
  std::size_t deadline_sheds = 0;  // dropped overdue before service
  std::size_t quarantined = 0;     // ingest features rejected into quarantine
  std::size_t refit_failures = 0;  // refits refused by the guard or rolled back
  std::size_t rollbacks = 0;       // mid-swap rollbacks (encoder restored)
};

// A rejected ingest feature, kept for offline inspection (capped; the
// counter in ServeStats keeps counting past the cap).
struct QuarantinedFeature {
  std::vector<double> feature;
  std::string reason;
};

// Online recommendation core: holds a trained SASRec model plus its encoded
// item table and answers "session s consumed item i — what next?" requests.
//
// Determinism contract (tests/serving_test.cc): for a fixed model and a
// fixed request trace, responses are bitwise identical whether requests are
// served one at a time or coalesced into micro-batches of any size, at any
// thread count, with any cache capacity. This holds because
//   - per-session state evolves only from that session's own requests, in
//     arrival order (the batch phase parallelizes across sessions, never
//     within one);
//   - the stacked segment forward (seqrec::SasRecModel::EncodeSegments)
//     gives every session's row bitwise what the full window recompute
//     gives it, whether the row extends cached K/V state or replays the
//     window, and whichever other sessions share its GEMMs;
//   - scoring is the canonical GEMM (per-element ascending-k dot products)
//     streamed through the O(K) TopKSelector, so each request's scores
//     never depend on which other requests share its batch.
//
// Threading: Handle/HandleBatch/IngestItem must be called from one thread
// (the micro-batcher); internally each batch runs one core::ParallelFor
// over session groups (DESIGN.md §9). The model is borrowed, not owned, and must outlive the
// service; the service assumes exclusive use of it while serving.
class RecommendService {
 public:
  RecommendService(seqrec::SasRecModel* model, const ServeConfig& config);

  // Serves one request alone (a batch of one).
  ServeResponse Handle(const ServeRequest& request);

  // Serves a micro-batch: one fused GEMM scoring pass over all coalesced
  // requests. Requests beyond max_batch are processed in successive slices
  // (responses are unaffected — see the determinism contract). responses[i]
  // answers requests[i].
  std::vector<ServeResponse> HandleBatch(
      const std::vector<ServeRequest>& requests);

  // --- Admission control + degradation ladder (DESIGN.md §13) -------------
  // The overload-resilient path: requests are offered to a bounded EDF
  // admission queue and served in deadline order by ServeQueued, which also
  // drives the degradation ladder. Shedding, ladder transitions, and rung
  // labels are pure functions of the (request, now_ns) call sequence —
  // bitwise reproducible at any thread count. Same single-caller threading
  // contract as Handle/HandleBatch.

  // Offers the request to the admission queue, stamping the default
  // deadline (config.deadline_ns past arrival) when the request carries
  // none. When the bounded queue sheds — possibly this very request — the
  // victim is appended to *outcomes with kShedOverflow / kUnavailable.
  // Returns the admission seq assigned to `request`.
  std::uint64_t Enqueue(const ServeRequest& request,
                        std::vector<ServeOutcome>* outcomes);

  // Cuts and serves one batch at virtual time now_ns: drops overdue queued
  // requests (kShedDeadline, never touching session state), feeds the
  // post-drop queue depth to the ladder, then pops up to max_batch requests
  // in EDF order and serves them on the current rung (responses carry the
  // rung label). Outcomes append to *outcomes. When `reference` is non-null
  // each served request ALSO gets its rung-0 (undegraded) top-K appended
  // there, computed from the same forward pass — the per-rung quality
  // baseline; session state still advances exactly once.
  void ServeQueued(
      std::uint64_t now_ns, std::vector<ServeOutcome>* outcomes,
      std::vector<std::vector<linalg::ScoredItem>>* reference = nullptr);

  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t current_rung() const;
  // Responses served per rung index (size = max(1, ladder rungs)).
  const std::vector<std::size_t>& rung_served() const { return rung_served_; }

  // --- Online item ingest --------------------------------------------------
  // Arms the ingest path: `raw_features` are the unwhitened text embeddings
  // the catalog was built from (row r = item r), `kind`/`epsilon` the
  // whitening to refit. Requires the model's encoder to be a
  // TextFeatureEncoder (WhitenRec / SASRec^T style).
  Status EnableIngest(const linalg::Matrix& raw_features, WhiteningKind kind,
                      double epsilon);

  // Accepts one new item's raw text embedding. The item becomes scorable at
  // the next refit (every config.refit_every ingests, or RefitNow()), when
  // the whitening transform is refit from the streaming accumulator, the
  // whole catalog re-whitened, the item table rebuilt through the trained
  // projection head, and every cached session state invalidated (their
  // windows replay against the new table on next use).
  //
  // Poisoned-ingest defense: the feature is validated BEFORE it can touch
  // the whitening moments — wrong dimension, non-finite values, and
  // |value| > config.ingest_max_abs are rejected with kInvalidArgument and
  // the offending row goes to quarantine(); the accumulator, catalog, and
  // scorer are bitwise unaffected by a rejected ingest.
  //
  // Cost of an accepted ingest that does not hit the refit boundary: one
  // in-place row append to the raw catalog (amortized O(d); the catalog is
  // never copied) plus the O(d^2) Welford fold, independent of the catalog
  // size. The refit boundary adds one Refit (see RefitNow).
  Status IngestItem(const std::vector<double>& raw_feature);

  // Forces the pending ingests to be folded in immediately.
  //
  // Refits are a guarded, versioned swap (DESIGN.md §13): the refit is
  // refused while the accumulated covariance fails the condition-number /
  // eigenvalue-floor guard, and an interrupted swap (injected
  // ChaosKind::kRefitFailure) restores the last good whitening transform,
  // item table, and index bitwise. Either way the pending ingested rows are
  // quarantined and dropped, the accumulator rolls back to its last good
  // snapshot, and serving continues on the pre-refit state; table_version()
  // advances only on a committed swap.
  Status RefitNow();

  std::size_t num_items() const { return item_table_.rows(); }
  std::size_t pending_ingests() const { return pending_ingests_; }
  std::size_t cached_sessions() const { return stateful_sessions_; }
  std::uint64_t table_version() const { return table_version_; }
  const std::vector<QuarantinedFeature>& quarantine() const {
    return quarantine_;
  }
  const ServeConfig& config() const { return config_; }
  const ServeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ServeStats(); }

 private:
  struct Session {
    std::vector<std::size_t> window;  // last <= max_len items, oldest first
    seqrec::SasRecModel::SessionStepState state;
    bool has_state = false;  // false: cold, evicted, or invalidated
    std::uint64_t last_use = 0;  // request sequence number (deterministic)
  };

  // Serves requests[begin, end) as one coalesced scoring pass through
  // `scorer` (the current rung's backend; the primary scorer on the direct
  // path). When `reference` is non-null the same user states are ALSO
  // scored through it and the resulting top-K lists appended to *refs_out —
  // one forward pass, two scoring passes, so degraded responses and their
  // undegraded baselines stay comparable without replaying sessions.
  void HandleSlice(const std::vector<ServeRequest>& requests,
                   std::size_t begin, std::size_t end,
                   std::vector<ServeResponse>* responses,
                   const retrieval::Scorer* scorer,
                   const retrieval::Scorer* reference,
                   std::vector<std::vector<linalg::ScoredItem>>* refs_out);

  // Evicts LRU session states until the batch's sessions fit the cap.
  // `needed` lists the sessions the current slice is about to touch.
  void EvictFor(const std::vector<std::uint64_t>& needed);

  Status Refit();

  // Rebuilds the primary scorer and every ladder rung scorer over the
  // current item_table_ (construction, refit commit, and rollback).
  void RebuildScorers();
  // The scorer answering at ladder rung `rung` (the primary when no ladder
  // is configured or the rung borrows it).
  const retrieval::Scorer* RungScorer(std::size_t rung) const;

  // Validates an ingest feature against dimension/finiteness/magnitude.
  Status ValidateIngestFeature(const std::vector<double>& raw_feature) const;
  // Records a rejected feature (capped list, uncapped counter).
  void Quarantine(const std::vector<double>& raw_feature, std::string reason);
  // Drops the pending (uncommitted) ingested rows into quarantine, restores
  // the last good accumulator snapshot, and returns `cause`.
  Status RollbackPending(Status cause);

  seqrec::SasRecModel* model_;  // borrowed
  ServeConfig config_;
  // (num_items, d): EncodeItems(false) at construction, then the encoder's
  // bitwise-equal inference forward (TextFeatureEncoder::Encode) on refits.
  linalg::Matrix item_table_;
  // Top-K backend over item_table_ (borrowed by the scorer; Refit() rebuilds
  // the table and immediately re-calls scorer_->Rebuild on it).
  std::unique_ptr<retrieval::Scorer> scorer_;

  std::unordered_map<std::uint64_t, Session> sessions_;
  std::size_t stateful_sessions_ = 0;
  std::uint64_t request_seq_ = 0;  // logical clock for LRU ordering

  // Admission + degradation state (Enqueue/ServeQueued path).
  AdmissionQueue queue_;
  std::unique_ptr<DegradationLadder> ladder_;  // null = no ladder configured
  // One k-means build shared by every IVF rung (retrieval::SharedIvfIndex);
  // null when no rung needs it.
  std::unique_ptr<retrieval::SharedIvfIndex> shared_ivf_;
  // One per ladder rung; null where the rung borrows scorer_ (an exact rung
  // over an exact primary), so the table is packed once, not twice.
  std::vector<std::unique_ptr<retrieval::Scorer>> rung_scorers_;
  std::vector<std::size_t> rung_served_;

  // Ingest state (EnableIngest).
  bool ingest_enabled_ = false;
  WhiteningOptions whiten_options_;
  // Grows in place with the catalog (AppendRow); rollbacks truncate it
  // in place, keeping the capacity.
  linalg::Matrix raw_features_;
  IncrementalWhitening whiten_acc_{1};
  std::size_t pending_ingests_ = 0;
  // Last good snapshot for refit rollback: the accumulator and catalog row
  // count as of the last committed refit (or EnableIngest).
  IncrementalWhitening last_good_acc_{1};
  std::size_t last_good_raw_rows_ = 0;
  std::uint64_t table_version_ = 0;
  std::vector<QuarantinedFeature> quarantine_;

  ServeStats stats_;
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_SERVICE_H_
