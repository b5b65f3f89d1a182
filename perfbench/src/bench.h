// Shared declarations of the serving benchmark (perfbench/): workload
// specs, set-up, the open-loop load generator, the public-API layer replay and
// correctness checks, the span recorder, and the standalone layer probes.
//
// Everything here calls the library through its public headers only; the
// benchmark never changes library code.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/generator.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "retrieval/scorer.h"
#include "seqrec/trainer.h"
#include "serve/latency_histogram.h"
#include "serve/service.h"
#include "serve/traffic.h"

namespace perfbench {

namespace wr = whitenrec;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Host-speed reference (hostspeed.cc). A shared machine's speed drifts by
// tens of percent over seconds to minutes, and every timing of the program
// moves with it. So each timed interval of the end-to-end run is bracketed
// by a fixed reference kernel (benchmark code, independent of the library:
// in-cache fp64 products and a 64 MiB stream), and its times are reported
// at the nominal speed, at which that kernel takes kNominalMs:
//   time_at_nominal = measured_time * kNominalMs / kernel_ms,
// with kernel_ms the mean of the runs before and after the interval.
// Open-loop phases also offer their nominal rate times the factor measured
// just before them, so the service runs at the utilisation it would have on
// the nominal machine.
class HostSpeed {
 public:
  static constexpr double kNominalMs = 17.0;

  // One copy of the kernel per worker thread of the workload, all run at
  // once, so the reference loads as many cores as the service does.
  explicit HostSpeed(std::size_t threads);
  // Runs the reference kernel once; its wall time in ms.
  double KernelMs();
  // Runs body(factor before) between two kernel runs and returns the factor
  // that maps its wall times to nominal speed (below 1 on a slow machine).
  template <typename Body>
  double Bracketed(Body&& body) {
    const double before = KernelMs();
    body(kNominalMs / before);
    return kNominalMs / (0.5 * (before + KernelMs()));
  }

 private:
  struct Lane {
    Lane();
    void Run();
    std::vector<double> a, b, c;
    std::vector<double> stream;
    volatile double sink = 0.0;
  };
  std::vector<Lane> lanes_;
};

// ---------------------------------------------------------------------------
// Workloads (setup.cc). Rates and limits are fixed per workload so a faster
// program meets them more easily; they never scale with a measurement.
struct WorkloadSpec {
  std::string name;
  std::size_t catalog_items = 0;  // 0 keeps the Toys catalog as trained
  std::size_t threads = 1;        // worker pool, capped at nproc
  std::size_t max_batch = 64;
  double ref_rate = 0.0;          // requests/s of the reference slices
  double ref_share = 0.36;        // share of --seconds spent at ref_rate
  double latency_limit_ms = 0.0;  // p99 limit of a sustained rate
  // Reads per interleaved ingest in every phase; 0 = reads only (the
  // workload then runs one refit cycle of ingests as a final probe).
  std::size_t reads_per_ingest = 0;
  // Whole-session bitwise comparison against the layer replay (the catalog
  // never changes before the checked phases end).
  bool bitwise_subset = false;
};

const WorkloadSpec* FindWorkload(const std::string& name);

// Closed-loop requests served before anything is measured (fills the
// session cache and pages in the tables).
constexpr std::size_t kWarmupRequests = 512;
// Share of ingests that are deliberately poisoned and must be quarantined.
constexpr double kPoisonShare = 0.125;
constexpr std::size_t kTopK = 10;

// One complete set-up: Toys data, trained WhitenRec, catalog grown through
// the public whitening/encoder API, and the service over it.
struct Setup {
  wr::data::GeneratedData data;
  std::unique_ptr<wr::seqrec::SasRecRecommender> rec;
  wr::linalg::Matrix raw_catalog;           // raw text features, grown
  std::vector<std::size_t> popularity;      // per-item interaction counts
  // For each catalog item, the original Toys item it counts as for hit@10:
  // itself for Toys items, the nearest Toys item (whitened features) for
  // synthetic ones.
  std::vector<std::size_t> family;
  wr::serve::ServeConfig config;
  std::unique_ptr<wr::serve::RecommendService> service;  // after rec
  double fit_s = 0.0;    // rec->Fit
  double total_s = 0.0;  // whole set-up

  wr::seqrec::SasRecModel* model() { return rec->model(); }
};

std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec);
// Fills setup->family (benchmark bookkeeping, not part of the set-up time).
void AssignFamilies(Setup* setup);
// A service over the set-up's trained model and grown catalog, with ingest
// armed on the raw catalog.
std::unique_ptr<wr::serve::RecommendService> BuildService(Setup* setup);

// ---------------------------------------------------------------------------
// Spans (trace.cc). Kept in memory, written out when the run ends.
struct Span {
  const char* name = "";  // a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t id = 0;      // batch or request id the span belongs to
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  // Records a timed span; returns its index (-1 when disabled).
  std::int64_t Add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent, std::uint64_t id);
  // Makes `parent` the parent of each listed span (recorded before it).
  void Reparent(const std::vector<std::int64_t>& spans, std::int64_t parent);
  const std::vector<Span>& spans() const { return spans_; }
  // Self time per layer (the span name's prefix before the first '.'):
  // each span's duration minus the union of its children's intervals.
  std::map<std::string, double> SelfSecondsByLayer() const;
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Correctness (replay.cc).

// Structural checks on one served response given the session's window
// after the request. Returns "" when it passes.
std::string CheckStructure(const wr::serve::ServeResponse& response,
                           const std::vector<std::size_t>& window,
                           std::size_t num_items);

// Appends `item` to a mirrored window the way the service does (shift when
// the window holds max_len items).
void AppendWindow(std::vector<std::size_t>* window, std::size_t item,
                  std::size_t max_len);

// A served request as the replay needs it.
struct ServedRecord {
  std::uint64_t session = 0;
  std::size_t item = 0;
  bool incremental = false;
  std::vector<wr::linalg::ScoredItem> topk;
};

// Bitwise comparison of two ranked lists ("" when equal).
std::string CompareTopK(const std::vector<wr::linalg::ScoredItem>& served,
                        const std::vector<wr::linalg::ScoredItem>& replayed);

// Self-test: corrupts copies of a verified response and checks that both
// the bitwise comparison and the structural checks flag every corruption.
// Returns "" when every corruption is caught.
std::string SelfTestCorruption(const ServedRecord& verified,
                               const std::vector<std::size_t>& window,
                               std::size_t num_items);

// Layer replay through the public seqrec/linalg API: per-session
// SasRecModel::EncodeSequenceStep (across sessions on core::ParallelFor, as
// the service runs them), then linalg::MakeExactScorer()->TopKBatch over
// the stacked rows with history exclusions, compared bitwise with the
// served top-K. It mirrors the service's step work: a response that was not
// incremental replays the session's whole window.
class LayerReplay {
 public:
  // With `probes`, every replayed row is also scored through the retrieval
  // backends the service can be configured with (IVF at nprobe 8 and 2 over
  // one shared index, and the popularity prior) for offline recall@10 vs
  // exact.
  LayerReplay(Setup* setup, bool probes, Tracer* tracer);

  // Re-derives the item table, scorer and IVF index from the model (at
  // construction and after every refit).
  void Refresh();

  struct BatchResult {
    std::size_t mismatches = 0;
    std::string first_mismatch;
    double step_wall_s = 0.0;
    double score_s = 0.0;
  };
  // Replays one served batch; records are in serve order.
  BatchResult ReplayBatch(const std::vector<ServedRecord>& batch,
                          std::uint64_t batch_id);

  struct Probe {
    std::string name;
    std::size_t nprobe = 0;  // 0 = popularity prior
    double hits = 0.0;       // exact top-10 items the probe also returned
    double total = 0.0;
    std::vector<std::uint64_t> score_ns;  // per replayed batch
    double candidates = 0.0;              // rows scored (IVF only)
    double queries = 0.0;
    double recall() const { return total > 0.0 ? hits / total : 0.0; }
  };
  struct Totals {
    std::vector<std::uint64_t> step_ns;   // per request: its steps
    std::vector<std::uint64_t> score_ns;  // per batch
    std::vector<double> ivf_build_s;      // SharedIvfIndex::Rebuild
    std::size_t requests = 0;
    std::size_t steps = 0;
    double score_flops = 0.0;  // 2*B*N*d summed over batches
    double table_bytes = 0.0;  // N*d*8 summed over batches
  };
  const Totals& totals() const { return totals_; }
  const std::vector<Probe>& probes() const { return probes_; }

 private:
  struct State {
    std::vector<std::size_t> window;
    wr::seqrec::SasRecModel::SessionStepState step;
  };
  std::vector<std::vector<wr::linalg::ScoredItem>> Score(
      const wr::linalg::Scorer& scorer, const wr::linalg::Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions) const;

  Setup* setup_;
  Tracer* tracer_;
  wr::linalg::Matrix table_;
  std::unique_ptr<wr::linalg::Scorer> exact_;
  std::unique_ptr<wr::retrieval::SharedIvfIndex> ivf_;
  std::vector<std::unique_ptr<wr::linalg::Scorer>> probe_scorers_;
  std::vector<Probe> probes_;
  std::unordered_map<std::uint64_t, State> states_;
  Totals totals_;
};

// ---------------------------------------------------------------------------
// Load generator (driver.cc).

struct PhaseStats {
  std::string name;
  double seconds = 0.0;          // wall time of the arrival window
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t served_in_window = 0;  // closed loop: done before the window shut
  std::size_t shed = 0;          // any request not served
  std::size_t check_failures = 0;
  std::size_t batches = 0;
  std::size_t depth_start = 0;    // max queue depth over the first quarter
  std::size_t depth_end = 0;      // queue depth when the arrival window shut
  wr::serve::LatencyHistogram latency;   // due -> ServeQueued return
  wr::serve::LatencyHistogram lag;       // due -> Enqueue
  wr::serve::LatencyHistogram wait;      // due -> ServeQueued start
  wr::serve::LatencyHistogram call;      // ServeQueued duration
  wr::serve::LatencyHistogram visible;   // ingest due -> refit committing it
  double time_scale = 1.0;        // HostSpeed factor around the phase
  std::size_t evictions = 0;      // service counters over the phase
  std::size_t cache_hits = 0;
  std::size_t ingests = 0;
  std::size_t ingest_failures = 0;
  std::size_t labelled = 0;
  std::size_t hits = 0;

  std::size_t failures() const {
    return shed + check_failures + ingest_failures;
  }
  // The queue grew over the phase: its depth when arrivals stopped is well
  // above anything seen in the first quarter.
  bool Backlogged(std::size_t max_batch) const {
    return depth_end > std::max(max_batch, 2 * depth_start);
  }
};

struct DriverOptions {
  bool record_subset = false;     // keep ServedRecords of checked sessions
  std::uint64_t subset_salt = 0;  // seeds which sessions are checked
  LayerReplay* inline_replay = nullptr;  // replay every batch as served
  Tracer* tracer = nullptr;
};

class LoadDriver {
 public:
  LoadDriver(Setup* setup, wr::serve::RecommendService* service,
             const WorkloadSpec& spec, const DriverOptions& options);

  // A fixed number of closed-loop requests (fills caches; not measured).
  void Warmup(std::size_t requests);
  // Poisson arrivals at `rate` for `seconds`, then drains the queue. On
  // ingest workloads one ingest rides on every reads_per_ingest-th read;
  // with record_visibility each accepted ingest is timed until the refit
  // that commits it (see FlushIngests).
  PhaseStats OpenLoop(const std::string& name, double rate, double seconds,
                      std::uint64_t trace_seed, bool record_visibility = false);
  // Commits the timed ingests still pending with RefitNow; failures count
  // against `stats`.
  void FlushIngests(PhaseStats* stats);
  // Keeps the queue at >= max_batch for `seconds`.
  PhaseStats ClosedLoop(const std::string& name, double seconds,
                        std::uint64_t trace_seed);
  // `count` ingests (the poisoned share included) spaced `gap_ms` apart with
  // no reads, then RefitNow; every accepted ingest is timed to visibility.
  PhaseStats IngestProbe(std::size_t count, double gap_ms);

  const std::vector<ServedRecord>& subset_records() const { return subset_; }
  // The first response served, with its session window and the catalog
  // size then (input to the corruption self-test).
  const ServedRecord& sample() const { return sample_; }
  const std::vector<std::size_t>& sample_window() const {
    return sample_window_;
  }
  std::size_t sample_items() const { return sample_items_; }
  const wr::serve::LatencyHistogram& ingest_visible() const {
    return ingest_visible_;
  }
  const wr::serve::LatencyHistogram& ingest_call() const { return ingest_ns_; }
  const wr::serve::LatencyHistogram& refit_call() const { return refit_ns_; }
  std::size_t warmup_failures() const { return warmup_failures_; }
  const std::string& first_failure() const { return first_failure_; }
  // Stops keeping subset records (the catalog is about to change).
  void FreezeSubset() { record_subset_ = false; }
  std::size_t replay_mismatches() const { return replay_mismatches_; }
  double replay_step_wall_s() const { return replay_step_s_; }
  double replay_score_s() const { return replay_score_s_; }
  double replayed_call_s() const { return replayed_call_s_; }

 private:
  struct Ingest {
    std::uint64_t due_ns = 0;
    std::size_t source = 0;  // catalog row it perturbs
    bool poisoned = false;
    std::vector<double> feature;
  };
  struct Pending {
    std::uint64_t due_ns = 0;
    std::size_t label = SIZE_MAX;  // next item of the session, if known
  };

  std::vector<wr::serve::TraceRequest> Trace(std::size_t n, double rate,
                                             std::uint64_t seed) const;
  bool IsChecked(std::uint64_t session) const;
  Ingest MakeIngest(std::uint64_t due_ns);
  void DoIngest(const Ingest& ingest, PhaseStats* stats);
  void CommitVisible(std::uint64_t now_ns, PhaseStats* stats);
  void ServeOnce(PhaseStats* stats);
  void Offer(const wr::serve::TraceRequest& req, std::uint64_t due_ns,
             std::size_t label, std::uint64_t now_ns, PhaseStats* stats);
  void Fail(PhaseStats* stats, const std::string& why);
  std::size_t Family(std::size_t item) const {
    return item < family_.size() ? family_[item] : item;
  }
  // Service counter deltas since `before` (callers must not reset stats
  // inside a phase).
  void CountService(const wr::serve::ServeStats& before,
                    PhaseStats* stats) const;

  Setup* setup_;
  wr::serve::RecommendService* service_;
  WorkloadSpec spec_;
  DriverOptions options_;
  bool record_subset_;
  std::size_t max_len_;
  std::size_t base_items_;
  // Item -> original Toys item it derives from, extended as ingests commit.
  std::vector<std::size_t> family_;
  // Ingested rows are part of the catalog, not the traffic: one fixed stream
  // per workload, independent of the run seed.
  wr::linalg::Rng ingest_rng_{0x1a9e57};

  std::unordered_map<std::uint64_t, Pending> pending_;  // by admission seq
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> windows_;
  std::vector<wr::serve::ServeOutcome> outcomes_;
  std::vector<ServedRecord> batch_records_;
  std::vector<ServedRecord> subset_;
  ServedRecord sample_;
  std::vector<std::size_t> sample_window_;
  std::size_t sample_items_ = 0;
  bool recording_visibility_ = false;
  std::vector<std::uint64_t> visible_wait_;  // due times of pending ingests
  wr::serve::LatencyHistogram ingest_visible_;
  wr::serve::LatencyHistogram ingest_ns_;
  wr::serve::LatencyHistogram refit_ns_;
  std::uint64_t ingest_counter_ = 0;  // span ids of ingests
  std::size_t accepted_total_ = 0;
  std::size_t warmup_failures_ = 0;
  std::string first_failure_;
  std::uint64_t batch_counter_ = 0;
  std::uint64_t replay_version_ = 0;
  std::size_t replay_mismatches_ = 0;
  double replay_step_s_ = 0.0;
  double replay_score_s_ = 0.0;
  double replayed_call_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Standalone layer probes (probes.cc).
double ProbeGemmPeakGflops();                         // MatMulTransBInto
double ProbeParallelDispatchUs(std::size_t threads);  // trivial ParallelFor
struct WhiteningProbe {
  double accumulate_us = 0.0;  // IncrementalWhitening::Add of one row
  double fit_ms = 0.0;         // IncrementalWhitening::Fit
  double apply_ms = 0.0;       // ApplyWhitening over the grown catalog
};
WhiteningProbe ProbeWhitening(const wr::linalg::Matrix& raw_catalog);
double ProbeEncodeItemsMs(wr::seqrec::SasRecModel* model);

// Resident-set peak of this process in MiB (VmHWM).
double PeakRssMb();

double Median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double QuantileMs(const wr::serve::LatencyHistogram& h, double q);
// `h` with every sample multiplied by `factor` (bucket lower bounds, so
// within the histogram's 1/128 relative error).
wr::serve::LatencyHistogram ScaledHistogram(
    const wr::serve::LatencyHistogram& h, double factor);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
