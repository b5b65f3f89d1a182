// Open-loop load generator. One thread generates the arrivals and calls the
// service (RecommendService is single-caller): each loop iteration offers
// every request that is due, runs every ingest that is due, then serves one
// batch through ServeQueued. Latency runs from a request's due time to the
// return of the ServeQueued call that answered it, so a stall that delays
// later offers counts against them.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {
namespace {

using wr::serve::ServeOutcome;
using wr::serve::ServeOutcomeKind;
using wr::serve::TraceRequest;

constexpr std::size_t kNoLabel = SIZE_MAX;

// Next item of the same session later in the trace (the hit@10 label).
std::vector<std::size_t> NextItemLabels(const std::vector<TraceRequest>& t) {
  std::vector<std::size_t> labels(t.size(), kNoLabel);
  std::unordered_map<std::uint64_t, std::size_t> next;
  for (std::size_t i = t.size(); i-- > 0;) {
    const auto it = next.find(t[i].session_id);
    if (it != next.end()) labels[i] = it->second;
    next[t[i].session_id] = t[i].item;
  }
  return labels;
}

// Waits until the steady clock reaches `target_ns` by spinning: a sleeping
// generator thread lets its vCPU idle, and waking it again costs far more
// jitter than the arrival gaps being timed.
void WaitUntil(std::uint64_t target_ns) {
  while (NowNs() < target_ns) {
  }
}

}  // namespace

LoadDriver::LoadDriver(Setup* setup, wr::serve::RecommendService* service,
                       const WorkloadSpec& spec, const DriverOptions& options)
    : setup_(setup),
      service_(service),
      spec_(spec),
      options_(options),
      record_subset_(options.record_subset),
      max_len_(setup->model()->config().max_len),
      base_items_(service->num_items()),
      family_(setup->family) {}

bool LoadDriver::IsChecked(std::uint64_t session) const {
  // A seeded eighth of all sessions, chosen by a mixed hash.
  std::uint64_t x = session ^ (options_.subset_salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return (x & 7) == 0;
}

std::vector<TraceRequest> LoadDriver::Trace(std::size_t n, double rate,
                                            std::uint64_t seed) const {
  wr::serve::TrafficConfig tc;
  tc.num_sessions = setup_->data.dataset.sequences.size();
  tc.num_requests = n;
  tc.zipf_exponent = 1.0;
  tc.mean_interarrival_ns = 1e9 / rate;
  tc.seed = seed;
  return wr::serve::GenerateTrace(setup_->data.dataset.sequences, tc);
}

LoadDriver::Ingest LoadDriver::MakeIngest(std::uint64_t due_ns) {
  wr::linalg::Rng* rng = &ingest_rng_;
  Ingest ing;
  ing.due_ns = due_ns;
  const wr::linalg::Matrix& raw = setup_->raw_catalog;
  const std::size_t d = raw.cols();
  ing.poisoned = rng->Uniform() < kPoisonShare;
  const std::size_t src = rng->UniformInt(raw.rows());
  ing.source = src;
  ing.feature = raw.Row(src);
  for (std::size_t c = 0; c < d; ++c) ing.feature[c] += 0.01 * rng->Gaussian();
  if (ing.poisoned) {
    // Each kind of poison the ingest defense must stop before the row can
    // touch the whitening moments.
    switch (rng->UniformInt(3)) {
      case 0:
        ing.feature[rng->UniformInt(d)] = std::nan("");
        break;
      case 1:
        ing.feature[rng->UniformInt(d)] = 1e9;
        break;
      default:
        ing.feature.pop_back();
        break;
    }
  }
  return ing;
}

void LoadDriver::Fail(PhaseStats* stats, const std::string& why) {
  ++stats->check_failures;
  if (first_failure_.empty()) first_failure_ = stats->name + ": " + why;
}

void LoadDriver::DoIngest(const Ingest& ingest, PhaseStats* stats) {
  ++stats->ingests;
  ++ingest_counter_;
  const std::uint64_t version = service_->table_version();
  const std::size_t quarantined = service_->stats().quarantined;
  Tracer* tracer = options_.tracer;
  const std::uint64_t t0 = NowNs();
  const wr::Status st = service_->IngestItem(ingest.feature);
  const std::uint64_t t1 = NowNs();
  const bool refit = service_->table_version() != version;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Add(refit ? "serve.refit" : "serve.ingest", t0, t1, -1,
                ingest_counter_);
  }
  (refit ? refit_ns_ : ingest_ns_).Record(t1 - t0);
  bool expected = false;
  if (ingest.poisoned) {
    expected = st.code() == wr::StatusCode::kInvalidArgument &&
               service_->stats().quarantined == quarantined + 1 && !refit;
  } else {
    expected = st.ok();
    if (expected) {
      ++accepted_total_;
      family_.push_back(Family(ingest.source));
      if (recording_visibility_) visible_wait_.push_back(ingest.due_ns);
    }
  }
  if (!expected) {
    ++stats->ingest_failures;
    if (first_failure_.empty()) {
      first_failure_ = stats->name + ": unexpected ingest outcome '" +
                       st.message() + "'";
    }
  }
  if (refit) CommitVisible(t1, stats);
}

void LoadDriver::CommitVisible(std::uint64_t now_ns, PhaseStats* stats) {
  for (std::uint64_t due : visible_wait_) {
    ingest_visible_.Record(now_ns - due);
    stats->visible.Record(now_ns - due);
  }
  visible_wait_.clear();
  // Every accepted row, and no quarantined one, is in the catalog.
  if (service_->num_items() != base_items_ + accepted_total_ -
                                   service_->pending_ingests()) {
    Fail(stats, "catalog size after refit does not match accepted ingests");
  }
}

void LoadDriver::FlushIngests(PhaseStats* stats) {
  if (service_->pending_ingests() == 0) {
    visible_wait_.clear();
    return;
  }
  const std::uint64_t version = service_->table_version();
  const std::uint64_t t0 = NowNs();
  const wr::Status st = service_->RefitNow();
  const std::uint64_t t1 = NowNs();
  refit_ns_.Record(t1 - t0);
  if (!st.ok() || service_->table_version() == version) {
    Fail(stats, "RefitNow failed: " + st.message());
    return;
  }
  CommitVisible(t1, stats);
}

void LoadDriver::Offer(const TraceRequest& req, std::uint64_t due_ns,
                       std::size_t label, std::uint64_t now_ns,
                       PhaseStats* stats) {
  ++stats->offered;
  stats->lag.Record(now_ns > due_ns ? now_ns - due_ns : 0);
  wr::serve::ServeRequest r;
  r.session_id = req.session_id;
  r.item = req.item;
  r.arrival_ns = due_ns;
  outcomes_.clear();
  const std::uint64_t seq = service_->Enqueue(r, &outcomes_);
  pending_[seq] = Pending{due_ns, label};
  for (const ServeOutcome& o : outcomes_) {
    ++stats->shed;
    pending_.erase(o.seq);
    if (first_failure_.empty()) first_failure_ = stats->name + ": queue shed";
  }
}

void LoadDriver::ServeOnce(PhaseStats* stats) {
  if (options_.inline_replay != nullptr &&
      service_->table_version() != replay_version_) {
    options_.inline_replay->Refresh();
    replay_version_ = service_->table_version();
  }
  const std::size_t num_items = service_->num_items();
  outcomes_.clear();
  const std::uint64_t call_start = NowNs();
  service_->ServeQueued(call_start, &outcomes_);
  const std::uint64_t call_end = NowNs();
  ++stats->batches;
  ++batch_counter_;
  stats->call.Record(call_end - call_start);
  Tracer* tracer = options_.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Add("serve.serve_queued", call_start, call_end, -1,
                batch_counter_);
  }
  batch_records_.clear();
  for (ServeOutcome& o : outcomes_) {
    const auto it = pending_.find(o.seq);
    if (it == pending_.end()) {
      Fail(stats, "outcome for an unknown request");
      continue;
    }
    const Pending p = it->second;
    pending_.erase(it);
    if (o.kind != ServeOutcomeKind::kServed) {
      ++stats->shed;
      if (first_failure_.empty()) first_failure_ = stats->name + ": shed";
      continue;
    }
    ++stats->served;
    const std::uint64_t latency = call_end - p.due_ns;
    stats->latency.Record(latency);
    stats->wait.Record(call_start > p.due_ns ? call_start - p.due_ns : 0);
    std::vector<std::size_t>& window = windows_[o.request.session_id];
    AppendWindow(&window, o.request.item, max_len_);
    const std::string bad = CheckStructure(o.response, window, num_items);
    if (!bad.empty()) Fail(stats, bad);
    if (sample_items_ == 0 && bad.empty()) {
      sample_.session = o.request.session_id;
      sample_.item = o.request.item;
      sample_.topk = o.response.topk;
      sample_window_ = window;
      sample_items_ = num_items;
    }
    if (p.label != kNoLabel) {
      ++stats->labelled;
      for (const wr::linalg::ScoredItem& s : o.response.topk) {
        if (Family(s.item) == Family(p.label)) {
          ++stats->hits;
          break;
        }
      }
    }
    const bool checked = record_subset_ && IsChecked(o.request.session_id);
    if (checked || options_.inline_replay != nullptr) {
      ServedRecord rec;
      rec.session = o.request.session_id;
      rec.item = o.request.item;
      rec.incremental = o.response.incremental;
      rec.topk = std::move(o.response.topk);
      if (options_.inline_replay != nullptr) {
        batch_records_.push_back(rec);
      }
      if (checked) subset_.push_back(std::move(rec));
    }
  }
  if (options_.inline_replay != nullptr && !batch_records_.empty()) {
    const LayerReplay::BatchResult r =
        options_.inline_replay->ReplayBatch(batch_records_, batch_counter_);
    replay_step_s_ += r.step_wall_s;
    replay_score_s_ += r.score_s;
    replayed_call_s_ += static_cast<double>(call_end - call_start) * 1e-9;
    if (r.mismatches > 0) {
      replay_mismatches_ += r.mismatches;
      stats->check_failures += r.mismatches;
      if (first_failure_.empty()) {
        first_failure_ = stats->name + ": layer replay differs: " +
                         r.first_mismatch;
      }
    }
  }
}

void LoadDriver::CountService(const wr::serve::ServeStats& before,
                              PhaseStats* stats) const {
  const wr::serve::ServeStats& after = service_->stats();
  stats->evictions = after.evictions - before.evictions;
  stats->cache_hits = after.cache_hits - before.cache_hits;
}

void LoadDriver::Warmup(std::size_t requests) {
  PhaseStats stats;
  stats.name = "warmup";
  // The warm-up trace is fixed: it sets the session windows the reference
  // slices start from.
  const std::vector<TraceRequest> trace = Trace(requests, 1e6, 0x77a3);
  std::size_t i = 0;
  while (i < trace.size() || service_->queue_depth() > 0) {
    while (i < trace.size() && service_->queue_depth() < spec_.max_batch) {
      const std::uint64_t now = NowNs();
      Offer(trace[i++], now, kNoLabel, now, &stats);
    }
    ServeOnce(&stats);
  }
  warmup_failures_ += stats.failures();
}

PhaseStats LoadDriver::ClosedLoop(const std::string& name, double seconds,
                                  std::uint64_t trace_seed) {
  const wr::serve::ServeStats before = service_->stats();
  PhaseStats stats;
  stats.name = name;
  constexpr std::size_t kChunk = 1 << 16;
  std::uint64_t chunk = 0;
  std::vector<TraceRequest> trace =
      Trace(kChunk, 1e6, trace_seed + 1000003 * chunk++);
  std::vector<std::size_t> labels = NextItemLabels(trace);
  std::size_t i = 0;
  std::size_t reads = 0;
  const std::uint64_t t0 = NowNs();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t served_in_window = 0;
  std::uint64_t last_in_window = t0;
  std::uint64_t now = t0;
  while (now < end) {
    while (service_->queue_depth() < spec_.max_batch) {
      if (i == trace.size()) {
        trace = Trace(kChunk, 1e6, trace_seed + 1000003 * chunk++);
        labels = NextItemLabels(trace);
        i = 0;
      }
      now = NowNs();
      Offer(trace[i], now, labels[i], now, &stats);
      ++i;
      if (spec_.reads_per_ingest > 0 && ++reads % spec_.reads_per_ingest == 0) {
        DoIngest(MakeIngest(now), &stats);
      }
    }
    ServeOnce(&stats);
    now = NowNs();
    if (now <= end) {
      served_in_window = stats.served;
      last_in_window = now;
    }
  }
  while (service_->queue_depth() > 0) ServeOnce(&stats);
  // Capacity counts what completed inside the window, over the time up to
  // the last completion there (whole batches, so no batch-size rounding).
  stats.served_in_window = served_in_window;
  stats.seconds = static_cast<double>(last_in_window - t0) * 1e-9;
  CountService(before, &stats);
  return stats;
}

PhaseStats LoadDriver::OpenLoop(const std::string& name, double rate,
                                double seconds, std::uint64_t trace_seed,
                                bool record_visibility) {
  const wr::serve::ServeStats before = service_->stats();
  PhaseStats stats;
  stats.name = name;
  const std::uint64_t window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t n = static_cast<std::size_t>(rate * seconds * 1.25) + 64;
  const std::vector<TraceRequest> trace = Trace(n, rate, trace_seed);
  const std::vector<std::size_t> labels = NextItemLabels(trace);

  // Ingests ride on the read stream: one per reads_per_ingest reads, due
  // with that read.
  std::vector<Ingest> ingests;
  if (spec_.reads_per_ingest > 0) {
    for (std::size_t r = spec_.reads_per_ingest - 1; r < trace.size();
         r += spec_.reads_per_ingest) {
      if (trace[r].arrival_ns >= window_ns) break;
      ingests.push_back(MakeIngest(trace[r].arrival_ns));
    }
  }
  recording_visibility_ = record_visibility;

  const std::uint64_t t0 = NowNs();
  for (Ingest& ing : ingests) ing.due_ns += t0;
  std::size_t i = 0;
  std::size_t k = 0;
  bool window_open = true;
  for (;;) {
    const std::uint64_t now = NowNs();
    const std::uint64_t rel = now - t0;
    if (window_open && rel >= window_ns) {
      window_open = false;
      stats.depth_end = service_->queue_depth();
    }
    while (i < trace.size() && trace[i].arrival_ns <= rel &&
           trace[i].arrival_ns < window_ns) {
      Offer(trace[i], t0 + trace[i].arrival_ns, labels[i], now, &stats);
      ++i;
    }
    while (k < ingests.size() && ingests[k].due_ns <= now) {
      DoIngest(ingests[k++], &stats);
    }
    const bool reads_done =
        i >= trace.size() || trace[i].arrival_ns >= window_ns;
    const bool ingests_done = k >= ingests.size();
    if (service_->queue_depth() > 0) {
      if (rel < window_ns / 4) {
        stats.depth_start =
            std::max(stats.depth_start, service_->queue_depth());
      }
      ServeOnce(&stats);
      continue;
    }
    if (reads_done && ingests_done && !window_open) break;
    std::uint64_t next = t0 + window_ns;
    if (!reads_done) next = std::min(next, t0 + trace[i].arrival_ns);
    if (!ingests_done) next = std::min(next, ingests[k].due_ns);
    WaitUntil(next);
  }
  stats.seconds = static_cast<double>(window_ns) * 1e-9;
  recording_visibility_ = false;
  CountService(before, &stats);
  return stats;
}

PhaseStats LoadDriver::IngestProbe(std::size_t count, double gap_ms) {
  PhaseStats stats;
  stats.name = "ingest-probe";
  recording_visibility_ = true;
  const std::uint64_t t0 = NowNs();
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(k + 1) * gap_ms *
                                        1e6);
    WaitUntil(due);
    DoIngest(MakeIngest(due), &stats);
  }
  FlushIngests(&stats);
  recording_visibility_ = false;
  stats.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return stats;
}

}  // namespace perfbench
