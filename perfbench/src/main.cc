// Serving benchmark entry point: the end-to-end and the traced run.
//
//   perfbench_serving --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--record-dir <dir>] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics (set-up, open-loop latency at
// the workload's reference rate, closed-loop capacity, the sustained rate on
// a fixed geometric grid, hit@10, ingest visibility, peak RSS).
// --trace 1 measures the per-layer metrics: serve-side spans on one service
// and, on a fresh service, a public-API replay of every served batch.
// Either way the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a run record (CPU model and flags, sizes, per-phase detail) goes to
// --record-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/check.h"
#include "core/parallel.h"
#include "whitening/whiten_encoder.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string record_dir = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_serving: %s\nusage: perfbench_serving --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--record-dir <dir>] [--git-sha <sha>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds >= 1.0 && a.seconds <= 600.0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--record-dir") {
      a.record_dir = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0.0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// Tiny JSON object writer (insertion ordered, values pre-rendered).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string out = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return Raw(key, out + "\"");
  }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  Json& Raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// A JSON array of rendered values.
std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ", ";
    out += item;
  }
  out += "]";
  return out;
}

// Metrics in BENCHMARK.json order, with units.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    json_.Obj(name, Json().Num("value", value).Str("unit", unit));
  }
  const Json& json() const { return json_; }

 private:
  Json json_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CpuFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      std::string found;
      for (const char* f : {"avx2", "fma", "avx512f", "avx512_vnni",
                            "avx_vnni", "avx512_bf16"}) {
        std::istringstream words(line.substr(line.find(':') + 1));
        std::string w;
        while (words >> w) {
          if (w == f) {
            found += found.empty() ? w : " " + w;
            break;
          }
        }
      }
      return found;
    }
  }
  return "";
}

double P99Ms(const PhaseStats& p) { return QuantileMs(p.latency, 0.99); }

// Sample count, p50, p99, and the highest percentile with at least ten
// samples beyond it.
Json LatencyJson(const wr::serve::LatencyHistogram& h) {
  Json j;
  j.Int("samples", h.count())
      .Num("p50_ms", QuantileMs(h, 0.5))
      .Num("p99_ms", QuantileMs(h, 0.99));
  const double n = static_cast<double>(h.count());
  if (n >= 20.0) {
    const double q = 1.0 - 10.0 / n;
    j.Num("tail_quantile", q).Num("tail_ms", QuantileMs(h, q));
  }
  return j;
}

Json PhaseJson(const PhaseStats& p) {
  Json j;
  j.Str("name", p.name)
      .Num("seconds", p.seconds)
      .Num("time_scale", p.time_scale)
      .Int("offered", p.offered)
      .Int("served", p.served)
      .Int("failures", p.failures())
      .Int("batches", p.batches)
      .Obj("latency", LatencyJson(p.latency))
      .Obj("visible", LatencyJson(p.visible))
      .Num("lag_p99_ms", QuantileMs(p.lag, 0.99))
      .Num("wait_p99_ms", QuantileMs(p.wait, 0.99))
      .Num("call_p50_ms", QuantileMs(p.call, 0.5))
      .Num("call_p99_ms", QuantileMs(p.call, 0.99))
      .Num("call_max_ms", static_cast<double>(p.call.max()) * 1e-6)
      .Int("depth_start", p.depth_start)
      .Int("depth_end", p.depth_end)
      .Int("ingests", p.ingests)
      .Int("labelled", p.labelled)
      .Int("hits", p.hits)
      .Int("evictions", p.evictions)
      .Int("cache_hits", p.cache_hits);
  return j;
}

// p99 robust to a stall of the machine: the reference slices of each round,
// each at nominal speed, are pooled, and the result is the median of the
// rounds' p99.
double RoundP99Ms(const std::vector<PhaseStats>& slices,
                  std::size_t slices_per_round) {
  std::vector<double> p99;
  for (std::size_t i = 0; i < slices.size(); i += slices_per_round) {
    wr::serve::LatencyHistogram round;
    for (std::size_t j = i; j < std::min(slices.size(), i + slices_per_round);
         ++j) {
      round.Merge(ScaledHistogram(slices[j].latency, slices[j].time_scale));
    }
    p99.push_back(QuantileMs(round, 0.99));
  }
  return Median(p99);
}

// Fixed geometric grid of offered rates: 100 * 2^(k/kGridSteps) requests/s.
constexpr double kGridSteps = 32.0;
double GridRate(int k) { return 100.0 * std::pow(2.0, k / kGridSteps); }

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void Add(const PhaseStats& p) {
    attempted += p.offered + p.ingests;
    failed += p.failures();
  }
};

struct SubsetCheck {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::string first;
};

// Replays the recorded subset sessions through the layer API and compares
// every response bitwise.
SubsetCheck CheckSubset(const std::vector<ServedRecord>& records,
                        LayerReplay* replay) {
  SubsetCheck check;
  std::vector<ServedRecord> chunk;
  for (std::size_t i = 0; i < records.size(); ++i) {
    chunk.push_back(records[i]);
    if (chunk.size() < 64 && i + 1 < records.size()) continue;
    const LayerReplay::BatchResult r = replay->ReplayBatch(chunk, i);
    check.compared += chunk.size();
    check.mismatches += r.mismatches;
    if (r.mismatches > 0 && check.first.empty()) check.first = r.first_mismatch;
    chunk.clear();
  }
  return check;
}

// The corruption self-test on a response the run served and checked.
std::string SelfTest(const LoadDriver& driver) {
  if (driver.sample_items() == 0) return "no served response to corrupt";
  return SelfTestCorruption(driver.sample(), driver.sample_window(),
                            driver.sample_items());
}

// Ingest probe on reads-only workloads: enough ingests for one automatic
// refit (the poisoned share included), 10 ms apart.
PhaseStats RunIngestProbe(const Setup& setup, LoadDriver* driver) {
  const std::size_t count = static_cast<std::size_t>(
      std::ceil(static_cast<double>(setup.config.refit_every) /
                (1.0 - kPoisonShare)));
  return driver->IngestProbe(count, 10.0);
}

struct Common {
  Args args;
  WorkloadSpec spec;
  std::size_t threads = 1;
  Json record;
};

int RunEndToEnd(Common* c) {
  const WorkloadSpec& spec = c->spec;
  const double T = c->args.seconds;
  const std::uint64_t seed = c->args.seed;

  // A shared machine's speed can drift by tens of percent over seconds to
  // minutes and stall for up to tens of milliseconds, so the measurement is
  // spread over the whole run and reported as medians: three rounds of
  // (capacity slice, three reference slices, capacity slice), with the
  // second and third set-up timings (those set-ups are built and dropped;
  // the first one serves) between them. Every timed interval is bracketed by
  // the host-speed reference and reported at nominal speed; the raw values
  // and factors go to the run record.
  constexpr int kRounds = 3;
  constexpr int kRefSlices = 3;  // per round
  HostSpeed host(c->threads);
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::vector<double> setup_scale;
  std::unique_ptr<Setup> setup;
  auto timed_setup = [&](bool keep) {
    double raw = 0.0;
    setup_scale.push_back(host.Bracketed([&](double) {
      std::unique_ptr<Setup> built = BuildSetup(spec);
      raw = built->total_s;
      if (keep) setup = std::move(built);
    }));
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw * setup_scale.back());
  };
  timed_setup(/*keep=*/true);
  AssignFamilies(setup.get());
  c->record.Int("catalog_items", setup->service->num_items())
      .Int("sessions", setup->data.dataset.sequences.size());

  DriverOptions opts;
  opts.record_subset = spec.bitwise_subset;
  opts.subset_salt = seed;
  LoadDriver driver(setup.get(), setup->service.get(), spec, opts);
  Tally tally;
  driver.Warmup(kWarmupRequests);

  const bool ref_visibility = spec.reads_per_ingest > 0;
  std::vector<PhaseStats> caps;
  std::vector<PhaseStats> refs;
  std::vector<double> capacity_r;
  // Reference latency pooled over the slices, raw and at nominal speed.
  wr::serve::LatencyHistogram latency;
  wr::serve::LatencyHistogram latency_nominal;
  auto capacity_slice = [&](std::uint64_t k) {
    PhaseStats p;
    const double f = host.Bracketed([&](double) {
      p = driver.ClosedLoop("capacity", 0.04 * T, seed * 16 + 2 + k);
    });
    p.time_scale = f;
    tally.Add(p);
    capacity_r.push_back(static_cast<double>(p.served_in_window) / p.seconds /
                         f);
    caps.push_back(std::move(p));
  };
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    if (r > 0) timed_setup(/*keep=*/false);
    capacity_slice(7919 * r);
    for (std::uint64_t j = 0; j < kRefSlices; ++j) {
      PhaseStats p;
      const double f = host.Bracketed([&](double speed) {
        p = driver.OpenLoop("reference", spec.ref_rate * speed,
                            spec.ref_share * T / (kRounds * kRefSlices),
                            seed * 16 + 1 + 7919 * r + 104729 * j,
                            ref_visibility);
        if (ref_visibility && j + 1 == kRefSlices) driver.FlushIngests(&p);
      });
      p.time_scale = f;
      tally.Add(p);
      latency.Merge(p.latency);
      latency_nominal.Merge(ScaledHistogram(p.latency, f));
      refs.push_back(std::move(p));
    }
    capacity_slice(7919 * r + 1);
  }
  std::fprintf(stderr,
               "[perfbench] set-up %.3f s at nominal speed (median of %d)\n",
               Median(setup_s), kRounds);
  const double capacity = Median(capacity_r);
  const double p99 = RoundP99Ms(refs, kRefSlices);
  std::fprintf(stderr,
               "[perfbench] at nominal speed: capacity %.1f/s, reference "
               "%.0f/s: p50 %.3f p99 %.3f ms over %llu samples\n",
               capacity, spec.ref_rate, QuantileMs(latency_nominal, 0.5), p99,
               static_cast<unsigned long long>(latency.count()));

  // Sustained rate: bisection over the fixed grid between 0.75x and 1.05x
  // the measured capacity (stepping down from 0.75x if nothing passes); a
  // probe passes when p99 meets the limit, nothing fails and the queue does
  // not grow.
  std::vector<std::string> grid;
  int lo = static_cast<int>(
      std::floor(kGridSteps * std::log2(0.75 * capacity / 100.0)));
  int hi = static_cast<int>(
      std::ceil(kGridSteps * std::log2(1.05 * capacity / 100.0)));
  lo = std::max(lo, 0);
  hi = std::max(hi, lo + 1);
  const double probe_s = 0.07 * T;
  double sustained = 0.0;
  bool lo_measured = false;
  // One probe of rate k; a failed probe gets one more try on a fresh trace,
  // so a passing slowdown of the machine does not end the search low.
  // A probe offers the grid rate at nominal speed (times the factor measured
  // before it); the sustained rate is the served rate of the highest passing
  // probe over that factor.
  auto probe = [&](int k) {
    for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
      PhaseStats p;
      double offered_speed = 1.0;
      const double f = host.Bracketed([&](double speed) {
        offered_speed = speed;
        p = driver.OpenLoop("grid", GridRate(k) * speed, probe_s,
                            seed * 16 + 3 +
                                1000003 * static_cast<std::uint64_t>(k) +
                                7919 * attempt);
      });
      tally.Add(p);
      const bool pass = P99Ms(p) * f <= spec.latency_limit_ms &&
                        p.failures() == 0 && !p.Backlogged(spec.max_batch);
      const double served_rate = static_cast<double>(p.served) / p.seconds;
      grid.push_back(Json()
                       .Num("rate", GridRate(k))
                       .Num("served_rate", served_rate)
                       .Num("p99_ms", P99Ms(p))
                       .Num("time_scale", f)
                       .Num("offered_speed", offered_speed)
                       .Int("depth_start", p.depth_start)
                       .Int("depth_end", p.depth_end)
                       .Bool("pass", pass)
                       .str());
      if (pass) {
        sustained = served_rate / offered_speed;
        return true;
      }
    }
    return false;
  };
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (probe(mid)) {
      lo = mid;
      lo_measured = true;
    } else {
      hi = mid;
    }
  }
  while (!lo_measured && lo >= 0) {
    lo_measured = probe(lo);
    lo -= static_cast<int>(kGridSteps / 4);
  }
  std::fprintf(stderr, "[perfbench] sustained %.1f/s\n", sustained);

  // Correctness of the recorded subset, before any ingest changes the
  // catalog.
  driver.FreezeSubset();
  SubsetCheck subset;
  if (spec.bitwise_subset) {
    LayerReplay replay(setup.get(), /*probes=*/false, nullptr);
    subset = CheckSubset(driver.subset_records(), &replay);
  }
  const std::string self_test = SelfTest(driver);
  tally.failed += subset.mismatches;

  // Ingest visibility at nominal speed: the pooled samples of the reference
  // slices on ingest workloads; on reads-only workloads the median p99 of
  // kRounds ingest probes.
  std::vector<PhaseStats> ingest_probes;
  double visible_p99 = 0.0;
  if (spec.reads_per_ingest == 0) {
    std::vector<double> p99;
    for (int r = 0; r < kRounds; ++r) {
      PhaseStats p;
      p.time_scale =
          host.Bracketed([&](double) { p = RunIngestProbe(*setup, &driver); });
      tally.Add(p);
      p99.push_back(QuantileMs(p.visible, 0.99) * p.time_scale);
      ingest_probes.push_back(std::move(p));
    }
    visible_p99 = Median(p99);
  } else {
    wr::serve::LatencyHistogram visible;
    for (const PhaseStats& p : refs) {
      visible.Merge(ScaledHistogram(p.visible, p.time_scale));
    }
    visible_p99 = QuantileMs(visible, 0.99);
  }
  tally.attempted += kWarmupRequests;
  tally.failed += driver.warmup_failures();

  double hits = 0.0;
  double labelled = 0.0;
  for (const std::vector<PhaseStats>* list : {&caps, &refs}) {
    for (const PhaseStats& p : *list) {
      hits += static_cast<double>(p.hits);
      labelled += static_cast<double>(p.labelled);
    }
  }
  const double hit = labelled > 0.0 ? hits / labelled : 0.0;
  const bool bitwise_ok =
      subset.mismatches == 0 && (!spec.bitwise_subset || subset.compared > 0);
  const bool correct = tally.failed == 0 && bitwise_ok && self_test.empty();

  Metrics m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("capacity_rps", capacity, "1/s");
  m.Add("sustained_rps", sustained, "1/s");
  m.Add("p50_ms", QuantileMs(latency_nominal, 0.5), "ms");
  m.Add("p99_ms", p99, "ms");
  m.Add("success_rate",
        1.0 - static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::size_t>(1, tally.attempted)),
        "ratio");
  m.Add("hit_at_10", hit, "ratio");
  m.Add("ingest_visible_p99_ms", visible_p99, "ms");
  m.Add("peak_rss_mb", PeakRssMb(), "MiB");

  std::vector<std::string> setups;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups.push_back(Json()
                         .Num("raw_s", setup_raw_s[i])
                         .Num("time_scale", setup_scale[i])
                         .str());
  }
  std::vector<std::string> phases;
  for (const std::vector<PhaseStats>* list : {&caps, &refs, &ingest_probes}) {
    for (const PhaseStats& p : *list) phases.push_back(PhaseJson(p).str());
  }
  c->record.Num("nominal_kernel_ms", HostSpeed::kNominalMs)
      .Raw("setup_runs", JsonArray(setups))
      .Raw("phases", JsonArray(phases))
      .Raw("grid", JsonArray(grid))
      .Int("subset_compared", subset.compared)
      .Int("subset_mismatches", subset.mismatches)
      .Str("first_failure", !driver.first_failure().empty()
                                ? driver.first_failure()
                                : subset.first)
      .Str("self_test", self_test.empty() ? "caught every corruption"
                                          : self_test)
      .Int("ingest_visible_samples", driver.ingest_visible().count())
      .Num("refit_ms_p50_raw", QuantileMs(driver.refit_call(), 0.5))
      .Obj("reference_latency_raw", LatencyJson(latency));
  Json result;
  result.Bool("correct", correct)
      .Int("attempted", tally.attempted)
      .Int("failed", tally.failed)
      .Obj("metrics", m.json());
  c->record.Obj("result", result);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

int RunTraced(Common* c) {
  const WorkloadSpec& spec = c->spec;
  const double T = c->args.seconds;
  const std::uint64_t seed = c->args.seed;
  std::unique_ptr<Setup> setup = BuildSetup(spec);
  AssignFamilies(setup.get());
  c->record.Int("catalog_items", setup->service->num_items())
      .Int("sessions", setup->data.dataset.sequences.size());
  auto* encoder =
      dynamic_cast<wr::TextFeatureEncoder*>(setup->model()->encoder());
  WR_CHECK(encoder != nullptr);
  const wr::linalg::Matrix served_features = encoder->features();
  Tally tally;

  // Service A: serve-side spans only, on the untraced run's reference
  // traffic, so queueing is not disturbed by replay work.
  Tracer serve_tracer;
  DriverOptions a_opts;
  a_opts.tracer = &serve_tracer;
  wr::serve::RecommendService* service = setup->service.get();
  LoadDriver a(setup.get(), service, spec, a_opts);
  a.Warmup(kWarmupRequests);

  // Tracing overhead: closed-loop capacity alternately without and with
  // spans.
  std::vector<double> plain;
  std::vector<double> traced;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serve_tracer.set_enabled(i % 2 == 1);
    const PhaseStats p =
        a.ClosedLoop("trace-overhead", 0.05 * T, seed * 16 + 11 + i);
    tally.Add(p);
    (i % 2 == 1 ? traced : plain)
        .push_back(static_cast<double>(p.served_in_window) / p.seconds);
  }
  serve_tracer.set_enabled(true);
  service->ResetStats();
  const bool ref_visibility = spec.reads_per_ingest > 0;
  PhaseStats ref = a.OpenLoop("reference", spec.ref_rate, spec.ref_share * T,
                              seed * 16 + 1, ref_visibility);
  if (ref_visibility) a.FlushIngests(&ref);
  tally.Add(ref);
  const wr::serve::ServeStats ref_stats = service->stats();
  if (spec.reads_per_ingest == 0) {
    tally.Add(RunIngestProbe(*setup, &a));
  }
  const wr::serve::ServeStats a_stats = service->stats();
  const double lag_p99 = QuantileMs(ref.lag, 0.99);
  tally.attempted += kWarmupRequests;
  tally.failed += a.warmup_failures();
  std::string first_failure = a.first_failure();
  // Service A's ingests grew the catalog; nothing references those rows
  // once it is gone, so the encoder goes back to the set-up catalog.
  setup->service.reset();
  const wr::Status restored = encoder->RestoreFeatures(served_features);
  WR_CHECK_MSG(restored.ok(), restored.message().c_str());

  // Service B (fresh, same model): every served batch is replayed through
  // the layer API right after ServeQueued returns and compared bitwise.
  std::unique_ptr<wr::serve::RecommendService> fresh = BuildService(setup.get());
  Tracer tracer;
  tracer.set_enabled(true);
  LayerReplay replay(setup.get(), /*probes=*/true, &tracer);
  DriverOptions b_opts;
  b_opts.tracer = &tracer;
  b_opts.inline_replay = &replay;
  LoadDriver b(setup.get(), fresh.get(), spec, b_opts);
  b.Warmup(kWarmupRequests);
  tally.Add(b.OpenLoop("replayed-reference", spec.ref_rate, 0.2 * T,
                       seed * 16 + 1));
  if (spec.reads_per_ingest == 0) {
    tally.Add(RunIngestProbe(*setup, &b));
  }
  tally.attempted += kWarmupRequests;
  tally.failed += b.warmup_failures();
  if (first_failure.empty()) first_failure = b.first_failure();

  // Layer probes outside the serving loop.
  const double gemm_peak = ProbeGemmPeakGflops();
  const double dispatch_us = ProbeParallelDispatchUs(c->threads);
  const WhiteningProbe whitening = ProbeWhitening(setup->raw_catalog);
  const double encode_ms = ProbeEncodeItemsMs(setup->model());

  const LayerReplay::Totals& t = replay.totals();
  std::vector<double> step_us;
  for (std::uint64_t ns : t.step_ns) {
    step_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  double score_total_s = 0.0;
  std::vector<double> score_ms;
  for (std::uint64_t ns : t.score_ns) {
    score_total_s += static_cast<double>(ns) * 1e-9;
    score_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  const double rows =
      static_cast<double>(std::max<std::size_t>(1, t.requests));

  Metrics m;
  m.Add("serve.batch_size_mean",
        static_cast<double>(ref.served) /
            static_cast<double>(std::max<std::size_t>(1, ref.batches)),
        "count");
  m.Add("serve.queue_wait_p50_ms", QuantileMs(ref.wait, 0.5), "ms");
  m.Add("serve.queue_wait_p99_ms", QuantileMs(ref.wait, 0.99), "ms");
  m.Add("serve.call_ms_p50", QuantileMs(ref.call, 0.5), "ms");
  m.Add("serve.call_ms_p99", QuantileMs(ref.call, 0.99), "ms");
  m.Add("serve.cache_hit_ratio",
        static_cast<double>(ref_stats.cache_hits) /
            static_cast<double>(std::max<std::size_t>(1, ref_stats.requests)),
        "ratio");
  m.Add("serve.evictions", static_cast<double>(ref_stats.evictions), "count");
  const double call_s = b.replayed_call_s();
  m.Add("serve.self_share",
        call_s > 0.0 ? (call_s - b.replay_step_wall_s() - b.replay_score_s()) /
                           call_s
                     : 0.0,
        "ratio");
  m.Add("serve.ingest_us_p50", QuantileMs(a.ingest_call(), 0.5) * 1e3, "us");
  m.Add("serve.ingest_us_p99", QuantileMs(a.ingest_call(), 0.99) * 1e3, "us");
  m.Add("serve.refit_ms_p50", QuantileMs(a.refit_call(), 0.5), "ms");
  m.Add("serve.refits", static_cast<double>(a_stats.refits), "count");
  m.Add("serve.quarantined", static_cast<double>(a_stats.quarantined), "count");
  m.Add("seqrec.step_us_p50", Percentile(step_us, 0.5), "us");
  m.Add("seqrec.step_us_p99", Percentile(step_us, 0.99), "us");
  m.Add("seqrec.steps_per_request",
        static_cast<double>(t.steps) /
            static_cast<double>(std::max<std::size_t>(1, t.requests)),
        "count");
  m.Add("seqrec.encode_items_ms", encode_ms, "ms");
  m.Add("seqrec.fit_s", setup->fit_s, "s");
  m.Add("linalg.score_ms_p50", Median(score_ms), "ms");
  m.Add("linalg.score_us_per_request", score_total_s * 1e6 / rows, "us");
  m.Add("linalg.score_gflops",
        score_total_s > 0.0 ? t.score_flops / score_total_s * 1e-9 : 0.0,
        "GFLOP/s");
  m.Add("linalg.table_bytes_per_request", t.table_bytes / rows, "B");
  m.Add("linalg.gemm_peak_gflops", gemm_peak, "GFLOP/s");
  m.Add("whitening.accumulate_us", whitening.accumulate_us, "us");
  m.Add("whitening.fit_ms", whitening.fit_ms, "ms");
  m.Add("whitening.apply_ms", whitening.apply_ms, "ms");
  m.Add("retrieval.build_s", Median(t.ivf_build_s), "s");
  for (const LayerReplay::Probe& p : replay.probes()) {
    if (p.nprobe == 0) continue;
    std::vector<double> ms;
    for (std::uint64_t ns : p.score_ns) ms.push_back(static_cast<double>(ns) * 1e-6);
    m.Add("retrieval.ivf_score_ms_p50." + p.name, Median(ms), "ms");
    m.Add("retrieval.candidates_per_query." + p.name,
          p.queries > 0.0 ? p.candidates / p.queries : 0.0, "count");
  }
  for (const LayerReplay::Probe& p : replay.probes()) {
    m.Add("retrieval.recall_at_10." + p.name, p.recall(), "ratio");
  }
  m.Add("core.parallel_dispatch_us", dispatch_us, "us");
  m.Add("trace.overhead_ratio", Median(traced) / Median(plain), "ratio");
  m.Add("driver.lag_p99_ms", lag_p99, "ms");

  const std::size_t mismatches = b.replay_mismatches();
  const std::string self_test = SelfTest(b);
  const bool correct = tally.failed == 0 && mismatches == 0 &&
                       t.requests > 0 && self_test.empty();

  // Spans: serve side (service A) and replay (service B), plus self time.
  auto self_seconds = [](const Tracer& tr) {
    Json j;
    for (const auto& [layer, s] : tr.SelfSecondsByLayer()) j.Num(layer, s);
    return j;
  };
  const std::string base = c->args.record_dir + "/spans-" + spec.name + "-" +
                           std::to_string(seed);
  for (const auto& [tr, suffix] :
       {std::pair{&serve_tracer, "-serve.tsv"}, std::pair{&tracer, "-replay.tsv"}}) {
    if (!tr->WriteTsv(base + suffix)) {
      std::fprintf(stderr, "[perfbench] cannot write %s%s\n", base.c_str(),
                   suffix);
    }
  }
  c->record
      .Obj("self_seconds_by_layer", Json()
                                        .Obj("service", self_seconds(serve_tracer))
                                        .Obj("replay", self_seconds(tracer)))
      .Int("spans", serve_tracer.spans().size() + tracer.spans().size())
      .Int("replayed_requests", t.requests)
      .Int("replay_mismatches", mismatches)
      .Str("self_test", self_test.empty() ? "caught every corruption"
                                          : self_test)
      .Str("first_failure", first_failure)
      .Raw("phases", JsonArray({PhaseJson(ref).str()}));

  Json result;
  result.Bool("correct", correct)
      .Int("attempted", tally.attempted)
      .Int("failed", tally.failed)
      .Obj("metrics", m.json());
  c->record.Obj("result", result);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Common c;
  c.args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(c.args.workload);
  if (spec == nullptr) Usage(("unknown workload " + c.args.workload).c_str());
  c.spec = *spec;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  c.threads = std::min(spec->threads, nproc);
  wr::core::SetNumThreads(c.threads);

  c.record.Str("workload", spec->name)
      .Int("seed", c.args.seed)
      .Num("seconds", c.args.seconds)
      .Int("trace", static_cast<std::uint64_t>(c.args.trace))
      .Str("git_sha", c.args.git_sha)
      .Str("cpu_model", CpuModel())
      .Str("cpu_flags", CpuFlags())
      .Int("nproc", nproc)
      .Int("threads", c.threads)
      .Int("max_batch", spec->max_batch)
      .Num("ref_rate", spec->ref_rate)
      .Num("latency_limit_ms", spec->latency_limit_ms);

  const int rc = c.args.trace == 1 ? RunTraced(&c) : RunEndToEnd(&c);
  const std::string path = c.args.record_dir + "/record-" + spec->name + "-" +
                           std::to_string(c.args.seed) + "-trace" +
                           std::to_string(c.args.trace) + ".json";
  std::ofstream out(path);
  out << c.record.str() << "\n";
  out.close();
  std::fprintf(stderr, "[perfbench] run record %s%s\n", path.c_str(),
               out ? "" : " (write failed)");
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
