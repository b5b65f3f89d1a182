// Micro-benchmarks (google-benchmark) for the computational kernels behind
// the paper's complexity analysis (Sec. IV-E): dense matmul (naive vs the
// blocked kernels of linalg/gemm.cc), symmetric eigendecomposition,
// whitening fits of each kind, group whitening, flow whitening, one
// SASRec training step, one online item ingest, and the serving forward
// (stacked segments vs one step per row). These quantify the claim that the whitening
// transforms are cheap, precomputable preprocessing. Besides the console
// table, results are written to <out>/BENCH_kernels.json (GFLOP/s, thread
// count and kernel variant per run) for machine consumption.

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "whitening/flow_whitening.h"
#include "core/parallel.h"
#include "whitening/whitening.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/eigen.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "linalg/workspace.h"
#include "seqrec/baselines.h"
#include "serve/service.h"

namespace whitenrec {
namespace {

void BM_MatMul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Head-to-head of the kernel variants behind WHITENREC_GEMM on the 512^3
// product (the tentpole target: blocked must be >= 3x naive single-thread).
// items/s counts multiply-adds, so GFLOP/s = 2 * items/s / 1e9.
void BM_GemmVariant(benchmark::State& state) {
  const auto kind = static_cast<linalg::GemmKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const linalg::GemmKind saved_kind = linalg::CurrentGemmKind();
  const std::size_t saved_threads = core::NumThreads();
  linalg::SetGemmKind(kind);
  core::SetNumThreads(threads);
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  linalg::Matrix c;
  for (auto _ : state) {
    linalg::MatMulInto(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel(linalg::GemmKindName(kind));
  core::SetNumThreads(saved_threads);
  linalg::SetGemmKind(saved_kind);
}
BENCHMARK(BM_GemmVariant)
    ->Args({static_cast<int>(linalg::GemmKind::kNaive), 512, 1})
    ->Args({static_cast<int>(linalg::GemmKind::kBlocked), 512, 1})
    ->Args({static_cast<int>(linalg::GemmKind::kNaive), 512, 4})
    ->Args({static_cast<int>(linalg::GemmKind::kBlocked), 512, 4})
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the parallel GEMM on a 512x512x512 product. items/s is
// multiply-add throughput, directly comparable across the thread counts.
void BM_MatMulThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(threads);
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
  state.SetLabel(std::to_string(threads) + " thread(s)");
  core::SetNumThreads(saved);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Unit(benchmark::kMillisecond);

// The WHITENREC_SCORING tentpole head-to-head: top-20 recommendation scoring
// of a user batch against the catalog, materialized (full (rows, num_items)
// score matrix in a model-style workspace slot, then partial_sort per row)
// vs fused (streaming score panels feeding bounded top-K selectors). Both
// produce identical lists; the contrast is time and — via the
// peak_workspace_bytes counter — scratch high-water mark.
void BM_ScoringVariant(benchmark::State& state) {
  const auto mode = static_cast<linalg::ScoringMode>(state.range(0));
  const std::size_t num_items = static_cast<std::size_t>(state.range(1));
  const std::size_t rows = 64;
  const std::size_t d = 64;
  const std::size_t k = 20;
  linalg::Rng rng(7);
  const linalg::Matrix users = rng.GaussianMatrix(rows, d, 1.0);
  const linalg::Matrix items = rng.GaussianMatrix(num_items, d, 1.0);
  linalg::Workspace::ResetAllWorkspaces();
  if (mode == linalg::ScoringMode::kMaterialized) {
    // Mirrors the materialized hot path: the score matrix lives in a
    // model-owned workspace slot so the peak counter sees it.
    linalg::Workspace ws;
    linalg::Matrix& scores = ws.MatRef(0);
    for (auto _ : state) {
      linalg::MatMulTransBInto(users, items, &scores);
      for (std::size_t r = 0; r < rows; ++r) {
        benchmark::DoNotOptimize(
            linalg::SelectTopK(scores.RowPtr(r), num_items, k));
      }
    }
    state.counters["peak_workspace_bytes"] =
        static_cast<double>(linalg::Workspace::GlobalPeakBytes());
  } else {
    std::vector<linalg::TopKSelector> selectors;
    selectors.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) selectors.emplace_back(k);
    // The materialized arm excludes nothing either.
    const std::vector<std::size_t> no_exclusions;
    for (auto _ : state) {
      for (std::size_t r = 0; r < rows; ++r) selectors[r].Reset();
      linalg::StreamMatMulTransB(
          users, items,
          [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
              const linalg::Matrix& panel) {
            for (std::size_t i = i0; i < i1; ++i) {
              selectors[i].PushTile(panel.RowPtr(i), j0, jn, no_exclusions);
            }
          });
      benchmark::DoNotOptimize(selectors.data());
    }
    state.counters["peak_workspace_bytes"] =
        static_cast<double>(linalg::Workspace::GlobalPeakBytes());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(rows * num_items * d));
  state.SetLabel(linalg::ScoringModeName(mode));
}
BENCHMARK(BM_ScoringVariant)
    ->Args({static_cast<int>(linalg::ScoringMode::kMaterialized), 4096})
    ->Args({static_cast<int>(linalg::ScoringMode::kFused), 4096})
    ->Args({static_cast<int>(linalg::ScoringMode::kMaterialized), 16384})
    ->Args({static_cast<int>(linalg::ScoringMode::kFused), 16384})
    ->Unit(benchmark::kMillisecond);

// The exact serving backend end to end: MakeExactScorer()->TopKBatch at
// the serving shape (d = 32, top-10, 12 sorted exclusions per row) over a
// rows x catalog sweep. One row is the light-load regime (batches of ~1),
// where per-call work that does not scale with rows shows; 64 rows is the
// capacity regime, where the top-K epilogue's per-score cost shows. The
// third argument is the thread count: a batch of at most one 64-row block
// on 2 threads is scored as one range of catalog columns per thread.
// items/s counts multiply-adds, so GFLOP/s = 2 * items/s / 1e9.
void BM_ExactScorerRows(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t num_items = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(threads);
  const std::size_t d = 32;
  const std::size_t k = 10;
  const std::size_t excluded = 12;
  linalg::Rng rng(9);
  const linalg::Matrix users = rng.GaussianMatrix(rows, d, 1.0);
  const linalg::Matrix items = rng.GaussianMatrix(num_items, d, 1.0);
  std::vector<std::vector<std::size_t>> exclusions(rows);
  for (std::vector<std::size_t>& excl : exclusions) {
    for (std::size_t e = 0; e < excluded; ++e) {
      excl.push_back(rng.UniformInt(num_items));
    }
    std::sort(excl.begin(), excl.end());
  }
  const std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
  scorer->Rebuild(items);
  std::vector<linalg::TopKSelector> selectors;
  selectors.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) selectors.emplace_back(k);
  for (auto _ : state) {
    for (linalg::TopKSelector& sel : selectors) sel.Reset();
    scorer->TopKBatch(users, exclusions, &selectors);
    benchmark::DoNotOptimize(selectors.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * num_items * d));
  state.SetLabel(std::to_string(threads) + " thread(s)");
  core::SetNumThreads(saved);
}
BENCHMARK(BM_ExactScorerRows)
    ->ArgsProduct({{1, 8, 64}, {16384, 131072}, {1, 2}})
    ->Unit(benchmark::kMillisecond);

// One accepted RecommendService::IngestItem (no refit) over a catalog of
// N raw d_t = 64 rows: the in-place append plus the O(d_t^2) Welford fold,
// so the time is flat in N. The raw catalog's geometric reallocation
// (O(d_t) per row amortized) is paid before the loop: a refused refit's
// rollback truncates in place and keeps the grown capacity. Every 4096
// ingests an untimed refused RefitNow() drops the pending rows again, so
// memory stays bounded however many iterations run.
void BM_IngestItem(benchmark::State& state) {
  const std::size_t num_items = static_cast<std::size_t>(state.range(0));
  data::ItemFeatureConfig features;
  features.num_items = num_items;
  features.embed_dim = 64;
  data::Dataset dataset;
  dataset.num_items = num_items;
  dataset.text_embeddings = data::GenerateItemFeatures(features);
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.max_len = 12;
  auto rec = seqrec::MakeWhitenRec(dataset, mc, WhitenRecConfig());
  serve::ServeConfig config;
  config.refit_every = std::numeric_limits<std::size_t>::max();
  config.refit_eigen_floor = std::numeric_limits<double>::max();
  serve::RecommendService service(rec->model(), config);
  WR_CHECK(service
               .EnableIngest(dataset.text_embeddings, WhiteningKind::kZca,
                             1e-5)
               .ok());
  const std::vector<double> row = dataset.text_embeddings.Row(0);
  auto drain = [&service] { WR_CHECK(!service.RefitNow().ok()); };
  constexpr std::size_t kDrainEvery = 4096;
  WR_CHECK(service.IngestItem(row).ok());
  drain();
  std::size_t pending = 0;
  for (auto _ : state) {
    if (pending == kDrainEvery) {
      state.PauseTiming();
      drain();
      pending = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(service.IngestItem(row));
    ++pending;
  }
  WR_CHECK_EQ(service.num_items(), num_items);  // nothing was committed
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestItem)
    ->Arg(16384)
    ->Arg(131072)
    ->Unit(benchmark::kMicrosecond);

// The serving transformer forward for 64 sessions of `rows` rows each, at
// the serving model shape (d = 32, 2 blocks, 2 heads, FFN 64, max_len 12).
// rows = 1 is the incremental step (position 6 after a cached 6-row
// prefix); 6 and 12 are whole-window replays, as after a refit. Mode 0 is
// the step loop: one EncodeSequenceStep per row, sessions spread over a
// ParallelFor. Mode 1 is the stacked forward the service runs: sessions cut
// into one row-balanced group per thread (core::SplitByWeight), each group
// one EncodeSegments call. Both give bitwise the same rows (serving_test's
// StackedForward suite). items/s counts encoded rows.
void BM_ServeForward(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const bool stacked = state.range(2) != 0;
  constexpr std::size_t kSessions = 64;
  constexpr std::size_t kPrefix = 6;  // cached positions before a 1-row step
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(threads);
  data::ItemFeatureConfig features;
  features.num_items = 2048;
  features.embed_dim = 64;
  data::Dataset dataset;
  dataset.num_items = features.num_items;
  dataset.text_embeddings = data::GenerateItemFeatures(features);
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.max_len = 12;
  const auto rec = seqrec::MakeWhitenRec(dataset, mc, WhitenRecConfig());
  const seqrec::SasRecModel& model = *rec->model();
  const linalg::Matrix v = rec->model()->EncodeItems(/*train=*/false);

  // Session s owns items[s * 12, s * 12 + 12); its segment is positions
  // [start, start + rows).
  const std::size_t start = rows == 1 ? kPrefix : 0;
  linalg::Rng rng(12);
  std::vector<std::size_t> windows(kSessions * mc.max_len);
  for (std::size_t& item : windows) item = rng.UniformInt(v.rows());
  std::vector<seqrec::SasRecModel::SessionStepState> states(kSessions);
  linalg::Matrix h_row;
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t t = 0; t < start; ++t) {
      model.EncodeSequenceStep(v, windows[s * mc.max_len + t], &states[s],
                               &h_row);
    }
  }
  std::vector<nn::KvSegment> segments(kSessions);
  std::vector<std::size_t> items;
  for (std::size_t s = 0; s < kSessions; ++s) {
    segments[s] = nn::KvSegment{&states[s].cache, start, rows};
    items.insert(items.end(),
                 windows.begin() +
                     static_cast<std::ptrdiff_t>(s * mc.max_len + start),
                 windows.begin() +
                     static_cast<std::ptrdiff_t>(s * mc.max_len + start + rows));
  }
  const std::vector<std::size_t> groups = core::SplitByWeight(
      std::vector<std::size_t>(kSessions, rows), core::NumThreads());
  std::vector<linalg::Matrix> answers(groups.size() - 1);
  const std::span<const nn::KvSegment> all_segments(segments);
  const std::span<const std::size_t> all_items(items);

  for (auto _ : state) {
    if (stacked) {
      core::ParallelFor(0, groups.size() - 1, 1, [&](std::size_t g0,
                                                     std::size_t g1) {
        for (std::size_t g = g0; g < g1; ++g) {
          const std::size_t n = groups[g + 1] - groups[g];
          model.EncodeSegments(v, all_items.subspan(groups[g] * rows, n * rows),
                               all_segments.subspan(groups[g], n), &answers[g]);
        }
      });
      benchmark::DoNotOptimize(answers.data());
    } else {
      core::ParallelFor(0, kSessions, 1, [&](std::size_t s0, std::size_t s1) {
        linalg::Matrix row;
        for (std::size_t s = s0; s < s1; ++s) {
          for (nn::AttentionKvCache& kv : states[s].cache.blocks) kv.len = start;
          for (std::size_t t = start; t < start + rows; ++t) {
            model.EncodeSequenceStep(v, windows[s * mc.max_len + t], &states[s],
                                     &row);
          }
          benchmark::DoNotOptimize(row.data());
        }
      });
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSessions * rows));
  state.SetLabel(std::string(stacked ? "stacked" : "step loop") + ", " +
                 std::to_string(threads) + " thread(s)");
  core::SetNumThreads(saved);
}
BENCHMARK(BM_ServeForward)
    ->ArgNames({"rows", "threads", "stacked"})
    ->ArgsProduct({{1, 6, 12}, {1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(2);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  linalg::Matrix sym = linalg::Add(a, linalg::Transpose(a));
  sym *= 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SymmetricEigen(sym));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(32)->Arg(64);

void BM_WhiteningFit(benchmark::State& state) {
  const auto kind = static_cast<WhiteningKind>(state.range(0));
  linalg::Rng rng(3);
  const linalg::Matrix x = rng.GaussianMatrix(400, 64, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitWhitening(x, kind));
  }
  state.SetLabel(WhiteningKindName(kind));
}
BENCHMARK(BM_WhiteningFit)
    ->Arg(static_cast<int>(WhiteningKind::kZca))
    ->Arg(static_cast<int>(WhiteningKind::kPca))
    ->Arg(static_cast<int>(WhiteningKind::kCholesky))
    ->Arg(static_cast<int>(WhiteningKind::kBatchNorm));

void BM_GroupWhiten(benchmark::State& state) {
  const std::size_t groups = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(4);
  const linalg::Matrix x = rng.GaussianMatrix(400, 64, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WhitenMatrix(x, groups, WhiteningKind::kZca));
  }
}
BENCHMARK(BM_GroupWhiten)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_FlowWhitenFit(benchmark::State& state) {
  linalg::Rng rng(5);
  const linalg::Matrix x = rng.GaussianMatrix(300, 32, 1.0);
  for (auto _ : state) {
    FlowWhitening flow;
    benchmark::DoNotOptimize(flow.Fit(x, 2));
  }
}
BENCHMARK(BM_FlowWhitenFit);

void BM_SasRecTrainStep(benchmark::State& state) {
  data::DatasetProfile profile = data::ArtsProfile(0.5);
  profile.plm.calibration_iters = 15;
  const data::GeneratedData gen = data::GenerateDataset(profile);
  const data::Split split = data::LeaveOneOutSplit(gen.dataset);
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.max_len = 12;
  WhitenRecConfig wc;
  auto rec = seqrec::MakeWhitenRecPlus(gen.dataset, mc, wc);
  linalg::Rng rng(6);
  const auto batches = data::MakeTrainBatches(split.train, mc.max_len, 128,
                                              &rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rec->model()->TrainStep(batches[i++ % batches.size()]));
  }
}
BENCHMARK(BM_SasRecTrainStep);

// Console output plus a flat JSON record per run. GFLOP/s is derived from
// the items/s counter (items are multiply-adds, i.e. 2 flops each).
class KernelJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      bench::Json rec = bench::Json::Obj();
      rec.Set("name", bench::Json::Str(run.benchmark_name()));
      rec.Set("real_time", bench::Json::Num(run.GetAdjustedRealTime()));
      rec.Set("time_unit",
              bench::Json::Str(benchmark::GetTimeUnitString(run.time_unit)));
      rec.Set("iterations", bench::Json::Int(run.iterations));
      if (!run.report_label.empty()) {
        rec.Set("label", bench::Json::Str(run.report_label));
      }
      for (const auto& [name, counter] : run.counters) {
        rec.Set(name, bench::Json::Num(counter.value));
        if (name == "items_per_second") {
          rec.Set("gflops", bench::Json::Num(2.0 * counter.value / 1e9));
        }
      }
      records_.Push(std::move(rec));
    }
  }

  void WriteJson() {
    bench::Json doc = bench::Json::Obj();
    doc.Set("bench", bench::Json::Str("micro_kernels"));
    doc.Set("default_kernel",
            bench::Json::Str(linalg::GemmKindName(linalg::CurrentGemmKind())));
    doc.Set("default_threads",
            bench::Json::Int(static_cast<long long>(core::NumThreads())));
    doc.Set("runs", std::move(records_));
    bench::WriteJsonFile("BENCH_kernels.json", doc);
  }

 private:
  bench::Json records_ = bench::Json::Arr();
};

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  whitenrec::KernelJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  return 0;
}
