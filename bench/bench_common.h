#ifndef WHITENREC_BENCH_BENCH_COMMON_H_
#define WHITENREC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/knobs.h"
#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "seqrec/model.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace bench {

// Shared experiment configuration for the table/figure harnesses. The scale
// and epoch budget can be overridden via WHITENREC_SCALE / WHITENREC_EPOCHS
// (core/knobs.def) so the same binaries serve both the quick default run and
// a longer, closer-to-paper sweep.

// Dataset scale multiplier: WHITENREC_SCALE, default 1.0.
inline double EnvScale() { return core::knobs::Scale().value_or(1.0); }

// Applies a `--threads N` / `--threads=N` command-line override of the
// worker-thread count (otherwise WHITENREC_THREADS, otherwise hardware
// concurrency) and returns the resulting setting. 0 selects hardware
// concurrency; a malformed value is fatal, never a silent 0.
inline std::size_t ApplyThreadsFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg.rfind("--threads=", 0) == 0) {
      value = argv[i] + 10;
    } else if (arg == "--threads") {
      value = i + 1 < argc ? argv[i + 1] : "";
    }
    if (value == nullptr) continue;
    const Result<std::uint64_t> threads = core::ParseUnsigned(value);
    if (!threads.ok()) {
      std::fprintf(stderr, "bench: --threads: %s, got '%s'\n",
                   threads.status().message().c_str(), value);
      std::exit(EXIT_FAILURE);
    }
    core::SetNumThreads(threads.value());
  }
  return core::NumThreads();
}

inline seqrec::SasRecConfig DefaultModelConfig() {
  seqrec::SasRecConfig config;
  config.hidden_dim = 32;
  config.num_blocks = 2;
  config.num_heads = 2;
  config.ffn_hidden = 64;
  config.dropout = 0.2;
  config.max_len = 12;
  config.seed = 42;
  return config;
}

inline seqrec::TrainConfig DefaultTrainConfig() {
  seqrec::TrainConfig config;
  config.epochs = core::knobs::Epochs().value_or(12);
  config.batch_size = 128;
  config.learning_rate = 1e-3;
  config.weight_decay = 0.0;
  config.patience = 3;
  return config;
}

// Generates one of the paper's datasets at the env-configured scale.
inline data::GeneratedData LoadDataset(const data::DatasetProfile& profile) {
  std::printf("[data] generating %s ...\n", profile.name.c_str());
  return data::GenerateDataset(profile);
}

// Convenience: trains a SASRec-backbone recommender and evaluates on test.
inline seqrec::EvalResult FitAndEvaluate(seqrec::SasRecRecommender* rec,
                                         const data::Split& split,
                                         const seqrec::TrainConfig& config,
                                         std::size_t max_len) {
  rec->Fit(split, config);
  return seqrec::EvaluateRanking(rec, split.test, split.train, max_len);
}

// Table formatting helpers (plain fixed-width text, like the paper rows).
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-22s", "model");
  for (const auto& c : columns) std::printf("%12s", c.c_str());
  std::printf("\n");
}

inline void PrintRow(const std::string& name,
                     const std::vector<double>& values) {
  std::printf("%-22s", name.c_str());
  for (double v : values) std::printf("%12.4f", v);
  std::printf("\n");
}

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_BENCH_COMMON_H_
