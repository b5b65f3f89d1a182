#include "serve/degrade.h"

#include <algorithm>

#include "core/check.h"
#include "core/knobs.h"

namespace whitenrec {
namespace serve {
namespace {

// Virtual cost model for the harness: IVF cost grows with nprobe but never
// reaches the exact pass; the popularity fallback touches no embeddings at
// all. These are coarse planning weights, not measurements.
double IvfCostFactor(std::size_t nprobe) {
  const double f = 0.15 + 0.05 * static_cast<double>(nprobe);
  return std::min(1.0, f);
}

}  // namespace

const char* RungKindName(RungKind kind) {
  switch (kind) {
    case RungKind::kExact: return "exact";
    case RungKind::kIvf: return "ivf";
    case RungKind::kPopularity: return "popularity";
  }
  return "?";
}

Result<std::vector<LadderRung>> ParseLadderSpec(const std::string& spec) {
  Result<std::vector<core::knobs::Choice>> choices =
      core::knobs::MatchChoices(core::knobs::kDegradeLadder, spec);
  if (!choices.ok()) {
    return Status::InvalidArgument("ladder spec: " +
                                   choices.status().message());
  }
  std::vector<LadderRung> rungs;
  for (const core::knobs::Choice& choice : choices.value()) {
    LadderRung rung;  // the defaults are the "exact" rung
    if (choice.word == "ivf") {
      rung.kind = RungKind::kIvf;
      rung.nprobe = static_cast<std::size_t>(choice.n);
      rung.cost_factor = IvfCostFactor(rung.nprobe);
    } else if (choice.word == "popularity") {
      rung.kind = RungKind::kPopularity;
      rung.cost_factor = 0.02;
    }
    rungs.push_back(rung);
  }
  return rungs;
}

DegradationLadder::DegradationLadder(const LadderConfig& config)
    : config_(config) {
  WR_CHECK(!config_.rungs.empty());
  WR_CHECK(config_.low_watermark < config_.high_watermark);
  WR_CHECK(config_.degrade_after >= 1);
  WR_CHECK(config_.recover_after >= 1);
}

std::size_t DegradationLadder::Observe(std::size_t queue_depth) {
  if (queue_depth >= config_.high_watermark) {
    ++high_run_;
    low_run_ = 0;
  } else if (queue_depth <= config_.low_watermark) {
    ++low_run_;
    high_run_ = 0;
  } else {
    // The dead band between the watermarks breaks both runs: a depth that
    // hovers there holds the current rung (that is the hysteresis).
    high_run_ = 0;
    low_run_ = 0;
  }
  if (high_run_ >= config_.degrade_after && rung_ + 1 < config_.rungs.size()) {
    ++rung_;
    high_run_ = 0;
  } else if (low_run_ >= config_.recover_after && rung_ > 0) {
    --rung_;
    low_run_ = 0;
  }
  return rung_;
}

void DegradationLadder::Reset() {
  rung_ = 0;
  high_run_ = 0;
  low_run_ = 0;
}

}  // namespace serve
}  // namespace whitenrec
