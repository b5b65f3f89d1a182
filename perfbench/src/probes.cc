// Standalone layer probes: each times one public library call on fixed
// inputs, outside the serving loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "core/check.h"
#include "core/parallel.h"
#include "linalg/gemm.h"
#include "linalg/rng.h"
#include "whitening/incremental_whitening.h"
#include "whitening/whitening.h"

namespace perfbench {
namespace {

double Seconds(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double QuantileMs(const wr::serve::LatencyHistogram& h, double q) {
  return static_cast<double>(h.Quantile(q)) * 1e-6;
}

wr::serve::LatencyHistogram ScaledHistogram(
    const wr::serve::LatencyHistogram& h, double factor) {
  wr::serve::LatencyHistogram out;
  const std::vector<std::uint64_t>& buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const auto value = static_cast<std::uint64_t>(
        static_cast<double>(wr::serve::LatencyHistogram::BucketLowerBound(i)) *
        factor);
    for (std::uint64_t n = 0; n < buckets[i]; ++n) out.Record(value);
  }
  return out;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Fixed 256^3 C = A * B^T through the library's GEMM, best of several
// repetitions: the machine's achievable fp64 rate under the library's flags,
// the reference for the scoring roofline.
double ProbeGemmPeakGflops() {
  constexpr std::size_t kN = 256;
  wr::linalg::Rng rng(11);
  const wr::linalg::Matrix a = rng.GaussianMatrix(kN, kN, 1.0);
  const wr::linalg::Matrix b = rng.GaussianMatrix(kN, kN, 1.0);
  wr::linalg::Matrix c;
  wr::linalg::MatMulTransBInto(a, b, &c);
  double best = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kCalls = 4;
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kCalls; ++i) wr::linalg::MatMulTransBInto(a, b, &c);
    const double s = Seconds(t0, NowNs());
    const double flops = 2.0 * kN * kN * kN * kCalls;
    best = std::max(best, flops / s * 1e-9);
  }
  return best;
}

double ProbeParallelDispatchUs(std::size_t threads) {
  std::vector<std::size_t> sink(threads, 0);
  std::vector<double> per_call;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 2000;
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      wr::core::ParallelFor(0, threads, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) ++sink[k];
      });
    }
    per_call.push_back(Seconds(t0, NowNs()) * 1e6 / kCalls);
  }
  return Median(per_call);
}

WhiteningProbe ProbeWhitening(const wr::linalg::Matrix& raw_catalog) {
  WhiteningProbe probe;
  const std::size_t d = raw_catalog.cols();
  wr::IncrementalWhitening acc(d);
  acc.Add(raw_catalog);
  wr::linalg::Matrix row(1, d);
  std::vector<double> add_us;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kAdds = 2000;
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kAdds; ++i) {
      const std::size_t r = static_cast<std::size_t>(rep * kAdds + i) %
                            raw_catalog.rows();
      std::copy(raw_catalog.RowPtr(r), raw_catalog.RowPtr(r) + d,
                row.RowPtr(0));
      acc.Add(row);
    }
    add_us.push_back(Seconds(t0, NowNs()) * 1e6 / kAdds);
  }
  probe.accumulate_us = Median(add_us);

  wr::WhiteningOptions options;
  std::vector<double> fit_ms;
  wr::FittedWhitening fitted;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = NowNs();
    wr::Result<wr::FittedWhitening> f = acc.Fit(options);
    fit_ms.push_back(Seconds(t0, NowNs()) * 1e3);
    WR_CHECK_MSG(f.ok(), f.status().message().c_str());
    fitted = std::move(f).ValueOrDie();
  }
  probe.fit_ms = Median(fit_ms);

  std::vector<double> apply_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = NowNs();
    const wr::linalg::Matrix z = wr::ApplyWhitening(fitted, raw_catalog);
    apply_ms.push_back(Seconds(t0, NowNs()) * 1e3);
    WR_CHECK(z.rows() == raw_catalog.rows());
  }
  probe.apply_ms = Median(apply_ms);
  return probe;
}

double ProbeEncodeItemsMs(wr::seqrec::SasRecModel* model) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = NowNs();
    const wr::linalg::Matrix table = model->EncodeItems(/*train=*/false);
    ms.push_back(Seconds(t0, NowNs()) * 1e3);
    WR_CHECK(table.rows() == model->num_items());
  }
  return Median(ms);
}

}  // namespace perfbench
