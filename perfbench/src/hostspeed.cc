// Host-speed reference: a fixed kernel of benchmark code (no library call,
// no library thread pool) timed next to every measured interval, so timings
// can be reported at one nominal machine speed. See HostSpeed in bench.h.
#include <algorithm>
#include <cstddef>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

constexpr std::size_t kTile = 48;                  // in-cache product size
constexpr int kComputeReps = 90;                   // ~6 ms at nominal speed
constexpr std::size_t kStreamDoubles = 8u << 20;   // 64 MiB, ~11 ms per pass

}  // namespace

HostSpeed::Lane::Lane()
    : a(kTile * kTile, 1.0001),
      b(kTile * kTile, 0.9999),
      c(kTile * kTile, 0.0),
      stream(kStreamDoubles, 1.0) {}

void HostSpeed::Lane::Run() {
  // In-cache fp64 arithmetic: repeated kTile^3 products, each feeding the
  // next through one element so no repetition can be hoisted.
  for (int r = 0; r < kComputeReps; ++r) {
    for (std::size_t i = 0; i < kTile; ++i) {
      for (std::size_t j = 0; j < kTile; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < kTile; ++k) {
          s += a[i * kTile + k] * b[j * kTile + k];
        }
        c[i * kTile + j] = s;
      }
    }
    a[static_cast<std::size_t>(r)] += c[static_cast<std::size_t>(r)] * 1e-12;
  }
  // One sequential pass over a buffer larger than the per-core caches.
  double sum = 0.0;
  for (double v : stream) sum += v;
  sink += sum + c[7];
}

HostSpeed::HostSpeed(std::size_t threads)
    : lanes_(std::max<std::size_t>(1, threads)) {
  KernelMs();  // faults the pages in and warms the caches
}

double HostSpeed::KernelMs() {
  const std::uint64_t t0 = NowNs();
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    helpers.emplace_back([lane = &lanes_[i]] { lane->Run(); });
  }
  lanes_[0].Run();
  for (std::thread& t : helpers) t.join();
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

}  // namespace perfbench
