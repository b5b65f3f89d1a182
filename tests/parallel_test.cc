// Unit tests for the thread-pool substrate (core/parallel.h): pool
// lifecycle, exception propagation, nested submits, and the static-chunking
// edge cases ParallelFor must handle (empty range, range < threads,
// grain > range). These run under check-tsan as well.

#include "core/parallel.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace whitenrec {
namespace core {
namespace {

// Restores the process-wide thread count on scope exit so tests do not leak
// their setting into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(NumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedThreads() { SetNumThreads(saved_); }

 private:
  std::size_t saved_;
};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, StartupAndShutdown) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  // Destruction with an empty queue must join cleanly (checked by running).
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed: a subsequent Wait with healthy tasks succeeds.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, WorkerThreadsAreMarked) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(1);
  std::atomic<bool> marked{false};
  pool.Submit([&marked] { marked = ThreadPool::InWorkerThread(); });
  pool.Wait();
  EXPECT_TRUE(marked.load());
}

// ---------------------------------------------------------------------------
// Thread configuration
// ---------------------------------------------------------------------------

TEST(ThreadConfigTest, SetAndGet) {
  ScopedThreads guard(3);
  EXPECT_EQ(NumThreads(), 3u);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1u);
}

TEST(ThreadConfigTest, ZeroSelectsHardwareConcurrency) {
  ScopedThreads guard(2);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1u);
}

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

// Every index in [begin, end) must be visited exactly once, whatever the
// grain/thread combination.
void ExpectFullCoverage(std::size_t begin, std::size_t end, std::size_t grain,
                        std::size_t threads) {
  ScopedThreads guard(threads);
  std::vector<std::atomic<int>> visits(end);
  for (auto& v : visits) v = 0;
  ParallelFor(begin, end, grain, [&](std::size_t i0, std::size_t i1) {
    EXPECT_LE(i0, i1);
    for (std::size_t i = i0; i < i1; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < begin; ++i) EXPECT_EQ(visits[i].load(), 0);
  for (std::size_t i = begin; i < end; ++i)
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ScopedThreads guard(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  ParallelFor(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RangeSmallerThanThreads) {
  ExpectFullCoverage(0, 3, 1, 8);
}

TEST(ParallelForTest, GrainLargerThanRange) {
  ExpectFullCoverage(0, 5, 100, 4);
}

TEST(ParallelForTest, GrainZeroIsClampedToOne) {
  ExpectFullCoverage(0, 9, 0, 4);
}

TEST(ParallelForTest, NonZeroBeginAndRaggedLastChunk) {
  ExpectFullCoverage(3, 17, 4, 3);  // chunks 3-6, 7-10, 11-14, 15-16
}

TEST(ParallelForTest, SerialConfigurationRunsInline) {
  ScopedThreads guard(1);
  std::vector<int> visits(16, 0);
  ParallelFor(0, 16, 2, [&](std::size_t i0, std::size_t i1) {
    EXPECT_FALSE(ThreadPool::InWorkerThread());
    for (std::size_t i = i0; i < i1; ++i) ++visits[i];
  });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 16);
}

TEST(ParallelForTest, RethrowsLowestChunkException) {
  ScopedThreads guard(4);
  // Chunks 2 and 5 both fail; the surfaced message must always be chunk 2's,
  // independent of scheduling.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      ParallelFor(0, 8, 1, [&](std::size_t i0, std::size_t) {
        if (i0 == 2) throw std::runtime_error("chunk2");
        if (i0 == 5) throw std::runtime_error("chunk5");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk2");
    }
  }
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  ScopedThreads guard(4);
  std::vector<std::atomic<int>> visits(64);
  for (auto& v : visits) v = 0;
  ParallelFor(0, 8, 1, [&](std::size_t o0, std::size_t o1) {
    for (std::size_t o = o0; o < o1; ++o) {
      ParallelFor(0, 8, 1, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          visits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForTest, NestedCallRunsInlineOnCallerAndWorkerChunks) {
  // One outer chunk per thread, each held until every thread has taken one,
  // so the calling thread and every worker each own exactly one chunk. The
  // inner multi-chunk call must run as one whole-range call on the thread
  // that issued it — the caller included, which must not hand inner chunks
  // to workers busy with the outer launch.
  for (std::size_t threads : {2u, 4u}) {
    ScopedThreads guard(threads);
    std::atomic<std::size_t> arrived{0};
    std::vector<std::size_t> inner_calls(threads, 0);
    std::vector<std::size_t> inner_width(threads, 0);
    std::vector<unsigned char> same_thread(threads, 0);
    std::vector<unsigned char> on_caller(threads, 0);
    ParallelFor(0, threads, 1, [&](std::size_t o0, std::size_t o1) {
      arrived.fetch_add(1);
      while (arrived.load() < threads) std::this_thread::yield();
      for (std::size_t o = o0; o < o1; ++o) {
        const bool outer_on_worker = ThreadPool::InWorkerThread();
        on_caller[o] = outer_on_worker ? 0 : 1;
        EXPECT_TRUE(InParallelSection());
        ParallelFor(0, 8, 1, [&](std::size_t i0, std::size_t i1) {
          ++inner_calls[o];
          inner_width[o] = i1 - i0;
          same_thread[o] =
              ThreadPool::InWorkerThread() == outer_on_worker ? 1 : 0;
        });
      }
    });
    EXPECT_FALSE(InParallelSection());
    std::size_t caller_chunks = 0;
    for (std::size_t o = 0; o < threads; ++o) {
      EXPECT_EQ(inner_calls[o], 1u) << "threads=" << threads << " o=" << o;
      EXPECT_EQ(inner_width[o], 8u) << "threads=" << threads << " o=" << o;
      EXPECT_EQ(same_thread[o], 1) << "threads=" << threads << " o=" << o;
      caller_chunks += on_caller[o];
    }
    EXPECT_EQ(caller_chunks, 1u) << "threads=" << threads;
  }
}

TEST(SplitByWeightTest, CutsContiguousNonEmptyGroupsOfNearEqualWeight) {
  using Bounds = std::vector<std::size_t>;
  EXPECT_EQ(SplitByWeight({1, 1, 1, 1}, 2), (Bounds{0, 2, 4}));
  EXPECT_EQ(SplitByWeight({6, 6, 6, 1, 1, 1, 1, 1, 1}, 2),
            (Bounds{0, 2, 9}));  // 12 | 12
  EXPECT_EQ(SplitByWeight({12, 1, 1, 1, 1}, 2), (Bounds{0, 1, 5}));
  // More parts than items: one item per group, never an empty one.
  EXPECT_EQ(SplitByWeight({5, 0, 7}, 8), (Bounds{0, 1, 2, 3}));
  // A heavy tail: the weightless items fill the earlier groups, and the
  // heavy one is left a group of its own.
  EXPECT_EQ(SplitByWeight({0, 0, 0, 100}, 3), (Bounds{0, 2, 3, 4}));
  EXPECT_EQ(SplitByWeight({3, 4}, 1), (Bounds{0, 2}));
  EXPECT_EQ(SplitByWeight({}, 4), (Bounds{0, 0}));
}

// ---------------------------------------------------------------------------
// ParallelReduceSum
// ---------------------------------------------------------------------------

TEST(ParallelReduceTest, SumsTheRange) {
  ScopedThreads guard(4);
  const double total = ParallelReduceSum(
      0, 1000, 64, [](std::size_t i0, std::size_t i1) {
        double s = 0.0;
        for (std::size_t i = i0; i < i1; ++i) s += static_cast<double>(i);
        return s;
      });
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST(ParallelReduceTest, BitwiseIdenticalAcrossThreadCounts) {
  // Ill-conditioned summands make any reassociation visible in the bits.
  auto chunk_sum = [](std::size_t i0, std::size_t i1) {
    double s = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      s += (i % 3 == 0 ? 1e16 : 1.0) * (i % 2 == 0 ? 1.0 : -0.999999);
    }
    return s;
  };
  std::vector<double> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ScopedThreads guard(threads);
    results.push_back(ParallelReduceSum(0, 4097, 32, chunk_sum));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelReduceTest, EmptyRangeIsZero) {
  ScopedThreads guard(4);
  EXPECT_EQ(ParallelReduceSum(4, 4, 8,
                              [](std::size_t, std::size_t) { return 1.0; }),
            0.0);
}

}  // namespace
}  // namespace core
}  // namespace whitenrec
