#ifndef WHITENREC_CORE_PARALLEL_H_
#define WHITENREC_CORE_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace whitenrec {
namespace core {

// Shared-memory parallelism substrate for the train/eval hot paths.
//
// Design constraints (see DESIGN.md "Parallelism & reproducibility"):
//  * Deterministic static chunking: ParallelFor/ParallelReduceSum partition
//    [begin, end) into chunks whose boundaries depend ONLY on the range and
//    the grain — never on the thread count or on scheduling. Workers race for
//    chunk *indices*, but each chunk's work and each output location is owned
//    by exactly one chunk, so results are bitwise identical at any thread
//    count.
//  * Fixed-order reductions: ParallelReduceSum accumulates one partial per
//    chunk and sums the partials in ascending chunk order on the calling
//    thread. No atomics on doubles anywhere.
//  * Nested calls degrade gracefully: a ParallelFor issued from inside a
//    chunk runs inline as one whole-range call, on a worker and on the
//    calling thread alike, so layers that compose parallel kernels
//    (attention -> Linear -> MatMul) neither deadlock, oversubscribe, nor
//    wait on workers busy with the outer launch.

// A fixed-size pool of worker threads consuming a FIFO task queue.
// Exceptions escaping a task are captured; the first one observed is
// rethrown from Wait(). Submit() is safe from any thread, including from
// inside a running task (nested submit).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  // Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running, then rethrows
  // the first captured task exception (if any).
  void Wait();

  // True when the calling thread is one of this process's pool workers (any
  // pool). Used by ParallelFor to run nested parallel sections inline.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signals: task available or stopping
  std::condition_variable idle_cv_;   // signals: queue drained + all idle
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

// True inside a parallel section: on a pool worker, or on a ParallelFor's
// calling thread while it runs that launch's chunks. A ParallelFor issued
// here runs inline.
bool InParallelSection();

// --- Global thread configuration -------------------------------------------

// Number of threads parallel kernels use (>= 1; 1 means serial). Initialized
// on first use from the WHITENREC_THREADS environment variable, falling back
// to std::thread::hardware_concurrency().
std::size_t NumThreads();

// Overrides the global thread count at runtime (rebuilds the shared pool).
// n == 0 selects hardware concurrency. Must not be called from inside a
// parallel section.
void SetNumThreads(std::size_t n);

// --- Deterministic parallel loops ------------------------------------------

// Invokes fn(chunk_begin, chunk_end) over a static partition of [begin, end)
// into chunks of `grain` indices (the last chunk may be shorter; grain 0 is
// clamped to 1). Chunks may run concurrently and in any order, so fn must
// write only to locations owned by its chunk. Blocks until every chunk has
// run; rethrows the exception of the lowest-indexed failing chunk.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn);

// Sum-reduction companion: fn(chunk_begin, chunk_end) returns the chunk's
// partial sum; partials are combined in ascending chunk order. Because the
// chunk structure is thread-count independent, the result is bitwise
// identical at any thread count (though it may differ from a single
// left-to-right sweep when grain < range).
double ParallelReduceSum(std::size_t begin, std::size_t end, std::size_t grain,
                         const std::function<double(std::size_t, std::size_t)>& fn);

// Cuts the items [0, weights.size()) into at most `parts` contiguous,
// non-empty groups of near-equal total weight (one empty group when there
// are no items) and returns their bounds: group g is
// [bounds[g], bounds[g + 1]). A pure function of its inputs.
// Callers hand one group per pool thread to one ParallelFor when items
// carry uneven work (the serving forward splits sessions by row count).
std::vector<std::size_t> SplitByWeight(const std::vector<std::size_t>& weights,
                                       std::size_t parts);

// Picks a grain so each chunk carries at least `min_work` scalar operations
// when one index costs `work_per_index`, keeping per-chunk overhead amortized.
inline std::size_t GrainForWork(std::size_t work_per_index,
                                std::size_t min_work = 16384) {
  if (work_per_index == 0) work_per_index = 1;
  const std::size_t g = min_work / work_per_index;
  return g == 0 ? 1 : g;
}

}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_PARALLEL_H_
