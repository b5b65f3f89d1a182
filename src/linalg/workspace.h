#ifndef WHITENREC_LINALG_WORKSPACE_H_
#define WHITENREC_LINALG_WORKSPACE_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "linalg/matrix.h"

namespace whitenrec {
namespace linalg {

// Reusable scratch memory for per-call temporaries on the train/eval hot
// paths (GEMM packing panels, per-batch logits/gradient matrices). A
// Workspace hands out slots whose backing allocations persist across calls,
// so steady-state training reshapes existing buffers instead of hitting the
// allocator every step. Slots are identified by small integer keys chosen by
// the owner; a slot grows monotonically to the largest size requested.
//
// A Workspace is NOT thread-safe; each owner (a model, a kernel invocation,
// a worker thread) uses its own. Kernel-internal scratch goes through
// ThreadLocalWorkspace() below.
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // Returns slot `slot` reshaped to (rows, cols) and zero-filled, reusing
  // the slot's existing heap allocation when its capacity allows.
  Matrix& Mat(std::size_t slot, std::size_t rows, std::size_t cols) {
    Matrix& m = MatRef(slot);
    m.Resize(rows, cols);
    return m;
  }

  // Returns slot `slot` as-is (empty on first use). Useful as a persistent
  // destination for the *Into GEMM entry points and for capacity-reusing
  // copy assignment.
  Matrix& MatRef(std::size_t slot) {
    if (slot >= mats_.size()) mats_.resize(slot + 1);
    return mats_[slot];
  }

  // Returns a raw buffer of at least n doubles. Contents are unspecified:
  // callers must fully overwrite what they read.
  std::vector<double>& Buf(std::size_t slot, std::size_t n) {
    if (slot >= bufs_.size()) bufs_.resize(slot + 1);
    if (bufs_[slot].size() < n) bufs_[slot].resize(n);
    return bufs_[slot];
  }

  // Heap bytes currently held across all slots. Because Matrix::Resize and
  // Buf never shrink capacity, this is non-decreasing between Clear() calls.
  std::size_t CurrentBytes() const;

  // High-water mark of CurrentBytes() over this workspace's lifetime. Slot
  // capacity only moves through CurrentBytes() monotonically (callers mutate
  // slots through references the workspace cannot observe, but capacity
  // never shrinks), so the peak is max(peak at last Clear, CurrentBytes()).
  std::size_t PeakBytes() const;

  // Releases all slot allocations. The released capacity is folded into
  // PeakBytes() so the high-water mark survives the release.
  void Clear();

  // --- Process-wide accounting (benches and tests only) -------------------
  // Every live Workspace (model-owned and per-thread arenas) is tracked in a
  // process-wide registry. These aggregate views must only be called while
  // no parallel section is running: they read other threads' workspaces
  // without synchronizing against concurrent slot growth.

  // Sum of PeakBytes() over every live workspace plus the peaks of
  // workspaces destroyed since the last ResetAllWorkspaces().
  static std::size_t GlobalPeakBytes();

  // Clears every live workspace and zeroes all peak accounting, giving the
  // next measurement phase a fresh baseline. Callers must not hold slot
  // references across this call.
  static void ResetAllWorkspaces();

 private:
  // Deques, not vectors: acquiring a new slot must never move existing slot
  // objects, because callers hold references to them across further
  // Mat()/Buf() calls (e.g. a logits slot held while fetching dlogits).
  std::deque<Matrix> mats_;
  std::deque<std::vector<double>> bufs_;
  // Peak bytes observed at the last Clear()/ResetAllWorkspaces(); the live
  // peak is the max of this and CurrentBytes().
  std::size_t cleared_peak_ = 0;
};

// Reserved slot keys in the per-thread workspace. Kernel-internal scratch
// shares one thread-local arena; every user owns a distinct key so nested
// use (a GEMM issued while a loss holds its probs slot) cannot collide.
enum ThreadWorkspaceSlot : std::size_t {
  kWsGemmPackB = 0,     // packed B panel (calling thread)
  kWsGemmPackA = 1,     // packed A block (each worker thread)
  kWsLossRowMax = 2,    // streaming CE: per-row running max (calling thread)
  kWsLossRowSum = 3,    // streaming CE: per-row scaled exp sum
  kWsLossRowTarget = 4, // streaming CE: per-row target logit
  kWsStreamPackA = 5,   // packed score stream: whole packed A (calling thread)
  kWsSegProbs = 6,      // segment forward: one row's attention probabilities
  kWsLossProbs = 0,     // softmax probabilities (Mat slots, distinct space)
  kWsStreamBTile = 1,   // streaming scorer: current B (item) tile
  kWsStreamPanel = 2,   // streaming scorer: current score panel
  kWsLossDvTile = 3,    // streaming CE: per-tile dV accumulator
  // Segment (stacked serving) forward, one [R x *] matrix each:
  kWsSegInput = 4,      // embedded input rows (item + position)
  kWsSegHidden = 5,     // residual stream through the blocks
  kWsSegNorm = 6,       // LayerNorm output
  kWsSegQ = 7,          // query projection
  kWsSegK = 8,          // key projection
  kWsSegV = 9,          // value projection
  kWsSegMixed = 10,     // concatenated head outputs
  kWsSegOut = 11,       // sublayer output (attention or FFN)
  kWsSegFfn = 12,       // FFN hidden activations
  kWsSegAnswers = 13,   // one answer row per segment (serving caller)
};

// Per-thread scratch arena. Worker threads and the calling thread each get
// their own, so parallel kernels can pack into it without synchronization;
// the buffers live for the thread's lifetime and are reused by every kernel
// invocation on that thread.
Workspace& ThreadLocalWorkspace();

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_WORKSPACE_H_
