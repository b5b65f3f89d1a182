#ifndef WHITENREC_LINALG_KERNEL_H_
#define WHITENREC_LINALG_KERNEL_H_

// Attributes shared by the vectorized inner loops of linalg (the GEMM
// micro-kernels, the top-K tile gate). Internal to the .cc files of this
// module.

#if defined(__GNUC__) || defined(__clang__)
#define WR_RESTRICT __restrict__
#define WR_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define WR_RESTRICT
#define WR_ALWAYS_INLINE inline
#endif

// Clones a function per ISA level (resolved once via ifunc): the baseline
// x86-64 build stays portable while AVX2/AVX-512 hardware gets full vector
// width. Every clone performs the identical per-element operation sequence
// (-ffp-contract=off, no reassociation), so the dispatch cannot change a
// single bit of output.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(WHITENREC_NO_TARGET_CLONES)
#define WR_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define WR_KERNEL_CLONES
#endif

#endif  // WHITENREC_LINALG_KERNEL_H_
