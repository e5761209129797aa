// Register-blocked chunk kernels, written once and compiled once per ISA.
//
// A translation unit defines FLASHR_BLAS_ISA (the namespace its build lives
// in) and includes this header exactly once; the vector width follows from
// the flags that TU is compiled with: 64 bytes under -mavx512f, 16 (SSE2)
// otherwise. blas/variants.h lists the builds.
//
// Each kernel keeps an R-vector × J-column tile of outputs in registers and
// streams the depth dimension p in order. The bit-identity rule
// (DESIGN.md §11.2):
//   * vectorize only across independent output elements;
//   * never reassociate a reduction: every output folds p = 0, 1, ... in
//     order, one IEEE add per step, operands in the order the scalar loop
//     wrote them;
//   * never fuse a multiply-add (the library builds with -ffp-contract=off).
// So every output element sees the same IEEE operations in the same order
// as a plain scalar loop, and every build gives bit-identical results.
//
// Nothing here may be static or in an anonymous namespace: the kernels are
// named in profiles (`flashr::blas::avx512::gemm_nn`), which resolve
// symbols through dladdr.

#ifndef FLASHR_BLAS_ISA
#error "define FLASHR_BLAS_ISA before including blas/microkernel.h"
#endif

#include <cstddef>
#include <utility>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "blas/variants.h"

namespace flashr::blas::FLASHR_BLAS_ISA {

namespace mk {

// The main tile is kR vectors × kJ columns: as many accumulators as the
// register file holds beside the A vectors and a broadcast (32 zmm, 16 xmm).
#if defined(__AVX512F__)
inline constexpr std::size_t kVecBytes = 64;
inline constexpr std::size_t kR = 3;
inline constexpr std::size_t kJ = 8;
#else
inline constexpr std::size_t kVecBytes = 16;
inline constexpr std::size_t kR = 2;
inline constexpr std::size_t kJ = 4;
#endif
typedef double vec __attribute__((vector_size(kVecBytes)));
inline constexpr std::size_t W = kVecBytes / sizeof(double);

// Independent accumulators a tile needs to hide the add latency (4 cycles,
// two ports). A narrow column block gets taller tiles to keep that many.
inline constexpr std::size_t kChains = 8;
constexpr std::size_t rows_for(std::size_t j) {
  const std::size_t r = (kChains + j - 1) / j;
  return r < kR ? kR : r;
}

// gemm_tn_acc packs Aᵀ on the stack in blocks of at most kPackRows depth
// rows of a main tile; a taller tile gets proportionally fewer rows.
inline constexpr std::size_t kPackRows = 256;
inline constexpr std::size_t kPackDoubles = kPackRows * kR * W;

[[gnu::always_inline]] inline vec load(const double* p) {
  vec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
[[gnu::always_inline]] inline void store(double* p, vec v) {
  __builtin_memcpy(p, &v, sizeof v);
}
// The first `lanes` (< W) elements; the other lanes read as +0.
[[gnu::always_inline]] inline vec load_part(const double* p,
                                            std::size_t lanes) {
#if defined(__AVX512F__)
  return (vec)_mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << lanes) - 1),
                                    p);
#else
  vec v = {};
  for (std::size_t l = 0; l < lanes; ++l) v[l] = p[l];
  return v;
#endif
}
[[gnu::always_inline]] inline void store_part(double* p, vec v,
                                              std::size_t lanes) {
#if defined(__AVX512F__)
  _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << lanes) - 1),
                        (__m512d)v);
#else
  for (std::size_t l = 0; l < lanes; ++l) p[l] = v[l];
#endif
}
// Vector r of a tile of R: only the last one may be partial.
template <std::size_t R, bool PART>
[[gnu::always_inline]] inline vec load_r(const double* p, std::size_t r,
                                         std::size_t lanes) {
  return PART && r + 1 == R ? load_part(p, lanes) : load(p);
}
template <std::size_t R, bool PART>
[[gnu::always_inline]] inline void store_r(double* p, vec v, std::size_t r,
                                           std::size_t lanes) {
  if (PART && r + 1 == R)
    store_part(p, v, lanes);
  else
    store(p, v);
}

// Transpose a W×W block held as W vectors: v[l][q] -> v[q][l], in log2(W)
// stages that swap blocks of B lanes between vectors B apart.
template <std::size_t B, std::size_t... L>
[[gnu::always_inline]] inline void transpose_stage(vec* v,
                                                   std::index_sequence<L...>) {
#pragma GCC unroll 16
  for (std::size_t i = 0; i < W; ++i) {
    if ((i & B) != 0) continue;
    const vec x = v[i], y = v[i + B];
    v[i] = __builtin_shufflevector(x, y, ((L & B) == 0 ? L : W + L - B)...);
    v[i + B] = __builtin_shufflevector(x, y, ((L & B) == 0 ? L + B : W + L)...);
  }
}
[[gnu::always_inline]] inline void transpose(vec* v) {
  constexpr auto lanes = std::make_index_sequence<W>{};
  transpose_stage<1>(v, lanes);
  if constexpr (W >= 4) transpose_stage<2>(v, lanes);
  if constexpr (W >= 8) transpose_stage<4>(v, lanes);
}

// gemm_tn_acc's packing: pack[p·RW + ii] = A[ii·lda + p] for ii < rows and
// p < kb; lanes ii >= rows are zero. Whole W×W blocks are transposed in
// registers.
template <std::size_t RW>
void pack_t(const double* A, std::size_t lda, std::size_t rows, std::size_t kb,
            double* pack) {
  std::size_t ii = 0;
  for (; ii + W <= rows; ii += W) {
    std::size_t p = 0;
    for (; p + W <= kb; p += W) {
      vec v[W];
#pragma GCC unroll 16
      for (std::size_t l = 0; l < W; ++l) v[l] = load(A + (ii + l) * lda + p);
      transpose(v);
#pragma GCC unroll 16
      for (std::size_t q = 0; q < W; ++q) store(pack + (p + q) * RW + ii, v[q]);
    }
    for (; p < kb; ++p)
      for (std::size_t l = 0; l < W; ++l)
        pack[p * RW + ii + l] = A[(ii + l) * lda + p];
  }
  for (; ii < RW; ++ii) {
    const double* a = A + ii * lda;
    for (std::size_t p = 0; p < kb; ++p)
      pack[p * RW + ii] = ii < rows ? a[p] : 0.0;
  }
}

// ---- tiles: rows [0, (R-1)·W + lanes) × columns [0, J) of the output ----

// C = alpha·A·B + beta·C. C starts as beta·C (0 when beta is 0), then
// C += A[:,p] · (alpha·B[p,j]) for p in order.
template <std::size_t R, std::size_t J, bool PART>
void nn_tile(std::size_t k, double alpha, const double* A, std::size_t lda,
             const double* B, std::size_t ldb, double beta, double* C,
             std::size_t ldc, std::size_t lanes) {
  vec acc[J][R];
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
      if (beta == 0.0) {
        acc[j][r] = vec{};
      } else {
        const vec c = load_r<R, PART>(C + j * ldc + r * W, r, lanes);
        acc[j][r] = beta == 1.0 ? c : c * beta;
      }
    }
  for (std::size_t p = 0; p < k; ++p) {
    const double* a = A + p * lda;
    vec av[R];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      av[r] = load_r<R, PART>(a + r * W, r, lanes);
#pragma GCC unroll 16
    for (std::size_t j = 0; j < J; ++j) {
      const double b = alpha * B[j * ldb + p];
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) acc[j][r] = acc[j][r] + av[r] * b;
    }
  }
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      store_r<R, PART>(C + j * ldc + r * W, acc[j][r], r, lanes);
}

// C[i,j] = sum_p (A[i,p] - B[p,j])², folded from +0 in p order.
template <std::size_t R, std::size_t J, bool PART>
void sqdist_tile(std::size_t k, const double* A, std::size_t lda,
                 const double* B, std::size_t ldb, double* C, std::size_t ldc,
                 std::size_t lanes) {
  vec acc[J][R];
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) acc[j][r] = vec{};
  for (std::size_t p = 0; p < k; ++p) {
    const double* a = A + p * lda;
    vec av[R];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      av[r] = load_r<R, PART>(a + r * W, r, lanes);
#pragma GCC unroll 16
    for (std::size_t j = 0; j < J; ++j) {
      const double b = B[j * ldb + p];
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const vec d = av[r] - b;
        acc[j][r] = acc[j][r] + d * d;
      }
    }
  }
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      store_r<R, PART>(C + j * ldc + r * W, acc[j][r], r, lanes);
}

// C += Aᵀ·B over kb depth rows, with Aᵀ packed (R·W doubles per row, the
// lanes past the tile's rows zero).
template <std::size_t R, std::size_t J, bool PART>
void tn_tile(std::size_t kb, const double* pack, const double* B,
             std::size_t ldb, double* C, std::size_t ldc, std::size_t lanes) {
  vec acc[J][R];
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      acc[j][r] = load_r<R, PART>(C + j * ldc + r * W, r, lanes);
  for (std::size_t p = 0; p < kb; ++p) {
    vec av[R];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) av[r] = load(pack + (p * R + r) * W);
#pragma GCC unroll 16
    for (std::size_t j = 0; j < J; ++j) {
      const double b = B[j * ldb + p];
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) acc[j][r] = acc[j][r] + av[r] * b;
    }
  }
#pragma GCC unroll 16
  for (std::size_t j = 0; j < J; ++j)
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
      store_r<R, PART>(C + j * ldc + r * W, acc[j][r], r, lanes);
}

// ---- the walk over the output ----------------------------------------------
//
// Column blocks of kJ, then one block of the n % kJ leftover columns. Within
// a block of J columns, row tiles of rows_for(J) vectors; the rows left over
// form one shorter tile whose last vector is lane-masked. So no shape falls
// back to scalar code: m < W, n = 1 and row tails all run in vectors.
// `row.template operator()<R, J, PART>(i, lanes, j0, j1)` covers rows
// [i, i + (R-1)·W + lanes) for columns [j0, j1) in steps of J.

template <std::size_t R, std::size_t J, typename Row>
void row_tail(std::size_t i, std::size_t rem, std::size_t j0, std::size_t j1,
              Row& row) {
  if constexpr (R > 1) {
    if (rem <= (R - 1) * W) return row_tail<R - 1, J>(i, rem, j0, j1, row);
  }
  const std::size_t lanes = rem - (R - 1) * W;
  if (lanes == W)
    row.template operator()<R, J, false>(i, W, j0, j1);
  else
    row.template operator()<R, J, true>(i, lanes, j0, j1);
}

template <std::size_t J, typename Row>
void col_block(std::size_t m, std::size_t j0, std::size_t j1, Row& row) {
  constexpr std::size_t R = rows_for(J);
  std::size_t i = 0;
  for (; i + R * W <= m; i += R * W)
    row.template operator()<R, J, false>(i, W, j0, j1);
  if (i < m) row_tail<R, J>(i, m - i, j0, j1, row);
}

template <std::size_t J, typename Row>
void col_tail(std::size_t m, std::size_t j0, std::size_t n, Row& row) {
  if constexpr (J > 1) {
    if (n - j0 < J) return col_tail<J - 1>(m, j0, n, row);
  }
  col_block<J>(m, j0, n, row);
}

template <typename Row>
void walk(std::size_t m, std::size_t n, Row&& row) {
  const std::size_t nj = n - n % kJ;
  if (nj > 0) col_block<kJ>(m, 0, nj, row);
  if (nj < n) col_tail<kJ - 1>(m, nj, n, row);
}

}  // namespace mk

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, double alpha,
             const double* A, std::size_t lda, const double* B,
             std::size_t ldb, double beta, double* C, std::size_t ldc) {
  // alpha = 0 or k = 0 leaves only C = beta·C; A and B are not read.
  if (alpha == 0.0) k = 0;
  if (m == 0 || n == 0 || (k == 0 && beta == 1.0)) return;
  mk::walk(m, n,
           [&]<std::size_t R, std::size_t J, bool PART>(
               std::size_t i, std::size_t lanes, std::size_t j0,
               std::size_t j1) {
             for (std::size_t j = j0; j < j1; j += J)
               mk::nn_tile<R, J, PART>(k, alpha, A + i, lda, B + j * ldb, ldb,
                                       beta, C + j * ldc + i, ldc, lanes);
           });
}

void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const double* A,
                 std::size_t lda, const double* B, std::size_t ldb, double* C,
                 std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  mk::walk(m, n,
           [&]<std::size_t R, std::size_t J, bool PART>(
               std::size_t i, std::size_t lanes, std::size_t j0,
               std::size_t j1) {
             constexpr std::size_t RW = R * mk::W;
             constexpr std::size_t kb_max = mk::kPackDoubles / RW < mk::kPackRows
                                                ? mk::kPackDoubles / RW
                                                : mk::kPackRows;
             alignas(64) double pack[kb_max * RW];
             const std::size_t rows = (R - 1) * mk::W + lanes;
             for (std::size_t p0 = 0; p0 < k; p0 += kb_max) {
               const std::size_t kb = k - p0 < kb_max ? k - p0 : kb_max;
               mk::pack_t<RW>(A + i * lda + p0, lda, rows, kb, pack);
               for (std::size_t j = j0; j < j1; j += J)
                 mk::tn_tile<R, J, PART>(kb, pack, B + j * ldb + p0, ldb,
                                         C + j * ldc + i, ldc, lanes);
             }
           });
}

void sqdist_nn(std::size_t m, std::size_t n, std::size_t k, const double* A,
               std::size_t lda, const double* B, std::size_t ldb, double* C,
               std::size_t ldc) {
  if (m == 0 || n == 0) return;
  mk::walk(m, n,
           [&]<std::size_t R, std::size_t J, bool PART>(
               std::size_t i, std::size_t lanes, std::size_t j0,
               std::size_t j1) {
             for (std::size_t j = j0; j < j1; j += J)
               mk::sqdist_tile<R, J, PART>(k, A + i, lda, B + j * ldb, ldb,
                                           C + j * ldc + i, ldc, lanes);
           });
}

constinit const kernel_fns kernels = {&gemm_nn, &gemm_tn_acc, &sqdist_nn};

}  // namespace flashr::blas::FLASHR_BLAS_ISA
