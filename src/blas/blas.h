// Dense linear-algebra kernels.
//
// The paper links against ATLAS for floating-point matrix multiplication
// (Table 2); this tree has no BLAS and provides its own kernels. They serve
// two roles:
//   * the chunk kernels of the GenOp fast paths: gemm_nn (tall partition
//     chunk times a small right-hand matrix, inner.prod), gemm_tn_acc
//     (crossprod sinks) and sqdist_nn (inner.prod with sqdiff/sum, the
//     k-means distance). They are register-blocked micro-kernels
//     (blas/microkernel.h), built once per ISA and picked by CPU at first
//     use (blas/variants.h). Every output element folds its depth index in
//     order with separate multiply and add, so results are bit-identical to
//     a plain scalar loop on every ISA (DESIGN.md §11.2);
//   * host-side math on small matrices (Cholesky, eigensolve, solves) needed
//     by PCA, GMM, mvrnorm and LDA.
//
// All kernels use column-major storage with explicit leading dimensions,
// matching the engine's within-partition layout.
#pragma once

#include <cstddef>

namespace flashr::blas {

/// C = alpha * A * B + beta * C.  A is m×k, B is k×n, C is m×n. Per
/// element: C = beta * C (0 when beta is 0), then C += A[i,p] * (alpha *
/// B[p,j]) for p = 0..k-1 in order. Built for T = double.
template <typename T>
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc);

/// C = alpha * A^T * B + beta * C.  A is k×m (so A^T is m×k), B is k×n.
/// This is the workhorse of crossprod-style sinks: per-partition chunks
/// accumulate into a small C with beta = 1.
template <typename T>
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc);

/// C += A^T * B, folding each C element strictly sequentially over k (no
/// blocked intermediate accumulator): splitting the k range across any
/// number of calls yields bit-identical C. The chunked crossprod sinks use
/// this so exec's Pcache chunk-size degradation cannot perturb results
/// (DESIGN.md §11.2); k is a Pcache chunk there, small enough that the
/// depth walk stays cache-resident. Built for T = double.
template <typename T>
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const T* A,
                 std::size_t lda, const T* B, std::size_t ldb, T* C,
                 std::size_t ldc);

/// C[i,j] = sum_p (A[i,p] - B[p,j])^2, folded from +0 in p order: the
/// k-means distance, inner.prod(A, B, sqdiff, sum). A is m×k, B is k×n.
void sqdist_nn(std::size_t m, std::size_t n, std::size_t k, const double* A,
               std::size_t lda, const double* B, std::size_t ldb, double* C,
               std::size_t ldc);

/// y = alpha * A * x + beta * y. A is m×n.
template <typename T>
void gemv(std::size_t m, std::size_t n, T alpha, const T* A, std::size_t lda,
          const T* x, T beta, T* y);

/// Cholesky factorization of a symmetric positive-definite n×n matrix A
/// (column-major, lda >= n): on return the lower triangle holds L with
/// A = L * L^T; the strict upper triangle is zeroed. Returns false if A is
/// not (numerically) positive definite.
bool cholesky(std::size_t n, double* A, std::size_t lda);

/// Solve L * x = b in place given the lower-triangular L from cholesky().
void forward_subst(std::size_t n, const double* L, std::size_t lda, double* b);

/// Solve L^T * x = b in place.
void backward_subst_t(std::size_t n, const double* L, std::size_t lda,
                      double* b);

/// Invert an SPD matrix via Cholesky. A is overwritten with A^{-1}.
/// Returns false if not positive definite.
bool spd_inverse(std::size_t n, double* A, std::size_t lda);

/// log(det(A)) for SPD A from its Cholesky factor L: 2 * sum(log(L_ii)).
double cholesky_logdet(std::size_t n, const double* L, std::size_t lda);

/// Symmetric eigendecomposition by the cyclic Jacobi method.
/// A (n×n, column-major, destroyed) -> eigenvalues in `w` (descending) and,
/// if `V` is non-null, the corresponding orthonormal eigenvectors in the
/// columns of V (n×n, ldv >= n). Suitable for the small Gramian matrices
/// (p <= ~1024) produced by PCA/LDA/mvrnorm.
void jacobi_eigen(std::size_t n, double* A, std::size_t lda, double* w,
                  double* V, std::size_t ldv);

/// Solve a general linear system A * X = B via partial-pivot LU.
/// A is n×n (destroyed), B is n×m (overwritten with X). Returns false if A
/// is singular to working precision.
bool lu_solve(std::size_t n, std::size_t m, double* A, std::size_t lda,
              double* B, std::size_t ldb);

}  // namespace flashr::blas
