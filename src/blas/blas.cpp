#include "blas/blas.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "blas/variants.h"
#include "common/error.h"

namespace flashr::blas {

namespace {

constexpr std::size_t kKc = 256;  // gemm_tn: depth per panel

template <typename T>
void scale_matrix(std::size_t m, std::size_t n, T beta, T* C,
                  std::size_t ldc) {
  if (beta == T{1}) return;
  for (std::size_t j = 0; j < n; ++j) {
    T* c = C + j * ldc;
    if (beta == T{0})
      std::fill(c, c + m, T{0});
    else
      for (std::size_t i = 0; i < m; ++i) c[i] *= beta;
  }
}

}  // namespace

std::span<const kernel_variant> kernel_variants() {
  static const kernel_variant table[] = {
      {"generic", true, &generic::kernels},
#if defined(FLASHR_BLAS_AVX512)
      {"avx512", __builtin_cpu_supports("avx512f") != 0, &avx512::kernels},
#endif
  };
  return table;
}

const kernel_fns& active_kernels() {
  static const kernel_fns& active = []() -> const kernel_fns& {
    const std::span<const kernel_variant> all = kernel_variants();
    for (std::size_t i = all.size(); i-- > 0;)
      if (all[i].supported) return *all[i].fns;
    return generic::kernels;
  }();
  return active;
}

template <typename T>
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc) {
  static_assert(std::is_same_v<T, double>, "chunk kernels are double only");
  active_kernels().gemm_nn(m, n, k, alpha, A, lda, B, ldb, beta, C, ldc);
}

template <typename T>
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, T alpha, const T* A,
             std::size_t lda, const T* B, std::size_t ldb, T beta, T* C,
             std::size_t ldc) {
  scale_matrix(m, n, beta, C, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T{0}) return;
  // C[i,j] += alpha * sum_p A[p,i] * B[p,j]: dot products of unit-stride
  // columns. Block over k to keep both columns resident in cache.
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t kb = std::min(kKc, k - kk);
    for (std::size_t j = 0; j < n; ++j) {
      const T* b = B + j * ldb + kk;
      for (std::size_t i = 0; i < m; ++i) {
        const T* a = A + i * lda + kk;
        T acc{0};
        for (std::size_t p = 0; p < kb; ++p) acc += a[p] * b[p];
        C[j * ldc + i] += alpha * acc;
      }
    }
  }
}

template <typename T>
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const T* A,
                 std::size_t lda, const T* B, std::size_t ldb, T* C,
                 std::size_t ldc) {
  static_assert(std::is_same_v<T, double>, "chunk kernels are double only");
  active_kernels().gemm_tn_acc(m, n, k, A, lda, B, ldb, C, ldc);
}

void sqdist_nn(std::size_t m, std::size_t n, std::size_t k, const double* A,
               std::size_t lda, const double* B, std::size_t ldb, double* C,
               std::size_t ldc) {
  active_kernels().sqdist_nn(m, n, k, A, lda, B, ldb, C, ldc);
}

template <typename T>
void gemv(std::size_t m, std::size_t n, T alpha, const T* A, std::size_t lda,
          const T* x, T beta, T* y) {
  if (beta == T{0})
    std::fill(y, y + m, T{0});
  else if (beta != T{1})
    for (std::size_t i = 0; i < m; ++i) y[i] *= beta;
  for (std::size_t j = 0; j < n; ++j) {
    const T s = alpha * x[j];
    const T* a = A + j * lda;
    for (std::size_t i = 0; i < m; ++i) y[i] += a[i] * s;
  }
}

// Explicit instantiations for the element types the engine dispatches on.
template void gemm_nn<double>(std::size_t, std::size_t, std::size_t, double,
                              const double*, std::size_t, const double*,
                              std::size_t, double, double*, std::size_t);
template void gemm_tn<double>(std::size_t, std::size_t, std::size_t, double,
                              const double*, std::size_t, const double*,
                              std::size_t, double, double*, std::size_t);
template void gemm_tn<float>(std::size_t, std::size_t, std::size_t, float,
                             const float*, std::size_t, const float*,
                             std::size_t, float, float*, std::size_t);
template void gemm_tn_acc<double>(std::size_t, std::size_t, std::size_t,
                                  const double*, std::size_t, const double*,
                                  std::size_t, double*, std::size_t);
template void gemv<double>(std::size_t, std::size_t, double, const double*,
                           std::size_t, const double*, double, double*);
template void gemv<float>(std::size_t, std::size_t, float, const float*,
                          std::size_t, const float*, float, float*);

bool cholesky(std::size_t n, double* A, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = A[j * lda + j];
    for (std::size_t p = 0; p < j; ++p) {
      const double l = A[p * lda + j];
      diag -= l * l;
    }
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    A[j * lda + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = A[j * lda + i];
      for (std::size_t p = 0; p < j; ++p)
        v -= A[p * lda + i] * A[p * lda + j];
      A[j * lda + i] = v / ljj;
    }
    for (std::size_t i = 0; i < j; ++i) A[j * lda + i] = 0.0;  // upper
  }
  return true;
}

void forward_subst(std::size_t n, const double* L, std::size_t lda,
                   double* b) {
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t j = 0; j < i; ++j) v -= L[j * lda + i] * b[j];
    b[i] = v / L[i * lda + i];
  }
}

void backward_subst_t(std::size_t n, const double* L, std::size_t lda,
                      double* b) {
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) v -= L[ii * lda + j] * b[j];
    b[ii] = v / L[ii * lda + ii];
  }
}

bool spd_inverse(std::size_t n, double* A, std::size_t lda) {
  std::vector<double> L(n * n);
  for (std::size_t j = 0; j < n; ++j)
    std::copy(A + j * lda, A + j * lda + n, L.data() + j * n);
  if (!cholesky(n, L.data(), n)) return false;
  // Solve A * X = I column by column.
  std::vector<double> col(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    col[j] = 1.0;
    forward_subst(n, L.data(), n, col.data());
    backward_subst_t(n, L.data(), n, col.data());
    std::copy(col.begin(), col.end(), A + j * lda);
  }
  return true;
}

double cholesky_logdet(std::size_t n, const double* L, std::size_t lda) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::log(L[i * lda + i]);
  return 2.0 * s;
}

void jacobi_eigen(std::size_t n, double* A, std::size_t lda, double* w,
                  double* V, std::size_t ldv) {
  if (V != nullptr) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        V[j * ldv + i] = (i == j) ? 1.0 : 0.0;
  }
  auto off_norm = [&] {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        if (i != j) s += A[j * lda + i] * A[j * lda + i];
    return s;
  };
  double frob = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      frob += A[j * lda + i] * A[j * lda + i];
  const double tol = 1e-24 * (frob > 0 ? frob : 1.0);

  const int max_sweeps = 64;
  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = A[q * lda + p];
        if (apq == 0.0) continue;
        const double app = A[p * lda + p];
        const double aqq = A[q * lda + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Rotate rows/columns p and q of the symmetric A.
        for (std::size_t i = 0; i < n; ++i) {
          const double aip = A[p * lda + i];
          const double aiq = A[q * lda + i];
          A[p * lda + i] = c * aip - s * aiq;
          A[q * lda + i] = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = A[i * lda + p];
          const double aqi = A[i * lda + q];
          A[i * lda + p] = c * api - s * aqi;
          A[i * lda + q] = s * api + c * aqi;
        }
        if (V != nullptr) {
          for (std::size_t i = 0; i < n; ++i) {
            const double vip = V[p * ldv + i];
            const double viq = V[q * ldv + i];
            V[p * ldv + i] = c * vip - s * viq;
            V[q * ldv + i] = s * vip + c * viq;
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) w[i] = A[i * lda + i];
  // Sort eigenvalues (and eigenvectors) in descending order.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  std::vector<double> wcopy(w, w + n);
  std::vector<double> vcopy;
  if (V != nullptr) {
    vcopy.resize(n * n);
    for (std::size_t j = 0; j < n; ++j)
      std::copy(V + j * ldv, V + j * ldv + n, vcopy.data() + j * n);
  }
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = wcopy[order[j]];
    if (V != nullptr)
      std::copy(vcopy.data() + order[j] * n, vcopy.data() + order[j] * n + n,
                V + j * ldv);
  }
}

bool lu_solve(std::size_t n, std::size_t m, double* A, std::size_t lda,
              double* B, std::size_t ldb) {
  std::vector<std::size_t> piv(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::abs(A[k * lda + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(A[k * lda + i]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-300) return false;
    piv[k] = p;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(A[j * lda + k], A[j * lda + p]);
      for (std::size_t j = 0; j < m; ++j)
        std::swap(B[j * ldb + k], B[j * ldb + p]);
    }
    const double pivot = A[k * lda + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = A[k * lda + i] / pivot;
      A[k * lda + i] = f;
      for (std::size_t j = k + 1; j < n; ++j)
        A[j * lda + i] -= f * A[j * lda + k];
      for (std::size_t j = 0; j < m; ++j) B[j * ldb + i] -= f * B[j * ldb + k];
    }
  }
  // Back substitution.
  for (std::size_t j = 0; j < m; ++j) {
    double* b = B + j * ldb;
    for (std::size_t ii = n; ii-- > 0;) {
      double v = b[ii];
      for (std::size_t c = ii + 1; c < n; ++c) v -= A[c * lda + ii] * b[c];
      b[ii] = v / A[ii * lda + ii];
    }
  }
  return true;
}

}  // namespace flashr::blas
