// Tests for the BLAS substrate: GEMM variants against naive references,
// Cholesky/solves/eigensolver against known identities, over random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "blas/smat.h"
#include "blas/variants.h"
#include "common/rng.h"

namespace flashr {
namespace {

smat random_mat(std::size_t m, std::size_t n, std::uint64_t seed) {
  smat a(m, n);
  rng64 rng(seed);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) a(i, j) = rng.next_normal();
  return a;
}

smat naive_mm(const smat& a, const smat& b) {
  smat c(a.nrow(), b.ncol());
  for (std::size_t i = 0; i < a.nrow(); ++i)
    for (std::size_t j = 0; j < b.ncol(); ++j) {
      double s = 0;
      for (std::size_t k = 0; k < a.ncol(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

struct gemm_case {
  std::size_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<gemm_case> {};

TEST_P(GemmTest, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  smat a = random_mat(m, k, 1), b = random_mat(k, n, 2);
  smat c = a.mm(b);
  EXPECT_LT(c.max_abs_diff(naive_mm(a, b)), 1e-9 * static_cast<double>(k + 1));
}

TEST_P(GemmTest, TnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  smat a = random_mat(k, m, 3), b = random_mat(k, n, 4);
  smat c = a.crossprod(b);
  EXPECT_LT(c.max_abs_diff(naive_mm(a.t(), b)),
            1e-9 * static_cast<double>(k + 1));
}

TEST_P(GemmTest, AccumulatesWithBeta) {
  const auto [m, n, k] = GetParam();
  smat a = random_mat(m, k, 5), b = random_mat(k, n, 6);
  smat c = random_mat(m, n, 7);
  smat expect = c + naive_mm(a, b) * 2.0;
  blas::gemm_nn(m, n, k, 2.0, a.data(), m, b.data(), k, 1.0, c.data(), m);
  EXPECT_LT(c.max_abs_diff(expect), 1e-9 * static_cast<double>(k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(gemm_case{1, 1, 1}, gemm_case{3, 5, 7},
                      gemm_case{16, 16, 16}, gemm_case{33, 2, 65},
                      gemm_case{257, 4, 31}, gemm_case{64, 64, 300},
                      gemm_case{5, 260, 9}, gemm_case{300, 3, 300}));

TEST(Gemv, MatchesNaive) {
  smat a = random_mat(37, 11, 8);
  std::vector<double> x(11), y(37, 0.5), expect(37);
  rng64 rng(9);
  for (auto& v : x) v = rng.next_normal();
  for (std::size_t i = 0; i < 37; ++i) {
    double s = 0.25 * y[i];
    for (std::size_t j = 0; j < 11; ++j) s += 2.0 * a(i, j) * x[j];
    expect[i] = s;
  }
  blas::gemv(37, 11, 2.0, a.data(), 37, x.data(), 0.25, y.data());
  for (std::size_t i = 0; i < 37; ++i) EXPECT_NEAR(y[i], expect[i], 1e-10);
}

smat random_spd(std::size_t n, std::uint64_t seed) {
  smat a = random_mat(n + 3, n, seed);
  smat s = a.crossprod(a);  // A^T A is SPD (full rank w.h.p.)
  for (std::size_t i = 0; i < n; ++i) s(i, i) += 0.5;
  return s;
}

class SpdTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdTest, CholeskyReconstructs) {
  const std::size_t n = GetParam();
  smat s = random_spd(n, 10);
  smat l = s;
  ASSERT_TRUE(blas::cholesky(n, l.data(), n));
  smat recon = l.mm(l.t());
  EXPECT_LT(recon.max_abs_diff(s), 1e-8 * static_cast<double>(n + 1));
}

TEST_P(SpdTest, SpdInverse) {
  const std::size_t n = GetParam();
  smat s = random_spd(n, 11);
  smat inv = s;
  ASSERT_TRUE(blas::spd_inverse(n, inv.data(), n));
  smat prod = s.mm(inv);
  EXPECT_LT(prod.max_abs_diff(smat::identity(n)),
            1e-6 * static_cast<double>(n + 1));
}

TEST_P(SpdTest, JacobiEigenReconstructs) {
  const std::size_t n = GetParam();
  smat s = random_spd(n, 12);
  smat work = s;
  std::vector<double> w(n);
  smat v(n, n);
  blas::jacobi_eigen(n, work.data(), n, w.data(), v.data(), n);
  // Eigenvalues descending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(w[i], w[i - 1] + 1e-12);
  // V diag(w) V^T == S.
  smat vd = v;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) vd(i, j) *= w[j];
  smat recon = vd.mm(v.t());
  EXPECT_LT(recon.max_abs_diff(s), 1e-7 * static_cast<double>(n + 1));
  // V orthonormal.
  smat vtv = v.crossprod(v);
  EXPECT_LT(vtv.max_abs_diff(smat::identity(n)),
            1e-8 * static_cast<double>(n + 1));
}

TEST_P(SpdTest, LuSolve) {
  const std::size_t n = GetParam();
  smat a = random_mat(n, n, 13);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
  smat x_true = random_mat(n, 2, 14);
  smat b = a.mm(x_true);
  smat a_work = a;
  ASSERT_TRUE(blas::lu_solve(n, 2, a_work.data(), n, b.data(), n));
  EXPECT_LT(b.max_abs_diff(x_true), 1e-7 * static_cast<double>(n + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdTest,
                         ::testing::Values(1, 2, 3, 8, 17, 40, 96));

TEST(Cholesky, RejectsIndefinite) {
  smat s = smat::from_rows(2, 2, {1.0, 2.0, 2.0, 1.0});  // eigenvalues 3, -1
  EXPECT_FALSE(blas::cholesky(2, s.data(), 2));
}

TEST(LuSolve, RejectsSingular) {
  smat s = smat::from_rows(2, 2, {1.0, 2.0, 2.0, 4.0});
  smat b(2, 1, 1.0);
  EXPECT_FALSE(blas::lu_solve(2, 1, s.data(), 2, b.data(), 2));
}

TEST(TriangularSolves, ForwardBackward) {
  const std::size_t n = 6;
  smat s = random_spd(n, 15);
  smat l = s;
  ASSERT_TRUE(blas::cholesky(n, l.data(), n));
  std::vector<double> b(n);
  rng64 rng(16);
  for (auto& v : b) v = rng.next_normal();
  std::vector<double> x = b;
  blas::forward_subst(n, l.data(), n, x.data());
  blas::backward_subst_t(n, l.data(), n, x.data());
  // L L^T x == b means S x == b.
  for (std::size_t i = 0; i < n; ++i) {
    double got = 0;
    for (std::size_t j = 0; j < n; ++j) got += s(i, j) * x[j];
    EXPECT_NEAR(got, b[i], 1e-8);
  }
}

TEST(CholeskyLogdet, MatchesEigenSum) {
  const std::size_t n = 9;
  smat s = random_spd(n, 17);
  smat l = s;
  ASSERT_TRUE(blas::cholesky(n, l.data(), n));
  const double ld = blas::cholesky_logdet(n, l.data(), n);
  smat work = s;
  std::vector<double> w(n);
  blas::jacobi_eigen(n, work.data(), n, w.data(), nullptr, 0);
  double expect = 0;
  for (double v : w) expect += std::log(v);
  EXPECT_NEAR(ld, expect, 1e-8);
}

TEST(Smat, BasicOps) {
  smat a = smat::from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(a(0, 1), 2.0);
  EXPECT_EQ(a(1, 2), 6.0);
  smat at = a.t();
  EXPECT_EQ(at.nrow(), 3u);
  EXPECT_EQ(at(1, 0), 2.0);
  smat sum = a + a;
  EXPECT_EQ(sum(1, 1), 10.0);
  smat diff = sum - a;
  EXPECT_LT(diff.max_abs_diff(a), 1e-15);
  smat r = a.row(1);
  EXPECT_EQ(r(0, 0), 4.0);
  smat c = a.col(2);
  EXPECT_EQ(c(1, 0), 6.0);
}


// ---- every kernel build against the scalar loops, bit for bit --------------
//
// The reference loops are the chunk kernels as they were before the
// register-blocked builds. Each build must match them under memcmp, NaN, Inf,
// -0.0 and denormal inputs included (DESIGN.md §11.2).

// C = alpha*A*B + beta*C, cache-blocked rank-1 updates.
void ref_gemm_nn(std::size_t m, std::size_t n, std::size_t k, double alpha,
                 const double* A, std::size_t lda, const double* B,
                 std::size_t ldb, double beta, double* C, std::size_t ldc) {
  constexpr std::size_t kMc = 256, kKc = 256, kNr = 4;
  if (beta != 1.0)
    for (std::size_t j = 0; j < n; ++j) {
      double* c = C + j * ldc;
      if (beta == 0.0)
        std::fill(c, c + m, 0.0);
      else
        for (std::size_t i = 0; i < m; ++i) c[i] *= beta;
    }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t kb = std::min(kKc, k - kk);
    for (std::size_t ii = 0; ii < m; ii += kMc) {
      const std::size_t mb = std::min(kMc, m - ii);
      std::size_t j = 0;
      for (; j + kNr <= n; j += kNr) {
        double* c0 = C + (j + 0) * ldc + ii;
        double* c1 = C + (j + 1) * ldc + ii;
        double* c2 = C + (j + 2) * ldc + ii;
        double* c3 = C + (j + 3) * ldc + ii;
        for (std::size_t p = 0; p < kb; ++p) {
          const double* a = A + (kk + p) * lda + ii;
          const double b0 = alpha * B[(j + 0) * ldb + kk + p];
          const double b1 = alpha * B[(j + 1) * ldb + kk + p];
          const double b2 = alpha * B[(j + 2) * ldb + kk + p];
          const double b3 = alpha * B[(j + 3) * ldb + kk + p];
          for (std::size_t i = 0; i < mb; ++i) {
            const double av = a[i];
            c0[i] += av * b0;
            c1[i] += av * b1;
            c2[i] += av * b2;
            c3[i] += av * b3;
          }
        }
      }
      for (; j < n; ++j) {
        double* c = C + j * ldc + ii;
        for (std::size_t p = 0; p < kb; ++p) {
          const double* a = A + (kk + p) * lda + ii;
          const double b = alpha * B[j * ldb + kk + p];
          for (std::size_t i = 0; i < mb; ++i) c[i] += a[i] * b;
        }
      }
    }
  }
}

// C += A^T*B, one ordered dot product per element.
void ref_gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k,
                     const double* A, std::size_t lda, const double* B,
                     std::size_t ldb, double* C, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* b = B + j * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const double* a = A + i * lda;
      double c = C[j * ldc + i];
      for (std::size_t p = 0; p < k; ++p) c += a[p] * b[p];
      C[j * ldc + i] = c;
    }
  }
}

// inner.prod(A, B, sqdiff, sum): kern::inner_prod's generic loop.
void ref_sqdist_nn(std::size_t m, std::size_t n, std::size_t k,
                   const double* A, std::size_t lda, const double* B,
                   std::size_t ldb, double* C, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    double* c = C + j * ldc;
    std::fill(c, c + m, 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      const double* a = A + p * lda;
      const double b = B[j * ldb + p];
      for (std::size_t i = 0; i < m; ++i) {
        const double d = a[i] - b;
        c[i] = c[i] + d * d;
      }
    }
  }
}

/// A column-major rows×cols matrix with leading dimension `ld`; the
/// padding holds a sentinel so a kernel writing past its rows shows up.
/// With `specials`, about one entry in 16 is NaN, ±Inf, -0.0 or a denormal.
/// The NaN is x86's default NaN (sign set), the one Inf - Inf and 0 * Inf
/// produce, so every NaN in flight has the same bits: when both operands of
/// a commutative op are NaNs with different bits, which one survives
/// depends on the operand order the compiler emits, which the source of
/// neither the reference loops nor the kernels fixes.
std::vector<double> fill_mat(std::size_t rows, std::size_t cols,
                             std::size_t ld, std::uint64_t seed,
                             bool specials) {
  static const double kSpecial[] = {
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min() * 3,
      -std::numeric_limits<double>::min() / 7};
  std::vector<double> v(std::max<std::size_t>(ld * cols, 1), -7.25);
  rng64 rng(seed);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i)
      v[j * ld + i] = specials && rng.next_below(16) == 0
                          ? kSpecial[rng.next_below(std::size(kSpecial))]
                          : rng.next_normal();
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr std::size_t kRows[] = {1, 15, 16, 17, 128, 256, 16384};
constexpr std::size_t kCols[] = {1, 8, 32, 40};  // gemm_tn_acc's m
constexpr std::size_t kOuts[] = {1, 6, 8, 64};   // output columns n
constexpr std::size_t kDepth[] = {0, 1, 32, 300};
// gemm_tn_acc's depth is the chunk's row count.
constexpr std::size_t kTnDepth[] = {0, 1, 15, 16, 17, 32, 128, 256, 300, 16384};
// Keeps the scalar reference's work per shape bounded: 16384 rows run with
// n <= 8 and depth <= 32.
constexpr std::size_t kMaxWork = std::size_t{5} << 20;
constexpr std::size_t kPad = 3;

class KernelVariant : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    const blas::kernel_variant& v = blas::kernel_variants()[GetParam()];
    if (!v.supported) GTEST_SKIP() << v.name << " is not supported here";
    fns_ = v.fns;
  }
  const blas::kernel_fns* fns_ = nullptr;
};

TEST_P(KernelVariant, GemmNnMatchesReference) {
  for (bool specials : {false, true})
    for (std::size_t m : kRows)
      for (std::size_t n : kOuts)
        for (std::size_t k : kDepth) {
          if (m * n * std::max<std::size_t>(k, 1) > kMaxWork) continue;
          const std::size_t lda = m + kPad, ldb = k + kPad, ldc = m + kPad;
          const auto A = fill_mat(m, k, lda, 1, specials);
          const auto B = fill_mat(k, n, ldb, 2, specials);
          const auto C0 = fill_mat(m, n, ldc, 3, specials);
          for (double alpha : {1.0, 2.0})
            for (double beta : {0.0, 1.0, 0.5}) {
              auto want = C0, got = C0;
              ref_gemm_nn(m, n, k, alpha, A.data(), lda, B.data(), ldb, beta,
                          want.data(), ldc);
              fns_->gemm_nn(m, n, k, alpha, A.data(), lda, B.data(), ldb,
                            beta, got.data(), ldc);
              EXPECT_TRUE(same_bits(got, want))
                  << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
                  << " beta=" << beta << " specials=" << specials;
            }
        }
}

TEST_P(KernelVariant, GemmTnAccMatchesReference) {
  for (bool specials : {false, true})
    for (std::size_t m : kCols)
      for (std::size_t n : kOuts)
        for (std::size_t depth : kTnDepth) {
          if (m * n * std::max<std::size_t>(depth, 1) > kMaxWork) continue;
          const std::size_t lda = depth + kPad, ldb = depth + kPad,
                            ldc = m + kPad;
          const auto A = fill_mat(depth, m, lda, 4, specials);
          const auto B = fill_mat(depth, n, ldb, 5, specials);
          auto want = fill_mat(m, n, ldc, 6, specials), got = want;
          ref_gemm_tn_acc(m, n, depth, A.data(), lda, B.data(), ldb,
                          want.data(), ldc);
          fns_->gemm_tn_acc(m, n, depth, A.data(), lda, B.data(), ldb,
                            got.data(), ldc);
          EXPECT_TRUE(same_bits(got, want))
              << "m=" << m << " n=" << n << " k=" << depth
              << " specials=" << specials;
        }
}

// Splitting the depth into any sequence of calls gives the same C: the
// property the chunked crossprod sinks rely on.
TEST_P(KernelVariant, GemmTnAccIsSplitInvariant) {
  const std::size_t m = 40, n = 6, k = 700;
  const auto A = fill_mat(k, m, k, 7, false);
  const auto B = fill_mat(k, n, k, 8, false);
  const auto C0 = fill_mat(m, n, m, 9, false);
  auto whole = C0;
  fns_->gemm_tn_acc(m, n, k, A.data(), k, B.data(), k, whole.data(), m);
  for (std::size_t step : {1, 15, 16, 17, 100, 256, 257}) {
    auto split = C0;
    for (std::size_t p0 = 0; p0 < k; p0 += step) {
      const std::size_t kb = std::min(step, k - p0);
      fns_->gemm_tn_acc(m, n, kb, A.data() + p0, k, B.data() + p0, k,
                        split.data(), m);
    }
    EXPECT_TRUE(same_bits(split, whole)) << "step=" << step;
  }
}

TEST_P(KernelVariant, SqdistMatchesReference) {
  for (bool specials : {false, true})
    for (std::size_t m : kRows)
      for (std::size_t n : kOuts)
        for (std::size_t k : kDepth) {
          if (m * n * std::max<std::size_t>(k, 1) > kMaxWork) continue;
          const std::size_t lda = m + kPad, ldb = k + kPad, ldc = m + kPad;
          const auto A = fill_mat(m, k, lda, 10, specials);
          const auto B = fill_mat(k, n, ldb, 11, specials);
          auto want = fill_mat(m, n, ldc, 12, specials), got = want;
          ref_sqdist_nn(m, n, k, A.data(), lda, B.data(), ldb, want.data(),
                        ldc);
          fns_->sqdist_nn(m, n, k, A.data(), lda, B.data(), ldb, got.data(),
                          ldc);
          EXPECT_TRUE(same_bits(got, want))
              << "m=" << m << " n=" << n << " k=" << k
              << " specials=" << specials;
        }
}

INSTANTIATE_TEST_SUITE_P(
    BlasVariants, KernelVariant,
    ::testing::Range(std::size_t{0}, blas::kernel_variants().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string(blas::kernel_variants()[param.param].name);
    });

// The public entry points run the widest build this CPU supports.
TEST(BlasVariants, ActiveIsWidestSupported) {
  const auto all = blas::kernel_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(all.front().supported);
  const blas::kernel_fns* widest = nullptr;
  for (const blas::kernel_variant& v : all)
    if (v.supported) widest = v.fns;
  EXPECT_EQ(&blas::active_kernels(), widest);
}

}  // namespace
}  // namespace flashr
