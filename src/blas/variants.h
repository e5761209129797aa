// The chunk kernels' per-ISA builds.
//
// blas/microkernel.h is compiled once per entry of the table below:
// kernels_generic.cpp with the build's default flags, kernels_avx512.cpp
// with -mavx512f (x86-64 only). The public blas::gemm_nn, blas::gemm_tn_acc
// and blas::sqdist_nn dispatch to the widest build the CPU supports, picked
// once on first use; there is no option to override it because every build
// gives bit-identical results (DESIGN.md §11.2). The table exists so tests
// and benches can call each build directly.
#pragma once

#include <cstddef>
#include <span>

namespace flashr::blas {

/// One ISA build of the three chunk kernels; same contracts as blas.h.
struct kernel_fns {
  void (*gemm_nn)(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* A, std::size_t lda, const double* B,
                  std::size_t ldb, double beta, double* C, std::size_t ldc);
  void (*gemm_tn_acc)(std::size_t m, std::size_t n, std::size_t k,
                      const double* A, std::size_t lda, const double* B,
                      std::size_t ldb, double* C, std::size_t ldc);
  void (*sqdist_nn)(std::size_t m, std::size_t n, std::size_t k,
                    const double* A, std::size_t lda, const double* B,
                    std::size_t ldb, double* C, std::size_t ldc);
};

namespace generic {
extern const kernel_fns kernels;
}
#if defined(FLASHR_BLAS_AVX512)
namespace avx512 {
extern const kernel_fns kernels;
}
#endif

struct kernel_variant {
  const char* name;
  bool supported;  // this CPU can run it
  const kernel_fns* fns;
};

/// Every compiled build, narrowest first.
std::span<const kernel_variant> kernel_variants();

/// The build the public kernels run: the last supported entry.
const kernel_fns& active_kernels();

}  // namespace flashr::blas
