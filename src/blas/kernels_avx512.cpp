// The chunk kernels built with -mavx512f (src/CMakeLists.txt sets the flags
// and FLASHR_BLAS_AVX512 on x86-64 only). Nothing outside this file may run
// code compiled here unless the CPU supports AVX-512F: blas.cpp checks
// before it dispatches.
#if defined(FLASHR_BLAS_AVX512)
#define FLASHR_BLAS_ISA avx512
#include "blas/microkernel.h"
#endif
