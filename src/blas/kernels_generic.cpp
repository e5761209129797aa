// The chunk kernels built with the library's default flags (SSE2 on
// x86-64). Always present; the fallback on CPUs without AVX-512.
#define FLASHR_BLAS_ISA generic
#include "blas/microkernel.h"
