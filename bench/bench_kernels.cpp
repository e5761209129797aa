// Kernel-level microbenchmarks (google-benchmark): raw throughput of the
// element kernels, the BLAS substrate and the sparse multiply, independent
// of the DAG machinery. Useful for spotting regressions in the hot loops
// that the figure-level benches aggregate over.
//
// The roofline rows run every build of the three chunk kernels
// (blas/variants.h) this CPU supports at the engine's chunk shapes, 7
// repetitions each, and write the medians to BENCH_kernels.json: GFLOP/s
// and the fraction of the measured single-core FMA peak. The kernels never
// fuse a multiply-add (DESIGN.md §11.2), so their ceiling is half that peak.
#include <benchmark/benchmark.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "blas/blas.h"
#include "blas/smat.h"
#include "blas/variants.h"
#include "common/rng.h"
#include "core/kernels.h"
#include "sparse/csr.h"

namespace flashr {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  rng64 rng(seed);
  for (auto& x : v) x = rng.next_normal();
  return v;
}

void BM_kern_map2_add(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 1), b = random_vec(rows * cols, 2);
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    kern::map2(scalar_type::f64, bop_id::add,
               {reinterpret_cast<const char*>(a.data()), rows},
               {reinterpret_cast<const char*>(b.data()), rows}, false, rows,
               cols, reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * 8 * 3));
}
BENCHMARK(BM_kern_map2_add)->Arg(1024)->Arg(16384);

void BM_kern_sapply_sqrt(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 3);
  for (auto& x : a) x = x * x;  // positive
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    kern::sapply(scalar_type::f64, uop_id::sqrt_v,
                 {reinterpret_cast<const char*>(a.data()), rows}, rows, cols,
                 reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * 8 * 2));
}
BENCHMARK(BM_kern_sapply_sqrt)->Arg(1024)->Arg(16384);

void BM_kern_inner_prod_sqdiff(benchmark::State& state) {
  // The k-means distance kernel: rows x 32 against 32 x 10 centers.
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t p = 32, k = 10;
  auto a = random_vec(rows * p, 4);
  smat centers(p, k);
  rng64 rng(5);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < p; ++i) centers(i, j) = rng.next_normal();
  std::vector<double> out(rows * k);
  for (auto _ : state) {
    kern::inner_prod(scalar_type::f64, bop_id::sqdiff, agg_id::sum,
                     {reinterpret_cast<const char*>(a.data()), rows}, rows, p,
                     centers, reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * p * k));
}
BENCHMARK(BM_kern_inner_prod_sqdiff)->Arg(1024)->Arg(8192);

void BM_kern_tmm_gemm(benchmark::State& state) {
  // The crossprod accumulation kernel: t(rows x 40) %*% (rows x 40).
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t p = 40;
  auto a = random_vec(rows * p, 6);
  std::vector<double> acc(p * p, 0);
  for (auto _ : state) {
    kern::tmm_acc(scalar_type::f64, bop_id::mul, agg_id::sum,
                  {reinterpret_cast<const char*>(a.data()), rows},
                  {reinterpret_cast<const char*>(a.data()), rows}, rows, p, p,
                  reinterpret_cast<char*>(acc.data()));
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * p * p));
}
BENCHMARK(BM_kern_tmm_gemm)->Arg(1024)->Arg(8192);

void BM_blas_gemm_nn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = random_vec(n * n, 7), b = random_vec(n * n, 8);
  std::vector<double> c(n * n);
  for (auto _ : state) {
    blas::gemm_nn(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_blas_gemm_nn)->Arg(64)->Arg(256);

void BM_jacobi_eigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  smat base(n, n);
  rng64 rng(9);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = rng.next_normal();
      base(i, j) = v;
      base(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) base(i, i) += static_cast<double>(n);
  std::vector<double> w(n);
  for (auto _ : state) {
    smat a = base;
    blas::jacobi_eigen(n, a.data(), n, w.data(), nullptr, 0);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_jacobi_eigen)->Arg(32)->Arg(64);

void BM_sparse_spmm(benchmark::State& state) {
  const std::size_t n = 100000;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  static sparse::csr_matrix g = sparse::csr_matrix::random_graph(n, 8.0, 10);
  smat d(n, k);
  rng64 rng(11);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) d(i, j) = rng.next_normal();
  for (auto _ : state) {
    smat out = g.spmm(d);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.nnz() * k));
}
BENCHMARK(BM_sparse_spmm)->Arg(1)->Arg(8);

// ---- roofline ----------------------------------------------------------

// Independent multiply-add chains on the widest FMA unit: the single-core
// double-precision peak the kernel rows are measured against.
constexpr int kPeakChains = 16;
constexpr std::size_t kPeakIters = 4096;

#if defined(__x86_64__)
[[gnu::target("avx512f")]] double fma_chains_avx512() {
  __m512d acc[kPeakChains];
  for (int i = 0; i < kPeakChains; ++i) acc[i] = _mm512_set1_pd(1.0 + i);
  const __m512d x = _mm512_set1_pd(0.999999), y = _mm512_set1_pd(1e-7);
  for (std::size_t n = 0; n < kPeakIters; ++n)
#pragma GCC unroll 16
    for (int i = 0; i < kPeakChains; ++i)
      acc[i] = _mm512_fmadd_pd(acc[i], x, y);
  alignas(64) double lanes[8];
  double s = 0;
  for (int i = 0; i < kPeakChains; ++i) {
    _mm512_store_pd(lanes, acc[i]);
    for (double l : lanes) s += l;
  }
  return s;
}

[[gnu::target("avx2,fma")]] double fma_chains_avx2() {
  __m256d acc[kPeakChains];
  for (int i = 0; i < kPeakChains; ++i) acc[i] = _mm256_set1_pd(1.0 + i);
  const __m256d x = _mm256_set1_pd(0.999999), y = _mm256_set1_pd(1e-7);
  for (std::size_t n = 0; n < kPeakIters; ++n)
#pragma GCC unroll 16
    for (int i = 0; i < kPeakChains; ++i)
      acc[i] = _mm256_fmadd_pd(acc[i], x, y);
  alignas(32) double lanes[4];
  double s = 0;
  for (int i = 0; i < kPeakChains; ++i) {
    _mm256_store_pd(lanes, acc[i]);
    for (double l : lanes) s += l;
  }
  return s;
}

void BM_roofline_peak(benchmark::State& state) {
  const bool avx512 = __builtin_cpu_supports("avx512f");
  if (!avx512 && !__builtin_cpu_supports("fma")) {
    state.SkipWithError("no FMA unit");
    return;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(avx512 ? fma_chains_avx512() : fma_chains_avx2());
  state.counters["flops"] = benchmark::Counter(
      2.0 * (avx512 ? 8 : 4) * kPeakChains * kPeakIters,
      benchmark::Counter::kIsIterationInvariantRate);
}
#else
void BM_roofline_peak(benchmark::State& state) {
  state.SkipWithError("the peak probe is written for x86-64");
}
#endif

struct roofline_row {
  std::string kernel, variant;
  const blas::kernel_fns* fns;
  std::size_t rows, p, k;  // sqdist/gemm_nn: rows×p · p×k; tn_acc: m=p, n=k
};

void BM_roofline(benchmark::State& state, const roofline_row& r) {
  const blas::kernel_fns* f = r.fns;
  const auto A = random_vec(r.rows * r.p, 20);
  const auto B = random_vec(std::max(r.p, r.rows) * r.k, 21);
  std::vector<double> C(std::max(r.rows, r.p) * r.k, 0.0);
  for (auto _ : state) {
    if (r.kernel == "sqdist_nn")
      f->sqdist_nn(r.rows, r.k, r.p, A.data(), r.rows, B.data(), r.p,
                   C.data(), r.rows);
    else if (r.kernel == "gemm_nn")
      f->gemm_nn(r.rows, r.k, r.p, 1.0, A.data(), r.rows, B.data(), r.p, 0.0,
                 C.data(), r.rows);
    else
      f->gemm_tn_acc(r.p, r.k, r.rows, A.data(), r.rows, B.data(), r.rows,
                     C.data(), r.p);
    benchmark::DoNotOptimize(C.data());
    benchmark::ClobberMemory();
  }
  const double flops = (r.kernel == "sqdist_nn" ? 3.0 : 2.0) *
                       static_cast<double>(r.rows * r.p * r.k);
  state.counters["flops"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate);
}

constexpr int kRooflineReps = 7;

std::string row_name(const roofline_row& r) {
  return "roofline/" + r.kernel + "/" + r.variant + "/rows:" +
         std::to_string(r.rows) + "/p:" + std::to_string(r.p) +
         "/k:" + std::to_string(r.k);
}

/// Registers the peak and one row per supported build × chunk shape.
std::vector<roofline_row> register_rooflines() {
  benchmark::RegisterBenchmark("roofline/peak", BM_roofline_peak)
      ->Repetitions(kRooflineReps)
      ->ReportAggregatesOnly(true);
  std::vector<roofline_row> rows;
  for (const blas::kernel_variant& v : blas::kernel_variants()) {
    if (!v.supported) continue;
    for (std::size_t n : {128, 256})
      for (std::size_t k : {8, 64})
        rows.push_back({"sqdist_nn", v.name, v.fns, n, 32, k});
    rows.push_back({"gemm_nn", v.name, v.fns, 256, 32, 32});
    for (std::size_t m : {32, 8})
      rows.push_back({"gemm_tn_acc", v.name, v.fns, 256, m, 32});
  }
  for (const roofline_row& r : rows)
    benchmark::RegisterBenchmark(row_name(r).c_str(), BM_roofline, r)
        ->Repetitions(kRooflineReps)
        ->ReportAggregatesOnly(true);
  return rows;
}

/// Console output as usual, plus each roofline median's GFLOP/s.
class roofline_reporter : public benchmark::ConsoleReporter {
 public:
  std::map<std::string, double> gflops;  // run name -> median GFLOP/s
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      const auto it = run.counters.find("flops");
      if (run.aggregate_name == "median" && it != run.counters.end())
        gflops[run.run_name.function_name] = it->second.value / 1e9;
    }
  }
};

}  // namespace
}  // namespace flashr

int main(int argc, char** argv) {
  using namespace flashr;
  const std::vector<roofline_row> rows = register_rooflines();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  roofline_reporter rep;
  benchmark::RunSpecifiedBenchmarks(&rep);
  benchmark::Shutdown();
  const auto peak = rep.gflops.find("roofline/peak");
  if (peak == rep.gflops.end()) return 0;  // filtered out or no FMA unit
  bench::bench_json out("kernels");
  out.rec().kv("kernel", "fma_peak").kv("reps", kRooflineReps)
      .kv("gflops", peak->second);
  for (const roofline_row& r : rows) {
    const auto it = rep.gflops.find(row_name(r));
    if (it == rep.gflops.end()) continue;
    out.rec()
        .kv("kernel", r.kernel)
        .kv("variant", r.variant)
        .kv("rows", r.rows)
        .kv("p", r.p)
        .kv("k", r.k)
        .kv("reps", kRooflineReps)
        .kv("gflops", it->second)
        .kv("peak_frac", it->second / peak->second);
  }
  out.write();
  return 0;
}
