// Layer probes: direct calls into the engine's public layer functions, timed
// from outside at the workload's own shapes (Pcache chunk rows x the
// workload's columns, and its I/O partition size).
#include <unistd.h>

#include <functional>
#include <stdexcept>
#include <thread>

#include "blas/blas.h"
#include "common.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/kernels.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "parallel/thread_pool.h"

namespace pb {

using namespace flashr;

namespace {

/// Seconds per call of `fn`: batches of calls sized to ~`batch_s` seconds,
/// median of five batches.
double per_call_s(const std::function<void()>& fn, double batch_s = 0.05) {
  fn();  // warm caches and lazily built state
  std::size_t reps = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double dt = now_s() - t0;
    if (dt >= batch_s / 4 || reps >= (std::size_t{1} << 24)) {
      reps = std::max<std::size_t>(1, static_cast<std::size_t>(
                                          static_cast<double>(reps) * batch_s /
                                          std::max(dt, 1e-9)));
      break;
    }
    reps *= 4;
  }
  std::vector<double> per;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < reps; ++i) fn();
    per.push_back((now_s() - t0) / static_cast<double>(reps));
  }
  return median(per);
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  rng64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_uniform() * 2.0 - 1.0;
  return v;
}

/// Run fn(t) on `threads` std::threads and return the wall seconds.
double run_threads(int threads, const std::function<void(int)>& fn) {
  const double t0 = now_s();
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) ts.emplace_back(fn, t);
  for (auto& t : ts) t.join();
  return now_s() - t0;
}

}  // namespace

std::vector<probe_result> run_probes(const shapes& sh, storage where,
                                     span_log* log, std::uint64_t parent) {
  std::vector<probe_result> out;
  const int threads = conf().num_threads;
  const std::size_t part_rows = conf().io_part_rows;
  const std::size_t p = sh.ncol;
  const std::size_t rows = exec::pcache_rows(p, part_rows, sizeof(double));
  const std::vector<double> a = random_doubles(rows * p, 11);
  const std::vector<double> b = random_doubles(rows * p, 12);
  std::vector<double> c(rows * p);
  const double chunk_bytes = static_cast<double>(rows * p * sizeof(double));
  const kern::view va{reinterpret_cast<const char*>(a.data()), rows};
  const kern::view vb{reinterpret_cast<const char*>(b.data()), rows};
  char* pc = reinterpret_cast<char*>(c.data());

  // ---- core/kernels (one thread, Pcache-sized chunk) ----
  {
    scoped_span s(log, "probe.kernels", "core/kernels", parent, 0);
    double t = per_call_s([&] {
      kern::map2(scalar_type::f64, bop_id::add, va, vb, false, rows, p, pc,
                 rows);
    });
    out.push_back({"kernels.map2_gbps", 3 * chunk_bytes / t / 1e9, "GB/s"});
    t = per_call_s([&] {
      kern::sapply(scalar_type::f64, uop_id::exp_v, va, rows, p, pc, rows);
    });
    out.push_back(
        {"kernels.sapply_exp_gbps", 2 * chunk_bytes / t / 1e9, "GB/s"});
    std::vector<double> acc(p, 0.0);
    t = per_call_s([&] {
      kern::agg_col_acc(scalar_type::f64, agg_id::sum, va, rows, p,
                        reinterpret_cast<char*>(acc.data()));
    });
    out.push_back({"kernels.agg_sum_gbps", chunk_bytes / t / 1e9, "GB/s"});
    const std::size_t k = 64;
    smat B(p, k);
    for (std::size_t i = 0; i < p * k; ++i)
      B.data()[i] = 0.001 * static_cast<double>(i % 97);
    std::vector<double> d(rows * k);
    t = per_call_s([&] {
      kern::inner_prod(scalar_type::f64, bop_id::sqdiff, agg_id::sum, va, rows,
                       p, B, reinterpret_cast<char*>(d.data()), rows);
    });
    out.push_back({"kernels.inner_prod_gflops",
                   3.0 * static_cast<double>(rows * p * k) / t / 1e9,
                   "GFLOP/s"});
  }

  // ---- blas (one thread) ----
  {
    scoped_span s(log, "probe.blas", "blas", parent, 0);
    std::vector<double> C(p * p, 0.0);
    double t = per_call_s([&] {
      blas::gemm_tn_acc<double>(p, p, rows, a.data(), rows, b.data(), rows,
                                C.data(), p);
    });
    out.push_back({"blas.gemm_tn_acc_gflops",
                   2.0 * static_cast<double>(p * p * rows) / t / 1e9,
                   "GFLOP/s"});
    const std::size_t n = sh.gemm_n;
    const std::vector<double> small = random_doubles(p * n, 13);
    t = per_call_s([&] {
      blas::gemm_nn<double>(rows, n, p, 1.0, a.data(), rows, small.data(), p,
                            0.0, c.data(), rows);
    });
    out.push_back({"blas.gemm_nn_gflops",
                   2.0 * static_cast<double>(rows * n * p) / t / 1e9,
                   "GFLOP/s"});
  }

  // ---- mem: pool get/put under contention, memory bandwidth ----
  {
    scoped_span s(log, "probe.mem", "mem", parent, 0);
    buffer_pool& pool = buffer_pool::global();
    const std::size_t iters = 200000;
    const auto bytes = static_cast<std::size_t>(chunk_bytes);
    const double wall = run_threads(threads, [&](int) {
      for (std::size_t i = 0; i < iters; ++i) {
        pool_buffer buf = pool.get(bytes);
        buf.data()[0] = 1;
      }
    });
    out.push_back({"mem.pool_getput_ns",
                   wall / static_cast<double>(iters) * 1e9, "ns"});

    // A read sweep over 4x the L3 (sysconf asks cpuid; 300 MiB if unknown).
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 <= 0) l3 = 300L << 20;
    const std::size_t n = 4 * static_cast<std::size_t>(l3) / sizeof(double);
    std::vector<double> big(n);
    const std::size_t slice = n / static_cast<std::size_t>(threads);
    run_threads(threads, [&](int t) {
      std::fill(big.begin() + static_cast<long>(slice * t),
                big.begin() + static_cast<long>(slice * (t + 1)), 1.0);
    });
    std::vector<double> sums(static_cast<std::size_t>(threads));
    std::vector<double> gbps;
    for (int r = 0; r < 3; ++r) {
      const double w = run_threads(threads, [&](int t) {
        const double* q = big.data() + slice * static_cast<std::size_t>(t);
        double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::size_t i = 0; i + 4 <= slice; i += 4) {
          s0 += q[i];
          s1 += q[i + 1];
          s2 += q[i + 2];
          s3 += q[i + 3];
        }
        sums[static_cast<std::size_t>(t)] = s0 + s1 + s2 + s3;
      });
      gbps.push_back(static_cast<double>(slice * threads * sizeof(double)) /
                     w / 1e9);
    }
    if (sums[0] != static_cast<double>(slice / 4 * 4))
      throw std::runtime_error("memory sweep read back the wrong sum");
    out.push_back({"mem.stream_gbps", median(gbps), "GB/s"});
  }

  // ---- parallel: empty job dispatch ----
  {
    scoped_span s(log, "probe.parallel", "parallel", parent, 0);
    thread_pool& tp = thread_pool::global();
    const double t = per_call_s([&] { tp.run_all([](int) {}); });
    out.push_back({"parallel.run_all_us", t * 1e6, "us"});
  }

  // ---- io: direct safs_file writes and reads of whole I/O partitions ----
  {
    scoped_span s(log, "probe.io", "io", parent, 0);
    const std::size_t part_bytes = part_rows * p * sizeof(double);
    const std::size_t parts = std::max<std::size_t>(
        8, (std::size_t{256} << 20) / part_bytes);
    auto f = safs_file::create("perfbench_probe_" + std::to_string(getpid()),
                               parts * part_bytes);
    pool_buffer buf = buffer_pool::global().get(part_bytes);
    std::fill(buf.data(), buf.data() + part_bytes, 7);
    std::vector<double> wr, rd;
    for (int r = 0; r < 3; ++r) {
      double t0 = now_s();
      for (std::size_t i = 0; i < parts; ++i)
        f->write(i * part_bytes, part_bytes, buf.data());
      wr.push_back(static_cast<double>(parts * part_bytes) / (now_s() - t0) /
                   1e9);
      t0 = now_s();
      for (std::size_t i = 0; i < parts; ++i)
        f->read(i * part_bytes, part_bytes, buf.data());
      rd.push_back(static_cast<double>(parts * part_bytes) / (now_s() - t0) /
                   1e9);
    }
    out.push_back({"io.safs_read_gbps", median(rd), "GB/s"});
    out.push_back({"io.safs_write_gbps", median(wr), "GB/s"});
  }

  // ---- matrix: generator throughput, conv_store to the workload's storage --
  {
    scoped_span s(log, "probe.matrix", "matrix", parent, 0);
    const std::size_t n = std::size_t{1} << 19;
    const double bytes = static_cast<double>(n * p * sizeof(double));
    std::vector<double> gen, conv;
    for (int r = 0; r < 3; ++r) {
      double t0 = now_s();
      dense_matrix m = conv_store(dense_matrix::rnorm(n, p, 0.0, 1.0, 5 + r),
                                  storage::in_mem);
      gen.push_back(bytes / (now_s() - t0) / 1e9);
      t0 = now_s();
      dense_matrix st = conv_store(m, where);
      conv.push_back(bytes / (now_s() - t0) / 1e9);
    }
    out.push_back({"matrix.generate_gbps", median(gen), "GB/s"});
    out.push_back({"matrix.conv_store_gbps", median(conv), "GB/s"});
  }
  return out;
}

}  // namespace pb
