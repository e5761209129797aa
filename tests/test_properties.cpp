// Property sweeps over engine configurations (DESIGN.md invariants 1-7).
//
// These tests pin down the engine's configuration-independence: the same
// computation must give the same answer for every thread count, I/O
// partition size, Pcache size, stripe count and placement policy, and
// generated matrices must be identical under all of them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/fault.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "mem/numa.h"
#include "ml/stats.h"
#include "obs/explain.h"

namespace flashr {
namespace {

/// A fixed reference computation with a bit of everything: element chains,
/// broadcast, inner product, several sinks.
struct reference_result {
  double total;
  smat gram;
  smat group_sums;
};

reference_result run_reference(storage st) {
  const std::size_t n = 3000, p = 6;
  dense_matrix X = conv_store(dense_matrix::rnorm(n, p, 0.5, 2.0, 99), st);
  dense_matrix labels = conv_store(
      sapply(dense_matrix::runif(n, 1, 0.0, 4.0, 7), uop_id::floor_v)
          .cast(scalar_type::i64),
      st);
  dense_matrix Y = sqrt(abs(X)) * 0.5 + square(X);
  dense_matrix total = sum(Y);
  dense_matrix gram = crossprod(Y);
  dense_matrix gsums = groupby_row(Y, labels, 4, agg_id::sum);
  materialize_all({total, gram, gsums});
  return {total.scalar(), gram.to_smat(), gsums.to_smat()};
}

struct config_case {
  int threads;
  std::size_t part_rows;
  std::size_t pcache;
  int stripes;
  exec_mode mode;
};

std::string case_name(const ::testing::TestParamInfo<config_case>& i) {
  return "t" + std::to_string(i.param.threads) + "_pr" +
         std::to_string(i.param.part_rows) + "_pc" +
         std::to_string(i.param.pcache) + "_s" +
         std::to_string(i.param.stripes) + "_" +
         std::to_string(static_cast<int>(i.param.mode));
}

class ConfigSweepTest : public ::testing::TestWithParam<config_case> {};

TEST_P(ConfigSweepTest, ReferenceComputationInvariant) {
  const config_case& c = GetParam();
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = c.threads;
  o.io_part_rows = c.part_rows;
  o.pcache_bytes = c.pcache;
  o.stripes = c.stripes;
  o.mode = c.mode;
  o.small_nrow_threshold = 16;
  init(o);

  // Golden values computed once under the default config.
  static const reference_result* golden = [] {
    options g;
    g.em_dir = "/tmp/flashr_test_em";
    g.small_nrow_threshold = 16;
    init(g);
    return new reference_result(run_reference(storage::in_mem));
  }();

  for (storage st : {storage::in_mem, storage::ext_mem}) {
    reference_result r = run_reference(st);
    EXPECT_NEAR(r.total, golden->total, std::abs(golden->total) * 1e-12);
    EXPECT_LT(r.gram.max_abs_diff(golden->gram), 1e-7);
    EXPECT_LT(r.group_sums.max_abs_diff(golden->group_sums), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweepTest,
    ::testing::Values(
        config_case{1, 64, 1024, 1, exec_mode::cache_fuse},
        config_case{2, 64, 1024, 2, exec_mode::cache_fuse},
        config_case{4, 128, 2048, 3, exec_mode::cache_fuse},
        config_case{8, 256, 512, 4, exec_mode::cache_fuse},
        config_case{4, 1024, 65536, 2, exec_mode::cache_fuse},
        config_case{3, 64, 1024, 2, exec_mode::mem_fuse},
        config_case{4, 128, 4096, 3, exec_mode::mem_fuse},
        config_case{2, 128, 2048, 2, exec_mode::eager},
        config_case{4, 512, 8192, 5, exec_mode::eager}),
    case_name);

class PropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.num_threads = 4;
    o.small_nrow_threshold = 16;
    init(o);
  }
};

TEST_F(PropertyTest, GeneratedMatrixIndependentOfPartitioning) {
  // Same seed, different partition sizes -> identical values.
  smat a, b;
  {
    mutable_conf().io_part_rows = 64;
    a = dense_matrix::rnorm(777, 3, 1, 2, 5).to_smat();
  }
  {
    mutable_conf().io_part_rows = 512;
    b = dense_matrix::rnorm(777, 3, 1, 2, 5).to_smat();
  }
  mutable_conf().io_part_rows = 64;
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST_F(PropertyTest, GeneratedMatrixIndependentOfThreads) {
  smat a, b;
  {
    mutable_conf().num_threads = 1;
    a = (dense_matrix::runif(1000, 2, 0, 1, 9) * 2.0).to_smat();
  }
  {
    mutable_conf().num_threads = 8;
    b = (dense_matrix::runif(1000, 2, 0, 1, 9) * 2.0).to_smat();
  }
  mutable_conf().num_threads = 4;
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST_F(PropertyTest, IntegerSinksBitIdenticalAcrossThreadCounts) {
  // Invariant 5: integer aggregation is exact regardless of thread count.
  dense_matrix X =
      sapply(dense_matrix::runif(5000, 2, 0, 1000, 3), uop_id::floor_v)
          .cast(scalar_type::i64);
  dense_matrix Xm = conv_store(X, storage::in_mem);
  double first = 0;
  for (int threads : {1, 2, 4, 8}) {
    mutable_conf().num_threads = threads;
    const double s = sum(Xm).scalar();
    if (threads == 1)
      first = s;
    else
      EXPECT_EQ(s, first);
  }
  mutable_conf().num_threads = 4;
}

TEST_F(PropertyTest, OnePassInvariantAcrossDagShapes) {
  // Invariant 4: an EM leaf is read exactly once per fused execution, no
  // matter how many consumers the DAG has.
  dense_matrix X =
      conv_store(dense_matrix::rnorm(64 * 10, 4, 0, 1, 2), storage::ext_mem);
  for (int consumers : {1, 2, 5}) {
    std::vector<dense_matrix> targets;
    for (int c = 0; c < consumers; ++c)
      targets.push_back(sum(X * static_cast<double>(c + 1)));
    io_stats::global().reset();
    materialize_all(targets);
    EXPECT_EQ(io_stats::global().read_ops.load(), 10u)
        << consumers << " consumers";
  }
}

TEST_F(PropertyTest, EagerModeReadsOncePerOperation) {
  // The converse: in eager mode, k operations on an EM leaf cost k passes.
  mutable_conf().mode = exec_mode::eager;
  dense_matrix X =
      conv_store(dense_matrix::rnorm(64 * 8, 2, 0, 1, 2), storage::ext_mem);
  io_stats::global().reset();
  // Chain of 3 element ops + an aggregation, materialized with EM
  // intermediates: each op re-reads its input and writes its output.
  dense_matrix s = sum(((X * 2.0) + 1.0) - 0.5);
  materialize_all({s}, storage::ext_mem);
  mutable_conf().mode = exec_mode::cache_fuse;
  EXPECT_EQ(io_stats::global().read_ops.load(), 4u * 8u);
  EXPECT_EQ(io_stats::global().write_ops.load(), 3u * 8u);
}

TEST_F(PropertyTest, NumaPlacementIsFullyLocal) {
  // Invariant: the executor assigns partition i of every matrix to the same
  // node, so with workers following the mapping, locality is 100%.
  mutable_conf().numa_nodes = 4;
  numa_tracker::global().reset();
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 16, 3, 0, 1, 4),
                              storage::in_mem);
  sum(X * 2.0).scalar();
  mutable_conf().numa_nodes = 1;
  // The tracker records accesses; the policy keeps every access local
  // because thread home nodes cycle with partition ids the same way.
  EXPECT_GT(numa_tracker::global().local_accesses() +
                numa_tracker::global().remote_accesses(),
            0u);
}

TEST_F(PropertyTest, PcacheRowsArePowerOfTwoAndBounded) {
  for (std::size_t ncol : {1u, 8u, 40u, 513u}) {
    const std::size_t rows = exec::pcache_rows(ncol, conf().io_part_rows);
    EXPECT_GE(rows, 16u);
    EXPECT_LE(rows, conf().io_part_rows);
    EXPECT_EQ(rows & (rows - 1), 0u) << "ncol=" << ncol;
  }
  // Wider matrices get proportionally shorter Pcache chunks.
  EXPECT_LE(exec::pcache_rows(512, 16384), exec::pcache_rows(8, 16384));
}

TEST_F(PropertyTest, Float32PathMatchesFloat64) {
  dense_matrix X64 = conv_store(dense_matrix::rnorm(2000, 3, 0, 1, 6),
                                storage::in_mem);
  dense_matrix X32 = X64.cast(scalar_type::f32);
  EXPECT_EQ(X32.type(), scalar_type::f32);
  const double s64 = sum(X64).scalar();
  const double s32 = sum(X32).scalar();
  EXPECT_NEAR(s32, s64, std::abs(s64) * 1e-3 + 0.5);
  smat g64 = crossprod(X64).to_smat();
  smat g32 = crossprod(X32).to_smat();
  EXPECT_LT(g32.max_abs_diff(g64), 0.05);
}

TEST_F(PropertyTest, ShapeErrorsAreReported) {
  dense_matrix a = dense_matrix::rnorm(100, 3, 0, 1, 1);
  dense_matrix b = dense_matrix::rnorm(100, 4, 0, 1, 2);
  dense_matrix c = dense_matrix::rnorm(200, 3, 0, 1, 3);
  EXPECT_THROW(a + b, shape_error);
  EXPECT_THROW(a + c, shape_error);
  EXPECT_THROW(matmul(a, b), shape_error);
  EXPECT_THROW(sweep_cols(a, smat(1, 5), bop_id::add), shape_error);
  EXPECT_THROW(groupby_row(a, b, 4, agg_id::sum), shape_error);
  EXPECT_THROW(dense_matrix{}.nrow(), error);
}

TEST_F(PropertyTest, TransposedMisuseIsRejected) {
  dense_matrix a = dense_matrix::rnorm(1000, 3, 0, 1, 1);
  dense_matrix at = a.t();
  EXPECT_TRUE(at.is_transposed());
  EXPECT_EQ(at.nrow(), 3u);
  EXPECT_EQ(at.ncol(), 1000u);
  EXPECT_THROW(at + at, error);        // element ops reject transposed talls
  EXPECT_THROW(sum(at), error);
  EXPECT_NO_THROW(matmul(at, a));      // the supported use
}

TEST_F(PropertyTest, ScalarOnNonScalarThrows) {
  dense_matrix a = dense_matrix::rnorm(100, 2, 0, 1, 1);
  EXPECT_THROW(a.scalar(), shape_error);
  EXPECT_NO_THROW(sum(a).scalar());
}

TEST_F(PropertyTest, MaterializeIsIdempotent) {
  dense_matrix a = dense_matrix::rnorm(500, 2, 0, 1, 8) * 3.0;
  a.materialize();
  const double s1 = sum(a).scalar();
  a.materialize();  // no-op
  EXPECT_EQ(sum(a).scalar(), s1);
}

TEST_F(PropertyTest, ConvStoreRoundTrips) {
  dense_matrix a = dense_matrix::rnorm(700, 3, 2, 1, 9);
  dense_matrix em = conv_store(a, storage::ext_mem);
  dense_matrix back = conv_store(em, storage::in_mem);
  EXPECT_EQ(back.to_smat().max_abs_diff(a.to_smat()), 0.0);
}

// ---------------------------------------------------------------------------
// Worker-local chunk-buffer recycling (DESIGN.md §3.1, paper §3.5.1)
// ---------------------------------------------------------------------------

/// The logistic objective's shape: a narrow chain of ten element-wise nodes
/// over an n x 1 column, plus a 40-wide cbind(X, constant) feeding a
/// crossprod sink. Chunk buffers of two widths (the n x 1 chain and
/// generated constant, the 40-wide cbind), and a short tail chunk per
/// partition that needs smaller size classes.
class ExecRecycling : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 5000;
  static constexpr std::size_t kPartRows = 512;  // 10 partitions, short tail
  static constexpr std::size_t kCols = 40;       // cbind(X, 1)

  void init_with(int threads, exec_mode mode, std::size_t pcache_bytes) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = threads;
    o.io_part_rows = kPartRows;
    o.pcache_bytes = pcache_bytes;
    o.small_nrow_threshold = 16;
    o.mode = mode;
    init(o);
    fault_injector::global().clear();
  }
  void TearDown() override { fault_injector::global().clear(); }

  struct inputs {
    dense_matrix X, m;
  };
  static inputs make_inputs(storage st) {
    return {conv_store(dense_matrix::rnorm(kN, kCols - 1, 0.0, 1.0, 11), st),
            conv_store(dense_matrix::runif(kN, 1, -2.0, 2.0, 12), st)};
  }

  /// {sum(chain), crossprod(cbind(X, 1), chain)}.
  static std::vector<dense_matrix> make_dag(const inputs& in) {
    dense_matrix r = in.m * 0.5;
    r = r + 1.0;
    r = abs(r);
    r = sqrt(r);
    r = r - 0.25;
    r = square(r);
    r = r * in.m;
    r = exp(-r);
    r = log1p(r);
    r = pmax(r, 0.1);
    const dense_matrix Xi =
        cbind({in.X, dense_matrix::constant(kN, 1, 1.0)});
    return {sum(r), crossprod(Xi, r)};
  }

  struct result {
    double total = 0;
    smat grad;
  };
  static result run(const std::vector<dense_matrix>& dag) {
    materialize_all(dag);
    return {dag[0].scalar(), dag[1].to_smat()};
  }
  static void expect_identical(const result& got, const result& want) {
    EXPECT_EQ(got.total, want.total);
    ASSERT_EQ(got.grad.nrow(), want.grad.nrow());
    for (std::size_t i = 0; i < want.grad.nrow(); ++i)
      EXPECT_EQ(got.grad(i, 0), want.grad(i, 0)) << "row " << i;
  }

  /// estimate_footprint()'s per-worker chunk term, each buffer rounded to
  /// its pool size class: one `rows`-tall buffer per plan node that owns
  /// chunks (mem/ext leaves are views).
  static std::size_t worker_chunk_cap(const std::vector<dense_matrix>& dag,
                                      std::size_t rows) {
    std::vector<matrix_store::ptr> targets;
    for (const dense_matrix& d : dag) targets.push_back(d.store());
    std::size_t cap = 0;
    for (const obs::plan_node& n : obs::summarize(targets).nodes) {
      const store_kind k = n.store->kind();
      if (k == store_kind::mem || k == store_kind::ext) continue;
      cap += buffer_pool::class_size(rows * n.ncol * n.store->elem_size());
    }
    return cap;
  }
};

// Bit-identical across chunk rows {16, the pcache default, whole partition},
// threads {1, 2, 4} and the three exec modes; in the fused modes the pool's
// peak over the pass stays within every worker's chunk term, and every pass
// brings the pool's outstanding count back to its baseline.
TEST_F(ExecRecycling, BitIdenticalAndBoundedAcrossConfigs) {
  const std::size_t kDefaultPcache = options{}.pcache_bytes;
  const std::size_t pcaches[] = {16 * kCols * sizeof(double), kDefaultPcache,
                                 std::size_t{1} << 30};
  std::optional<result> golden;
  for (exec_mode mode :
       {exec_mode::cache_fuse, exec_mode::mem_fuse, exec_mode::eager}) {
    for (int threads : {1, 2, 4}) {
      for (std::size_t pcache : pcaches) {
        SCOPED_TRACE(std::string(exec_mode_name(mode)) + " threads=" +
                     std::to_string(threads) +
                     " pcache=" + std::to_string(pcache));
        init_with(threads, mode, pcache);
        const inputs in = make_inputs(storage::in_mem);
        buffer_pool& pool = buffer_pool::global();
        const std::size_t count0 = pool.outstanding_count();
        {
          const std::vector<dense_matrix> dag = make_dag(in);
          const std::size_t rows =
              mode == exec_mode::cache_fuse
                  ? exec::pcache_rows(kCols, kPartRows, sizeof(double))
                  : kPartRows;
          const std::size_t cap = worker_chunk_cap(dag, rows);
          const std::size_t base = pool.outstanding_bytes();
          pool.reset_peak();
          const result r = run(dag);
          if (mode != exec_mode::eager) {
            EXPECT_LE(pool.peak_bytes() - base,
                      static_cast<std::size_t>(threads) * cap);
          }
          if (!golden)
            golden = r;
          else
            expect_identical(r, *golden);
        }
        EXPECT_EQ(pool.outstanding_count(), count0);
      }
    }
  }
}

// The register-blocked chunk kernels under the engine: a k-means step
// (inner.prod sqdiff/sum -> which.min -> groupby) and a tall × small
// product, bit-identical across exec modes, threads and chunk sizes. 5003
// rows leave a 395-row last partition, so partition tails reach the kernels'
// narrow and lane-masked tiles.
TEST_F(ExecRecycling, KernelDagsBitIdenticalAcrossConfigs) {
  constexpr std::size_t kRows = 5003, kP = 12, kK = 5, kOut = 7;
  smat centers_t(kP, kK), A(kP, kOut);
  rng64 rng(31);
  for (std::size_t i = 0; i < kP * kK; ++i)
    centers_t.data()[i] = rng.next_normal();
  for (std::size_t i = 0; i < kP * kOut; ++i) A.data()[i] = rng.next_normal();
  auto bits = [](const smat& m) {
    return std::vector<double>(m.data(), m.data() + m.nrow() * m.ncol());
  };
  const std::size_t pcaches[] = {16 * kP * sizeof(double),
                                 options{}.pcache_bytes, std::size_t{1} << 30};
  std::optional<std::vector<std::vector<double>>> golden;
  for (exec_mode mode :
       {exec_mode::cache_fuse, exec_mode::mem_fuse, exec_mode::eager}) {
    for (int threads : {1, 2, 4}) {
      for (std::size_t pcache : pcaches) {
        SCOPED_TRACE(std::string(exec_mode_name(mode)) + " threads=" +
                     std::to_string(threads) +
                     " pcache=" + std::to_string(pcache));
        init_with(threads, mode, pcache);
        const dense_matrix X = conv_store(
            dense_matrix::rnorm(kRows, kP, 0.0, 1.0, 32), storage::in_mem);
        const dense_matrix D =
            inner_prod(X, centers_t, bop_id::sqdiff, agg_id::sum);
        const dense_matrix sums =
            groupby_row(X, which_min_row(D), kK, agg_id::sum);
        const dense_matrix XA = matmul(X, dense_matrix::from_smat(A));
        materialize_all({D, sums, XA});
        std::vector<std::vector<double>> got = {
            bits(D.to_smat()), bits(sums.to_smat()), bits(XA.to_smat())};
        if (!golden) {
          golden = std::move(got);
          continue;
        }
        for (std::size_t r = 0; r < got.size(); ++r) {
          ASSERT_EQ(got[r].size(), (*golden)[r].size());
          EXPECT_EQ(std::memcmp(got[r].data(), (*golden)[r].data(),
                                got[r].size() * sizeof(double)),
                    0)
              << "result " << r;
        }
      }
    }
  }
}

// A pass cancelled mid-flight (deadline over slow EM reads) returns every
// worker's live and spare chunk buffers to the pool.
TEST_F(ExecRecycling, CancelledPassReturnsEverySpare) {
  init_with(4, exec_mode::cache_fuse, 16 * kCols * sizeof(double));
  const inputs in = make_inputs(storage::ext_mem);
  buffer_pool& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  {
    fault_plan p;
    p.seed = 93;
    p.latency_prob = 1.0;
    p.latency_us = 5000;  // 20 partition reads on 2 I/O threads: >= 50 ms
    fault_scope scope(p);
    exec::materialize_opts opts;
    opts.deadline_ms = 20;
    std::vector<matrix_store::ptr> targets;
    for (const dense_matrix& d : make_dag(in)) targets.push_back(d.store());
    EXPECT_THROW(exec::materialize(targets, storage::in_mem, opts),
                 timeout_error);
  }
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);

  // The engine is reusable and exact afterwards.
  init_with(4, exec_mode::cache_fuse, 16 * kCols * sizeof(double));
  const result want = run(make_dag(make_inputs(storage::in_mem)));
  expect_identical(run(make_dag(in)), want);
}

// Under the invariant validator every chunk buffer goes straight back to
// the pool (poisoned, use-after-return checked); results are unchanged.
TEST_F(ExecRecycling, ValidatorRunBypassesTheSpares) {
  init_with(4, exec_mode::cache_fuse, 16 * kCols * sizeof(double));
  const inputs in = make_inputs(storage::in_mem);
  const result want = run(make_dag(in));
  buffer_pool& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  {
    invariant_scope on;
    expect_identical(run(make_dag(in)), want);
  }
  EXPECT_EQ(pool.outstanding_count(), count0);
}

}  // namespace
}  // namespace flashr
