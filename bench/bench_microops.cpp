// Micro-benchmark: throughput of individual GenOps and of fused chains under
// the three execution modes. Not a paper figure — this is the engine-level
// evidence behind Figure 10: fusing a chain of element-wise ops should
// approach the throughput of a single op, while eager execution pays a full
// memory round-trip per op.
#include "bench_common.h"

#include "io/safs.h"

using namespace flashr;
using namespace flashr::bench;

int main() {
  bench_init("microops");
  const std::size_t n = base_n();
  const std::size_t p = 8;
  const double gb =
      static_cast<double>(n * p * sizeof(double)) / (1 << 30);
  header("Micro-ops: GB/s per op and per fused 6-op chain, by exec mode",
         "values: effective input GB/s, median of 7 runs (higher is better)");
  std::printf("matrix: %zu x %zu (%.2f GB)\n", n, p, gb);

  dense_matrix X = conv_store(dense_matrix::rnorm(n, p, 0, 1, 3),
                              storage::in_mem);

  auto one_op = [&] { sum(X * 2.0).scalar(); };
  auto chain = [&] {
    sum(sqrt(abs(((X * 2.0 + 1.0) - 0.5) * (X * 0.25)))).scalar();
  };

  // One pass takes milliseconds: a single sample is mostly VM noise.
  constexpr int kReps = 7;
  std::vector<series_row> rows;
  bench_json out("microops");
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    set_mode(m);
    const double t1 = time_median(kReps, one_op);
    const double t6 = time_median(kReps, chain);
    rows.push_back({exec_mode_name(m), {gb / t1, gb / t6}});
    out.rec()
        .kv("mode", exec_mode_name(m))
        .kv("reps", kReps)
        .kv("one_op_gbps", gb / t1)
        .kv("chain_gbps", gb / t6);
  }
  set_mode(exec_mode::cache_fuse);
  print_table({"1 op", "6-op chain"}, rows, "%10.2f");
  std::printf("\nExpected shape: the fused modes hold their throughput on "
              "the chain; eager divides it by the chain length.\n");
  out.write();
  return 0;
}
