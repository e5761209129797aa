// Figure 7a: normalized runtime of FlashR in memory (FlashR-IM) and on SSDs
// (FlashR-EM) compared with H2O and Spark MLlib on the 48-core server.
//
// Substitution (DESIGN.md): the JVM systems are represented by the rowstream
// baseline — the same algorithms on a record-at-a-time engine with per-
// operator materialization (the RDD execution model). The paper's claim
// being reproduced: FlashR-IM beats the per-op engine by a large factor on
// every algorithm, and FlashR-EM stays within ~2x of FlashR-IM.
//
// Workloads (paper: Criteo-sub 325M x 40 for corr/PCA/NB/logistic/LDA,
// PageGraph-32ev-sub 336M x 32 for k-means/GMM; here container-scaled with
// identical shapes).
#include "bench_algos.h"
#include "bench_common.h"

#include <algorithm>

#include "baseline/rowstream.h"
#include "obs/profile.h"

using namespace flashr;
using namespace flashr::bench;

namespace {

double run_rowstream(const bench_algo& algo, const baseline::rs_matrix& X,
                     const baseline::rs_matrix& y) {
  using namespace baseline;
  return time_once([&] {
    if (algo.name == "correlation") {
      rs_correlation(X);
    } else if (algo.name == "pca") {
      rs_pca_eigenvalues(X);
    } else if (algo.name == "naive-bayes") {
      rs_naive_bayes_train(X, y, 2);
    } else if (algo.name == "logistic") {
      rs_logistic(X, y, kLogisticIters);
    } else if (algo.name == "lda") {
      rs_lda_pooled_cov(X, y, 2);
    } else if (algo.name == "k-means") {
      smat init(kKmeansK, X.ncol());
      for (std::size_t c = 0; c < kKmeansK; ++c)
        for (std::size_t j = 0; j < X.ncol(); ++j)
          init(c, j) = X.at(c * 17, j);
      rs_kmeans(X, kKmeansK, kKmeansIters, init);
    } else if (algo.name == "gmm") {
      smat init(kGmmK, X.ncol());
      for (std::size_t c = 0; c < kGmmK; ++c)
        for (std::size_t j = 0; j < X.ncol(); ++j)
          init(c, j) = X.at(c * 23, j);
      rs_gmm(X, kGmmK, kGmmIters, init);
    }
  });
}

std::string json_needle(const char* key) {
  std::string needle("\"");
  needle += key;
  needle += "\": ";
  return needle;
}

std::uint64_t json_u64(const std::string& json, const char* key,
                       std::size_t from = 0) {
  const std::string needle = json_needle(key);
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

std::uint64_t json_sum_u64(const std::string& json, const char* key,
                           std::size_t from) {
  const std::string needle = json_needle(key);
  std::uint64_t total = 0;
  for (std::size_t pos = json.find(needle, from); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return total;
}

/// EXPLAIN ANALYZE coverage: profile one representative DAG per exec mode
/// and report how much of the pass's thread time (threads x wall) the
/// per-node kernel and I/O-wait attributions explain. Keeps the profiler
/// honest on the same workload shape the figure times.
void explain_analyze_coverage(const dense_matrix& X, bench_json& out) {
  header("EXPLAIN ANALYZE coverage (per exec mode)",
         "per-node kernel+io attribution as a share of threads x wall "
         "(the acceptance gate tests 1-thread kernel coverage >= 85%)");
  const exec_mode saved = conf().mode;
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    set_mode(m);
    dense_matrix d = sum(exp(X * 0.5) + sqrt(abs(X)));
    const std::string json = d.explain_analyze();
    const std::uint64_t wall = json_u64(json, "wall_ns");
    // kernel and io-wait are summed over the pass's threads, so the time
    // they can cover is threads x wall.
    const std::uint64_t threads = std::max<std::uint64_t>(
        1, json_u64(json, "threads", json.find("\"passes\":")));
    const std::size_t totals = json.find("\"totals\":");
    const std::uint64_t kernel = json_sum_u64(json, "kernel_ns", totals);
    const std::uint64_t io = json_sum_u64(json, "io_wait_ns", totals);
    const double cover =
        wall == 0 ? 0.0
                  : static_cast<double>(kernel + io) /
                        static_cast<double>(threads * wall);
    std::printf("  %-12s wall %8.3f ms  kernel %8.3f ms  io-wait %8.3f ms  "
                "coverage %5.1f%%\n",
                exec_mode_name(m), static_cast<double>(wall) / 1e6,
                static_cast<double>(kernel) / 1e6,
                static_cast<double>(io) / 1e6, cover * 100.0);
    out.rec()
        .kv("explain_mode", exec_mode_name(m))
        .kv("wall_ns", wall)
        .kv("kernel_ns", kernel)
        .kv("coverage", cover);
  }
  set_mode(saved);
}

}  // namespace

int main() {
  bench_init("fig7");
  const std::size_t n = base_n() / 4;
  header("Figure 7a: FlashR-IM / FlashR-EM vs per-op engine (H2O/MLlib stand-in)",
         "values: runtime normalized to FlashR-IM = 1 (lower is better); "
         "paper reports 3-20x for the JVM systems");
  std::printf("base n = %zu (Criteo-like 40 cols, PageGraph-like 32 cols)\n",
              n);

  bench_data im = make_data(n, storage::in_mem);
  bench_data em = make_data(n, storage::ext_mem);

  std::vector<series_row> rows;
  bench_json out("fig7");
  for (const bench_algo& algo : benchmark_algorithms()) {
    const std::size_t an = static_cast<std::size_t>(
        static_cast<double>(n) * algo.n_scale);
    // Reduced-n algorithms regenerate at the right size (generated leaves
    // make this free until materialization).
    labeled_data d_im, d_em;
    if (algo.n_scale == 1.0) {
      d_im = algo.clustering ? im.pagegraph : im.criteo;
      d_em = algo.clustering ? em.pagegraph : em.criteo;
    } else {
      labeled_data fresh = algo.clustering ? pagegraph_like(an, kKmeansK, 37)
                                           : criteo_like(an, 31);
      d_im.X = conv_store(fresh.X, storage::in_mem);
      d_em.X = conv_store(fresh.X, storage::ext_mem);
      if (fresh.y.valid()) {
        d_im.y = conv_store(fresh.y, storage::in_mem);
        d_em.y = conv_store(fresh.y, storage::ext_mem);
      }
    }

    const double t_im = time_once([&] { algo.run(d_im.X, d_im.y); });
    const double t_em = time_once([&] { algo.run(d_em.X, d_em.y); });

    // Rowstream baseline runs on fully materialized host data (that is the
    // model: Spark/H2O cache the dataset in memory before benchmarking).
    baseline::rs_matrix rsX = baseline::rs_from_smat(d_im.X.to_smat());
    baseline::rs_matrix rsY =
        d_im.y.valid() ? baseline::rs_from_smat(d_im.y.to_smat())
                       : baseline::rs_matrix(rsX.nrow(), 1);
    const double t_rs = run_rowstream(algo, rsX, rsY);

    rows.push_back({algo.name + " (n=" + std::to_string(an) + ")",
                    {1.0, t_em / t_im, t_rs / t_im}});
    std::printf("  %-12s IM %.2fs  EM %.2fs  rowstream %.2fs\n",
                algo.name.c_str(), t_im, t_em, t_rs);
    out.rec()
        .kv("algo", algo.name)
        .kv("n", an)
        .kv("im_seconds", t_im)
        .kv("em_seconds", t_em)
        .kv("rowstream_seconds", t_rs);
  }
  print_table({"FlashR-IM", "FlashR-EM", "rowstream"}, rows, "%10.2f");
  std::printf("\nExpected shape (paper): FlashR-EM <= ~2x FlashR-IM; "
              "per-op engine 3-20x slower than FlashR-IM.\n");
  explain_analyze_coverage(em.criteo.X, out);
  out.write();
  return 0;
}
