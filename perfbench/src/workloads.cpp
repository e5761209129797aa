// The three workloads. Each generates its dataset from the run's seed, runs
// a fixed amount of work per fit (fixed iteration counts, convergence tests
// disabled) and carries its own oracle reference.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <set>
#include <stdexcept>
#include <thread>

#include "baseline/rowstream.h"
#include "blas/blas.h"
#include "common.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "matrix/datasets.h"
#include "matrix/em_store.h"
#include "matrix/mem_store.h"
#include "mem/buffer_pool.h"
#include "ml/gmm.h"
#include "ml/kmeans.h"
#include "ml/logistic.h"

namespace pb {

using namespace flashr;
namespace bl = flashr::baseline;

namespace {

/// Row-major rowstream copy of an in-memory matrix (walks its partitions).
bl::rs_matrix to_rs(const dense_matrix& m) {
  const auto store = std::dynamic_pointer_cast<mem_store>(m.resolved());
  if (!store) throw std::runtime_error("to_rs: matrix is not in memory");
  const part_geom& g = store->geom();
  bl::rs_matrix out(g.nrow, g.ncol);
  for (std::size_t p = 0; p < g.num_parts(); ++p) {
    const auto* d = reinterpret_cast<const double*>(store->part_data(p));
    const std::size_t rows = g.rows_in_part(p);
    const std::size_t r0 = g.part_row_begin(p);
    for (std::size_t j = 0; j < g.ncol; ++j)
      for (std::size_t i = 0; i < rows; ++i)
        out.at(r0 + i, j) = d[j * rows + i];
  }
  return out;
}

/// Materialize `targets` into memory in one pass and return handles on the
/// physical stores (the generator DAG is released).
std::vector<dense_matrix> store_all(const std::vector<dense_matrix>& targets,
                                    storage st) {
  materialize_all(targets, st);
  std::vector<dense_matrix> out;
  for (const auto& t : targets) out.emplace_back(t.resolved());
  return out;
}

void append(std::vector<double>& v, const smat& m) {
  v.insert(v.end(), m.data(), m.data() + m.nrow() * m.ncol());
}

double max_abs(const smat& m) {
  double r = 0;
  for (std::size_t i = 0; i < m.nrow() * m.ncol(); ++i)
    r = std::max(r, std::abs(m.data()[i]));
  return r;
}

/// "" when every |a - b| <= tol * max(1, max|b|), else a description.
std::string compare(const char* what, const smat& a, const smat& b,
                    double tol) {
  if (a.nrow() != b.nrow() || a.ncol() != b.ncol())
    return std::string(what) + ": shape differs";
  const double scale = std::max(1.0, max_abs(b));
  double worst = 0;
  for (std::size_t i = 0; i < a.nrow() * a.ncol(); ++i)
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  if (worst <= tol * scale) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: max abs diff %.3g > %.1g x %.3g", what,
                worst, tol, scale);
  return buf;
}

/// `k` distinct uniformly drawn rows, in row order: how ml::kmeans picks its
/// initial centers.
std::vector<std::size_t> distinct_rows(std::uint64_t seed, std::size_t n,
                                          std::size_t k) {
  rng64 rng(seed);
  std::set<std::size_t> picked;
  while (picked.size() < k) picked.insert(rng.next_below(n));
  return {picked.begin(), picked.end()};
}

/// fn(begin, end, t) over conf().num_threads contiguous row ranges.
template <typename F>
void parallel_rows(std::size_t n, F&& fn) {
  const auto threads = static_cast<std::size_t>(conf().num_threads);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t)
    ts.emplace_back([&, t] { fn(n * t / threads, n * (t + 1) / threads, t); });
  for (auto& th : ts) th.join();
}

struct host_gmm_result {
  smat init_means;              ///< the k-means warm start
  smat means;                   ///< k x p after the last M-step
  smat loglik;                  ///< mean log-likelihood per iteration
};

/// ml::gmm_fit's algorithm written directly over host rows, without the
/// engine: the same k-means warm start (5 Lloyd iterations from
/// distinct_rows, stopping when no point moves), the same initial spread
/// (diagonal sample variances / k, weights from the last assignment counts)
/// and the same EM updates. The engine's result must match it up to
/// summation order.
host_gmm_result host_gmm(const bl::rs_matrix& X, std::size_t k, int iters,
                         std::uint64_t seed) {
  const std::size_t n = X.nrow(), p = X.ncol();
  const auto T = static_cast<std::size_t>(conf().num_threads);
  const double dn = static_cast<double>(n);
  smat C(k, p);
  {
    const auto rows = distinct_rows(seed, n, k);
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t j = 0; j < p; ++j) C(c, j) = X.at(rows[c], j);
  }
  std::vector<std::size_t> assign(n, k), counts(k);
  for (int it = 0; it < 5; ++it) {
    std::vector<std::vector<double>> sums(T, std::vector<double>(k * p, 0.0));
    std::vector<std::vector<std::size_t>> cnt(T, std::vector<std::size_t>(k));
    std::vector<std::size_t> moved(T, 0);
    parallel_rows(n, [&](std::size_t b, std::size_t e, std::size_t t) {
      for (std::size_t r = b; r < e; ++r) {
        const double* x = X.row(r);
        std::size_t best = 0;
        double bd = INFINITY;
        for (std::size_t c = 0; c < k; ++c) {
          double d = 0;
          for (std::size_t j = 0; j < p; ++j)
            d += (x[j] - C(c, j)) * (x[j] - C(c, j));
          if (d < bd) bd = d, best = c;
        }
        moved[t] += assign[r] != best;
        assign[r] = best;
        ++cnt[t][best];
        for (std::size_t j = 0; j < p; ++j) sums[t][best * p + j] += x[j];
      }
    });
    std::size_t total_moved = 0;
    for (std::size_t c = 0; c < k; ++c) {
      counts[c] = 0;
      std::vector<double> s(p, 0.0);
      for (std::size_t t = 0; t < T; ++t) {
        counts[c] += cnt[t][c];
        for (std::size_t j = 0; j < p; ++j) s[j] += sums[t][c * p + j];
      }
      if (counts[c] > 0)
        for (std::size_t j = 0; j < p; ++j)
          C(c, j) = s[j] / static_cast<double>(counts[c]);
    }
    for (std::size_t m : moved) total_moved += m;
    if (it > 0 && total_moved == 0) break;
  }
  host_gmm_result res;
  res.init_means = C;
  std::vector<double> w(k);
  for (std::size_t c = 0; c < k; ++c)
    w[c] = std::max(static_cast<double>(counts[c]), 1.0) / dn;
  std::vector<smat> cov(k, smat(p, p));
  {
    std::vector<double> s(p, 0.0), sq(p, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t j = 0; j < p; ++j) {
        s[j] += X.at(r, j);
        sq[j] += X.at(r, j) * X.at(r, j);
      }
    for (std::size_t j = 0; j < p; ++j) {
      const double var = (sq[j] - s[j] * s[j] / dn) / (dn - 1.0);
      for (std::size_t c = 0; c < k; ++c)
        cov[c](j, j) = std::max(var / static_cast<double>(k), 1e-6);
    }
  }
  smat means = C;
  res.loglik = smat(static_cast<std::size_t>(iters), 1);
  for (int it = 0; it < iters; ++it) {
    // Per component: A = L^{-T} for Sigma + ridge = L L^T, and the
    // log-normalizer.
    std::vector<smat> A(k);
    std::vector<double> lnorm(k);
    for (std::size_t c = 0; c < k; ++c) {
      smat L = cov[c];
      for (std::size_t i = 0; i < p; ++i) L(i, i) += 1e-6;
      if (!blas::cholesky(p, L.data(), p))
        throw std::runtime_error("host GMM: covariance not positive definite");
      A[c] = smat::identity(p);
      for (std::size_t j = 0; j < p; ++j)
        blas::backward_subst_t(p, L.data(), p, A[c].data() + j * p);
      lnorm[c] = std::log(std::max(w[c], 1e-300)) -
                 0.5 * blas::cholesky_logdet(p, L.data(), p) -
                 0.5 * static_cast<double>(p) *
                     std::log(2.0 * std::numbers::pi);
    }
    // Per thread: [loglik | Nk (k) | Mk (k*p) | scatter (k*p*p)].
    const std::size_t len = 1 + k + k * p + k * p * p;
    std::vector<std::vector<double>> acc(T, std::vector<double>(len, 0.0));
    parallel_rows(n, [&](std::size_t b, std::size_t e, std::size_t t) {
      double* a = acc[t].data();
      std::vector<double> L(k), y(p), xc(p);
      for (std::size_t r = b; r < e; ++r) {
        const double* x = X.row(r);
        double mx = -INFINITY;
        for (std::size_t c = 0; c < k; ++c) {
          for (std::size_t i = 0; i < p; ++i) xc[i] = x[i] - means(c, i);
          double q = 0;
          for (std::size_t j = 0; j < p; ++j) {
            double yj = 0;
            for (std::size_t i = 0; i < p; ++i) yj += xc[i] * A[c](i, j);
            q += yj * yj;
          }
          L[c] = q * -0.5 + lnorm[c];
          mx = std::max(mx, L[c]);
        }
        double S = 0;
        for (std::size_t c = 0; c < k; ++c) S += std::exp(L[c] - mx);
        a[0] += std::log(S) + mx;
        for (std::size_t c = 0; c < k; ++c) {
          const double rc = std::exp(L[c] - mx) / S;
          a[1 + c] += rc;
          double* mk = a + 1 + k + c * p;
          double* sc = a + 1 + k + k * p + c * p * p;
          for (std::size_t j = 0; j < p; ++j) {
            mk[j] += rc * x[j];
            const double rx = rc * x[j];
            for (std::size_t i = j; i < p; ++i) sc[j * p + i] += rx * x[i];
          }
        }
      }
    });
    std::vector<double> tot(len, 0.0);
    for (const auto& v : acc)
      for (std::size_t i = 0; i < len; ++i) tot[i] += v[i];
    res.loglik(static_cast<std::size_t>(it), 0) = tot[0] / dn;
    for (std::size_t c = 0; c < k; ++c) {
      const double mass = std::max(tot[1 + c], 1e-12);
      w[c] = mass / dn;
      for (std::size_t j = 0; j < p; ++j)
        means(c, j) = tot[1 + k + c * p + j] / mass;
      const double* sc = tot.data() + 1 + k + k * p + c * p * p;
      for (std::size_t j = 0; j < p; ++j)
        for (std::size_t i = j; i < p; ++i)
          cov[c](i, j) = cov[c](j, i) =
              sc[j * p + i] / mass - means(c, i) * means(c, j);
    }
  }
  res.means = means;
  return res;
}

// ---- logistic-im -----------------------------------------------------------

/// L-BFGS logistic regression on criteo_like data (39 features + label = 40
/// f64 columns) held in memory.
class logistic_im final : public workload {
 public:
  // 4 Mi rows x 40 f64 = 1.25 GiB, over 4x a 300 MiB L3.
  logistic_im(std::uint64_t seed, bool tiny)
      : seed_(seed),
        n_(tiny ? (std::size_t{1} << 16) : (std::size_t{1} << 22)) {}

  const char* name() const override { return "logistic-im"; }
  storage where() const override { return storage::in_mem; }
  int expected_iterations() const override { return kIters; }
  shapes probe_shapes() const override {
    // Xi = cbind(X, 1) is 40 wide; both products are against one column.
    // matmul(Xi, w) and crossprod(Xi, r): 2 n p flops each per pass.
    return shapes{40, 1, 0.0, 4.0 * static_cast<double>(n_) * 40.0 / 1e9};
  }

  void setup() override {
    labeled_data d = criteo_like(n_, seed_);
    auto s = store_all({d.X, d.y.cast(scalar_type::f64)}, storage::in_mem);
    X_ = s[0];
    y_ = s[1];
  }
  void drop() override {
    X_ = dense_matrix();
    y_ = dense_matrix();
  }
  std::size_t data_bytes() const override { return n_ * 40 * sizeof(double); }

  double reference() override {
    const bl::rs_matrix rx = to_rs(X_);
    const bl::rs_matrix ry = to_rs(y_);
    const double t0 = now_s();
    ref_w_ = bl::rs_logistic(rx, ry, kIters);
    rowstream_s_ = now_s() - t0;
    return rowstream_s_;
  }

  fit_output fit(const fit_trace&) override {
    ml::logistic_options o;
    o.max_iters = kIters;
    o.loss_tol = -1.0;  // never converge early: a fixed amount of work
    const ml::logistic_model m = ml::logistic_regression(X_, y_, o);
    fit_output out;
    append(out.values, m.w);
    out.values.insert(out.values.end(), m.loss_history.begin(),
                      m.loss_history.end());
    out.iterations = m.iterations;
    return out;
  }

  std::string check_reference(const fit_output& out) override {
    smat w(ref_w_.nrow(), 1);
    if (out.values.size() < w.nrow()) return "logistic: weights missing";
    std::copy(out.values.begin(),
              out.values.begin() + static_cast<long>(w.nrow()), w.data());
    return compare("logistic weights vs rs_logistic", w, ref_w_, kTol);
  }

  double rowstream_fit_s() override { return rowstream_s_; }

 private:
  static constexpr int kIters = 3;
  /// Both engines run the same L-BFGS on the same data and differ only in
  /// summation order.
  static constexpr double kTol = 1e-6;
  std::uint64_t seed_;
  std::size_t n_;
  dense_matrix X_, y_;
  smat ref_w_;
  double rowstream_s_ = 0.0;
};

// ---- cluster-im ------------------------------------------------------------

/// k-means (k=64) then a full-covariance GMM (k=8) on cache-resident
/// pagegraph_like data with 8 planted clusters; the iteration counts give
/// each algorithm about half of a fit.
class cluster_im final : public workload {
 public:
  // 512 Ki rows x 32 f64 = 128 MiB: resident in a 300 MiB L3.
  cluster_im(std::uint64_t seed, bool tiny)
      : seed_(seed),
        n_(tiny ? (std::size_t{1} << 15) : (std::size_t{1} << 19)) {}

  const char* name() const override { return "cluster-im"; }
  storage where() const override { return storage::in_mem; }
  int expected_iterations() const override { return kKmIters + kGmmIters; }
  shapes probe_shapes() const override {
    // GMM whitens with a tall x (p x p) product; k-means' inner.prod is 64
    // wide.
    return shapes{kP, kP, gflop_per_fit(), 0.0};
  }
  /// GEMM-class flops of one fit, computed from the shapes: k-means
  /// distances (3 n p k per iteration), the GMM's k-means warm start (5
  /// iterations at k=8), its moments crossprod, and per EM iteration the
  /// per-component whitening and scatter products (2 n p^2 each) plus the
  /// weighted means (2 n k p).
  double gflop_per_fit() const {
    const double n = static_cast<double>(n_), p = kP;
    const double km = kKmIters * 3.0 * n * p * kK;
    const double init = 5 * 3.0 * n * p * kG + 2.0 * n * p * p;
    const double em = kGmmIters * (kG * 4.0 * n * p * p + 2.0 * n * kG * p);
    return (km + init + em) / 1e9;
  }

  void setup() override {
    labeled_data d = pagegraph_like(n_, kG, seed_);
    X_ = store_all({d.X}, storage::in_mem)[0];
  }
  void drop() override {
    X_ = dense_matrix();
    rx_ = bl::rs_matrix();
  }
  std::size_t data_bytes() const override { return n_ * kP * sizeof(double); }

  double reference() override {
    rx_ = to_rs(X_);
    const smat init = gather_rows(X_, distinct_rows(seed_, n_, kK));
    const double t0 = now_s();
    ref_centers_ = bl::rs_kmeans(rx_, kK, kKmIters, init);
    rowstream_km_s_ = now_s() - t0;
    ref_gmm_ = host_gmm(rx_, kG, kGmmIters, seed_);
    return rowstream_km_s_;
  }

  fit_output fit(const fit_trace&) override {
    ml::kmeans_options ko;
    ko.max_iters = kKmIters;
    ko.seed = seed_;
    const ml::kmeans_result km = ml::kmeans(X_, kK, ko);
    ml::gmm_options go;
    go.max_iters = kGmmIters;
    go.loglik_tol = -1.0;  // never converge early
    go.seed = seed_;
    const ml::gmm_result g = ml::gmm_fit(X_, kG, go);

    fit_output out;
    append(out.values, km.centers);  // k*p values: the k-means centers
    append(out.values, g.means);     // k_gmm*p values: the GMM means
    out.values.insert(out.values.end(), g.loglik_history.begin(),
                      g.loglik_history.end());
    out.values.push_back(km.wcss);
    for (std::size_t m : km.moves_history)
      out.values.push_back(static_cast<double>(m));
    out.values.insert(out.values.end(), g.weights.begin(), g.weights.end());
    for (const smat& c : g.covariances) append(out.values, c);
    // Early convergence of k-means shows as fewer iterations.
    out.iterations = km.iterations + g.iterations;
    return out;
  }

  std::string check_reference(const fit_output& out) override {
    const double* v = out.values.data();
    smat c(kK, kP), m(kG, kP), ll(kGmmIters, 1);
    std::copy(v, v + kK * kP, c.data());
    std::copy(v + kK * kP, v + (kK + kG) * kP, m.data());
    std::copy(v + (kK + kG) * kP, v + (kK + kG) * kP + kGmmIters, ll.data());
    std::string why = compare("k-means centers vs rs_kmeans", c, ref_centers_,
                              kTol);
    if (why.empty())
      why = compare("GMM means vs host EM", m, ref_gmm_.means, kTol);
    if (why.empty())
      why = compare("GMM mean log-likelihoods vs host EM", ll,
                    ref_gmm_.loglik, kTol);
    return why;
  }

  /// rs_kmeans (timed in reference()) plus rs_gmm from the same k-means
  /// warm start.
  double rowstream_fit_s() override {
    const double t0 = now_s();
    bl::rs_gmm(rx_, kG, kGmmIters, ref_gmm_.init_means);
    return rowstream_km_s_ + (now_s() - t0);
  }

 private:
  static constexpr std::size_t kP = 32, kK = 64, kG = 8;
  /// One EM iteration: from the second on, responsibilities of rows far
  /// from a planted cluster underflow into denormals, whose cost varies by
  /// 40% with the seed and would swamp the benchmark's bounds.
  static constexpr int kKmIters = 6, kGmmIters = 1;
  /// The references run the same iterations from the same starting point;
  /// only summation order differs.
  static constexpr double kTol = 1e-7;
  std::uint64_t seed_;
  std::size_t n_;
  dense_matrix X_;
  bl::rs_matrix rx_;
  smat ref_centers_;
  host_gmm_result ref_gmm_;
  double rowstream_km_s_ = 0.0;
};


// ---- etl-em ----------------------------------------------------------------

/// Standardize pagegraph_like data held as SAFS files: a statistics pass, a
/// sweep written back to SAFS, and a read-back pass over the result.
class etl_em final : public workload {
 public:
  // 2 Mi rows x 32 f64 = 512 MiB, 1.7x a 300 MiB L3. Each fit leaves as
  // many bytes of Z dirty in the page cache until Z is dropped. At 5 Mi rows
  // (1.25 GiB, input and Z dirty together) the fit's wall time varied by up
  // to 28% between runs on a shared host while its CPU time did not: the
  // fits waited on the kernel's writeback of dirty pages.
  etl_em(std::uint64_t seed, bool tiny)
      : seed_(seed),
        n_(tiny ? (std::size_t{1} << 16) : (std::size_t{2} << 20)) {}

  const char* name() const override { return "etl-em"; }
  storage where() const override { return storage::ext_mem; }
  int expected_iterations() const override { return 3; }  // passes
  shapes probe_shapes() const override { return shapes{kP, kP, 0.0, 0.0}; }

  void setup() override {
    X_ = conv_store(pagegraph_like(n_, 0, seed_).X, storage::ext_mem);
  }
  void drop() override {
    end_fit();
    X_ = dense_matrix();
  }
  std::size_t data_bytes() const override { return n_ * kP * sizeof(double); }

  double reference() override {
    // Host recomputation of the statistics from the SAFS partitions.
    const double t0 = now_s();
    const auto store = std::dynamic_pointer_cast<em_store>(X_.resolved());
    if (!store) throw std::runtime_error("etl-em: input is not on SAFS");
    const part_geom& g = store->geom();
    ref_sum_.assign(kP, 0.0);
    ref_sq_.assign(kP, 0.0);
    ref_min_.assign(kP, INFINITY);
    ref_max_.assign(kP, -INFINITY);
    std::vector<double> buf(g.part_rows * kP);
    for (std::size_t p = 0; p < g.num_parts(); ++p) {
      store->read_part(p, reinterpret_cast<char*>(buf.data()));
      const std::size_t rows = g.rows_in_part(p);
      for (std::size_t j = 0; j < kP; ++j)
        for (std::size_t i = 0; i < rows; ++i) {
          const double v = buf[j * rows + i];
          ref_sum_[j] += v;
          ref_sq_[j] += v * v;
          ref_min_[j] = std::min(ref_min_[j], v);
          ref_max_[j] = std::max(ref_max_[j], v);
        }
    }
    return now_s() - t0;
  }

  fit_output fit(const fit_trace& tr) override {
    const double n = static_cast<double>(n_);
    fit_output out;
    // Pass 1: column statistics.
    dense_matrix s1 = col_sums(X_), s2 = col_sums(X_ * X_);
    dense_matrix mn = agg_col(X_, agg_id::min_v);
    dense_matrix mx = agg_col(X_, agg_id::max_v);
    run_pass(tr, "stats", [&] { materialize_all({s1, s2, mn, mx}); });
    const smat S1 = s1.to_smat(), S2 = s2.to_smat();
    append(out.values, S1);
    append(out.values, S2);
    append(out.values, mn.to_smat());
    append(out.values, mx.to_smat());

    // Pass 2: standardize and write Z back to SAFS.
    smat mean(1, kP), sd(1, kP);
    for (std::size_t j = 0; j < kP; ++j) {
      mean(0, j) = S1(0, j) / n;
      sd(0, j) = std::sqrt(S2(0, j) / n - mean(0, j) * mean(0, j));
    }
    dense_matrix Zv = sweep_cols(sweep_cols(X_, mean, bop_id::sub), sd,
                                 bop_id::div);
    run_pass(tr, "standardize", [&] { Z_ = conv_store(Zv, storage::ext_mem); });

    // Pass 3: read Z back.
    dense_matrix z1 = col_sums(Z_), z2 = col_sums(Z_ * Z_);
    run_pass(tr, "readback", [&] { materialize_all({z1, z2}); });
    append(out.values, z1.to_smat());
    append(out.values, z2.to_smat());
    mean_ = mean;
    sd_ = sd;
    out.iterations = 3;
    return out;
  }

  std::string check_reference(const fit_output& out) override {
    const double n = static_cast<double>(n_);
    const double* v = out.values.data();
    char buf[200];
    for (std::size_t j = 0; j < kP; ++j) {
      const double sum = v[j], sq = v[kP + j], lo = v[2 * kP + j],
                   hi = v[3 * kP + j];
      const double zm = v[4 * kP + j] / n, zv = v[5 * kP + j] / n;
      if (std::abs(sum - ref_sum_[j]) > 1e-9 * ref_sq_[j] ||
          std::abs(sq - ref_sq_[j]) > 1e-9 * ref_sq_[j] ||
          lo != ref_min_[j] || hi != ref_max_[j]) {
        std::snprintf(buf, sizeof buf,
                      "column %zu statistics differ from the host "
                      "recomputation",
                      j);
        return buf;
      }
      if (std::abs(zm) > 1e-9 || std::abs(zv - 1.0) > 1e-9) {
        std::snprintf(buf, sizeof buf,
                      "column %zu of Z has mean %.3g and variance %.12g", j,
                      zm, zv);
        return buf;
      }
    }
    // Sampled rows of Z against the host's (x - mean) / sd.
    const std::vector<std::size_t> rows =
        distinct_rows(seed_ ^ 0x5a5aULL, n_, 16);
    const smat xs = gather_rows(X_, rows), zs = gather_rows(Z_, rows);
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t j = 0; j < kP; ++j) {
        const double want = (xs(i, j) - mean_(0, j)) / sd_(0, j);
        if (std::abs(zs(i, j) - want) > 1e-12 * std::max(1.0, std::abs(want))) {
          std::snprintf(buf, sizeof buf, "Z[%zu,%zu] = %.17g, want %.17g",
                        rows[i], j, zs(i, j), want);
          return buf;
        }
      }
    return "";
  }

  void end_fit() override { Z_ = dense_matrix(); }

  /// The same three passes on the per-op engine, in memory (the rowstream
  /// model has no external memory).
  double rowstream_fit_s() override {
    const bl::rs_matrix rx = to_rs(conv_store(X_, storage::in_mem));
    buffer_pool::global().trim();  // the staging copy is no longer needed
    const double t0 = now_s();
    std::vector<double> init(4 * kP, 0.0);
    for (std::size_t j = 0; j < kP; ++j) {
      init[2 * kP + j] = INFINITY;
      init[3 * kP + j] = -INFINITY;
    }
    auto fold = [](const double* r, double* s) {
      for (std::size_t j = 0; j < kP; ++j) {
        s[j] += r[j];
        s[kP + j] += r[j] * r[j];
        s[2 * kP + j] = std::min(s[2 * kP + j], r[j]);
        s[3 * kP + j] = std::max(s[3 * kP + j], r[j]);
      }
    };
    auto combine = [](double* a, const double* b) {
      for (std::size_t j = 0; j < kP; ++j) {
        a[j] += b[j];
        a[kP + j] += b[kP + j];
        a[2 * kP + j] = std::min(a[2 * kP + j], b[2 * kP + j]);
        a[3 * kP + j] = std::max(a[3 * kP + j], b[3 * kP + j]);
      }
    };
    const std::vector<double> st = bl::rs_aggregate(rx, 4 * kP, init, fold,
                                                    combine);
    const double n = static_cast<double>(n_);
    std::vector<double> mean(kP), sd(kP);
    for (std::size_t j = 0; j < kP; ++j) {
      mean[j] = st[j] / n;
      sd[j] = std::sqrt(st[kP + j] / n - mean[j] * mean[j]);
    }
    const bl::rs_matrix rz =
        bl::rs_map(rx, kP, [&](const double* r, double* o) {
          for (std::size_t j = 0; j < kP; ++j) o[j] = (r[j] - mean[j]) / sd[j];
        });
    std::vector<double> zero(2 * kP, 0.0);
    bl::rs_aggregate(
        rz, 2 * kP, zero,
        [](const double* r, double* s) {
          for (std::size_t j = 0; j < kP; ++j) {
            s[j] += r[j];
            s[kP + j] += r[j] * r[j];
          }
        },
        [](double* a, const double* b) {
          for (std::size_t j = 0; j < 2 * kP; ++j) a[j] += b[j];
        });
    return now_s() - t0;
  }

 private:
  static constexpr std::size_t kP = 32;

  template <typename F>
  void run_pass(const fit_trace& tr, const char* name, F&& body) {
    scoped_span s(tr.log, name, "exec", tr.parent, tr.fit);
    body();
    if (tr.passes) {
      const exec::pass_stats ps = exec::last_pass_stats();
      pass_io io;
      io.reads_issued = ps.reads_issued;
      io.occupancy = static_cast<double>(ps.occupancy_x100) / 100.0;
      io.write_hwm = ps.write_inflight_hwm;
      tr.passes->push_back(io);
    }
  }

  std::uint64_t seed_;
  std::size_t n_;
  dense_matrix X_, Z_;
  smat mean_, sd_;
  std::vector<double> ref_sum_, ref_sq_, ref_min_, ref_max_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"logistic-im", "cluster-im", "etl-em"};
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "logistic-im") return std::make_unique<logistic_im>(seed, tiny);
  if (name == "cluster-im") return std::make_unique<cluster_im>(seed, tiny);
  if (name == "etl-em") return std::make_unique<etl_em>(seed, tiny);
  return nullptr;
}

}  // namespace pb
