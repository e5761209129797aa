// Shared pieces of the benchmark program: clocks, order statistics, the span
// recorder of the traced run, and the workload interface.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"

namespace pb {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (user + system, every thread).
inline double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- Spans of the traced run -----------------------------------------------

/// One timed region. `fit` groups every span of one fit; `parent` is the id
/// of the enclosing span (0 for the run). Passes reported by the engine's
/// profile history carry their measured wall time but no start (t0 < 0).
struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t fit = 0;
  std::string name;
  std::string layer;
  double t0 = -1.0;
  double dur = 0.0;
};

/// In-memory span log, written out once at exit.
class span_log {
 public:
  std::uint64_t begin(std::string name, std::string layer,
                      std::uint64_t parent, std::uint64_t fit) {
    span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.fit = fit;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.t0 = now_s();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void end(std::uint64_t id) {
    span& s = spans_[id - 1];
    s.dur = now_s() - s.t0;
  }
  /// A span measured elsewhere (an engine pass from the profile history).
  std::uint64_t add(std::string name, std::string layer, std::uint64_t parent,
                    std::uint64_t fit, double dur) {
    const std::uint64_t id = begin(std::move(name), std::move(layer), parent,
                                   fit);
    spans_[id - 1].t0 = -1.0;
    spans_[id - 1].dur = dur;
    return id;
  }
  const std::vector<span>& spans() const { return spans_; }
  /// Self time per layer: each span's duration minus its children's.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  /// {"spans": [...], "self_s": {...}} for the span file.
  std::string to_json() const;

 private:
  std::vector<span> spans_;
};

/// RAII span; a no-op when `log` is null (untraced runs).
class scoped_span {
 public:
  scoped_span(span_log* log, std::string name, std::string layer,
              std::uint64_t parent, std::uint64_t fit)
      : log_(log),
        id_(log ? log->begin(std::move(name), std::move(layer), parent, fit)
                : 0) {}
  ~scoped_span() {
    if (log_) log_->end(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  span_log* log_;
  std::uint64_t id_;
};

// ---- Workloads -------------------------------------------------------------

/// What one fit produced: every number the fit computed (compared bit for
/// bit against the run's first fit) and the iterations it ran.
struct fit_output {
  std::vector<double> values;
  int iterations = 0;
};

/// Prefetch and write-behind accounting of one benchmark-issued pass
/// (exec::last_pass_stats()).
struct pass_io {
  std::uint64_t reads_issued = 0;
  double occupancy = 0.0;  ///< mean prefetch-window occupancy, partitions
  std::uint64_t write_hwm = 0;  ///< in-flight write-behind bytes high-water
};

/// Trace context handed to a fit: where to hang pass spans, and where the
/// workload reports the passes it issues itself.
struct fit_trace {
  span_log* log = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t fit = 0;
  std::vector<pass_io>* passes = nullptr;
};

/// Shapes the layer probes reuse, so each probe runs at the workload's own
/// chunk and partition size.
struct shapes {
  std::size_t ncol = 0;    ///< columns of the widest tall matrix
  std::size_t gemm_n = 0;  ///< right-hand columns of the tall x small product
  /// GEMM-class flops of one fit, computed from the shapes: a fixed part
  /// plus a part per pass (L-BFGS line searches vary the pass count).
  double gflop_fixed = 0;
  double gflop_per_pass = 0;
};

class workload {
 public:
  virtual ~workload() = default;
  virtual const char* name() const = 0;
  virtual flashr::storage where() const = 0;
  /// Iterations every fit must run (no early convergence).
  virtual int expected_iterations() const = 0;
  virtual shapes probe_shapes() const = 0;
  /// Generate the dataset and store it (the timed set-up).
  virtual void setup() = 0;
  /// Drop the dataset (and any fit output still held).
  virtual void drop() = 0;
  /// Bytes of the resident dataset (in memory or on the SAFS files).
  virtual std::size_t data_bytes() const = 0;
  /// Independent reference for the oracle, computed outside the timed
  /// region; returns its wall seconds (the per-op baseline's time when the
  /// reference is the rowstream engine).
  virtual double reference() = 0;
  /// One fit: the user's time to solution.
  virtual fit_output fit(const fit_trace& tr) = 0;
  /// Check the first fit against the reference: "" when it agrees, else why
  /// not.
  virtual std::string check_reference(const fit_output& out) = 0;
  /// Release what the last fit left behind (called after its checks).
  virtual void end_fit() {}
  /// Per-op (rowstream) baseline fit seconds for the traced run.
  virtual double rowstream_fit_s() = 0;
};

/// Make a workload by name; null when unknown. `tiny` selects the smoke-test
/// size.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);
std::vector<std::string> workload_names();

// ---- Layer probes ----------------------------------------------------------

struct probe_result {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Time direct calls into the engine's layers at the workload's shapes.
/// Runs after the dataset is dropped.
std::vector<probe_result> run_probes(const shapes& sh, flashr::storage where,
                                     span_log* log, std::uint64_t parent);

}  // namespace pb
