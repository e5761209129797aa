// Process-wide metrics registry (the metrics third of src/obs/).
//
// Named counters, gauges, fixed-bucket histograms and probes. Increments and
// histogram records are lock-free (relaxed atomics); the registry mutex is
// taken only to create/look up an instrument or to snapshot everything as
// JSON. Instruments live for the process lifetime, so hot paths look their
// instrument up once (function-local static) and then touch only atomics.
//
// Probes are the no-two-sources-of-truth mechanism: an instrument whose
// value is read through a callback at snapshot time, so pre-existing
// counters (io_stats' atomics, exec's pass statistics) stay the single
// canonical storage and the registry is a *view* of them rather than a
// duplicate accumulator.
//
// Histograms use power-of-two buckets (bucket i holds values with bit width
// i, i.e. [2^(i-1), 2^i)); percentile extraction interpolates linearly by
// rank inside the bucket. That bounds the relative error of p50/p95/p99 by
// the bucket width while keeping record() to two relaxed adds and one
// relaxed increment.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/thread_safety.h"

namespace flashr::obs {

namespace detail {
extern std::atomic<bool> g_metrics_on;
}  // namespace detail

/// Whether the *extended* instruments (latency/occupancy/kernel-time
/// histograms) are recorded. The legacy counters (io_stats, pass stats)
/// always accumulate; this gate only covers instrumentation added by the
/// obs layer, so the default-off configuration costs one relaxed load per
/// site.
inline bool metrics_on() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on);

class counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class histogram {
 public:
  /// 64 power-of-two buckets cover the full u64 range.
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v) {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Value at percentile `p` in [0, 100]: rank-interpolated within the
  /// containing power-of-two bucket. 0 when empty.
  double percentile(double p) const;

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class metrics_registry {
 public:
  /// Find-or-create; references stay valid for the process lifetime. Cache
  /// the reference (function-local static) on hot paths.
  counter& get_counter(const std::string& name);
  gauge& get_gauge(const std::string& name);
  histogram& get_histogram(const std::string& name);

  /// Register a read-through view of an external value (see the probe
  /// discussion above). Re-registering a name replaces its callback.
  void register_probe(const std::string& name,
                      std::function<std::uint64_t()> fn);

  /// Value of the named counter/gauge/probe; 0 when absent (`found`, if
  /// given, distinguishes). Histograms are not scalar — read them via
  /// get_histogram().
  std::uint64_t value(const std::string& name, bool* found = nullptr) const;

  /// One JSON object: {"counters":{..}, "gauges":{..}, "probes":{..},
  /// "histograms":{name:{count,sum,mean,p50,p95,p99}}}. Taken under the
  /// registry mutex, so the set of instruments is coherent (individual
  /// atomics are read relaxed).
  std::string to_json() const;

  /// Zero every owned counter/gauge/histogram. Probes are views of external
  /// state and are left alone.
  void reset();

  static metrics_registry& global();

 private:
  mutable mutex reg_mtx_ LOCK_RANK(metrics_registry);
  std::map<std::string, std::unique_ptr<counter>> counters_ GUARDED_BY(reg_mtx_);
  std::map<std::string, std::unique_ptr<gauge>> gauges_ GUARDED_BY(reg_mtx_);
  std::map<std::string, std::unique_ptr<histogram>> hists_ GUARDED_BY(reg_mtx_);
  std::map<std::string, std::function<std::uint64_t()>> probes_
      GUARDED_BY(reg_mtx_);
};

}  // namespace flashr::obs
