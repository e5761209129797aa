#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

namespace flashr::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

double histogram::percentile(double p) const {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cum + counts[i]) >= rank) {
      // Bucket i holds values with bit_width i: [2^(i-1), 2^i).
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
      const double hi =
          i == 0 ? 0.0 : static_cast<double>((1ULL << (i - 1)) * 2 - 1);
      double frac = (rank - static_cast<double>(cum)) /
                    static_cast<double>(counts[i]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lo + (hi - lo) * frac;
    }
    cum += counts[i];
  }
  return static_cast<double>(sum());  // unreachable with total > 0
}

void histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

counter& metrics_registry::get_counter(const std::string& name) {
  mutex_lock lock(reg_mtx_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<counter>();
  return *slot;
}

gauge& metrics_registry::get_gauge(const std::string& name) {
  mutex_lock lock(reg_mtx_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<gauge>();
  return *slot;
}

histogram& metrics_registry::get_histogram(const std::string& name) {
  mutex_lock lock(reg_mtx_);
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<histogram>();
  return *slot;
}

void metrics_registry::register_probe(const std::string& name,
                                      std::function<std::uint64_t()> fn) {
  mutex_lock lock(reg_mtx_);
  probes_[name] = std::move(fn);
}

std::uint64_t metrics_registry::value(const std::string& name,
                                      bool* found) const {
  std::function<std::uint64_t()> probe;
  {
    mutex_lock lock(reg_mtx_);
    if (auto it = counters_.find(name); it != counters_.end()) {
      if (found != nullptr) *found = true;
      return it->second->value();
    }
    if (auto it = gauges_.find(name); it != gauges_.end()) {
      if (found != nullptr) *found = true;
      return it->second->value();
    }
    if (auto it = probes_.find(name); it != probes_.end()) probe = it->second;
  }
  // Probes run outside the registry lock: they may take their owner's lock
  // (exec's pass-stats mutex), and nothing orders that lock after ours.
  if (probe) {
    if (found != nullptr) *found = true;
    return probe();
  }
  if (found != nullptr) *found = false;
  return 0;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

template <typename Map, typename Fn>
void append_section(std::string& out, const char* title, const Map& map,
                    Fn&& value_of, bool& first_section) {
  if (!first_section) out += ",\n";
  first_section = false;
  out += "  \"";
  out += title;
  out += "\": {";
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    append_escaped(out, name);
    out += "\": ";
    out += value_of(v);
  }
  out += "}";
}

std::string u64_str(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string metrics_registry::to_json() const {
  // Snapshot probe callbacks under the lock, run them outside it (see
  // value() for the ordering rationale).
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>> probes;
  std::string out = "{\n";
  bool first_section = true;
  {
    mutex_lock lock(reg_mtx_);
    append_section(out, "counters", counters_,
                   [](const std::unique_ptr<counter>& c) {
                     return u64_str(c->value());
                   },
                   first_section);
    append_section(out, "gauges", gauges_,
                   [](const std::unique_ptr<gauge>& g) {
                     return u64_str(g->value());
                   },
                   first_section);
    append_section(out, "histograms", hists_,
                   [](const std::unique_ptr<histogram>& h) {
                     char buf[192];
                     std::snprintf(
                         buf, sizeof(buf),
                         "{\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                         ", \"mean\": %.3f, \"p50\": %.1f, \"p95\": %.1f, "
                         "\"p99\": %.1f}",
                         h->count(), h->sum(), h->mean(), h->percentile(50),
                         h->percentile(95), h->percentile(99));
                     return std::string(buf);
                   },
                   first_section);
    probes.reserve(probes_.size());
    for (const auto& [name, fn] : probes_) probes.emplace_back(name, fn);
  }
  if (!first_section) out += ",\n";
  out += "  \"probes\": {";
  bool first = true;
  for (const auto& [name, fn] : probes) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    append_escaped(out, name);
    out += "\": " + u64_str(fn());
  }
  out += "}\n}";
  return out;
}

void metrics_registry::reset() {
  mutex_lock lock(reg_mtx_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : hists_) h->reset();
}

metrics_registry& metrics_registry::global() {
  static metrics_registry* reg = new metrics_registry();  // leaked: probes
  return *reg;  // and instruments must outlive static destructors
}

}  // namespace flashr::obs
