#include "common/config.h"

#include <sys/stat.h>

#include <bit>
#include <cstdlib>
#include <mutex>
#include <string_view>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr {

namespace {
options g_options;
bool g_initialized = false;
std::mutex g_mutex;
}  // namespace

const char* exec_mode_name(exec_mode m) {
  switch (m) {
    case exec_mode::eager: return "eager";
    case exec_mode::mem_fuse: return "mem-fuse";
    case exec_mode::cache_fuse: return "cache-fuse";
  }
  return "?";
}

const char* checksum_policy_name(checksum_policy p) {
  switch (p) {
    case checksum_policy::off: return "off";
    case checksum_policy::verify: return "verify";
    case checksum_policy::repair: return "repair";
  }
  return "?";
}

const char* io_backend_kind_name(io_backend_kind k) {
  switch (k) {
    case io_backend_kind::threads: return "threads";
  }
  return "?";
}

void options::validate() const {
  FLASHR_CHECK(num_threads >= 1, "num_threads must be >= 1");
  FLASHR_CHECK(io_threads >= 1, "io_threads must be >= 1");
  FLASHR_CHECK(io_part_rows >= 8 && std::has_single_bit(io_part_rows),
               "io_part_rows must be a power of two >= 8");
  FLASHR_CHECK(pcache_bytes >= 512, "pcache_bytes too small");
  FLASHR_CHECK(stripes >= 1, "stripes must be >= 1");
  FLASHR_CHECK(stripe_unit >= 4096, "stripe_unit must be >= 4096");
  FLASHR_CHECK(numa_nodes >= 1, "numa_nodes must be >= 1");
  FLASHR_CHECK(dispatch_batch >= 1, "dispatch_batch must be >= 1");
  FLASHR_CHECK(prefetch_depth >= -1, "prefetch_depth must be >= -1");
  FLASHR_CHECK(!em_dir.empty(), "em_dir must be set");
  FLASHR_CHECK(io_max_retries >= 0, "io_max_retries must be >= 0");
  FLASHR_CHECK(io_retry_backoff_us >= 0, "io_retry_backoff_us must be >= 0");
  FLASHR_CHECK(io_retry_backoff_cap_us >= 0,
               "io_retry_backoff_cap_us must be >= 0");
  auto valid_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  FLASHR_CHECK(valid_prob(fault_pread_prob) && valid_prob(fault_pwrite_prob) &&
                   valid_prob(fault_latency_prob) &&
                   valid_prob(fault_short_prob) && valid_prob(fault_stall_prob),
               "fault probabilities must be in [0, 1]");
  FLASHR_CHECK(fault_latency_us >= 0, "fault_latency_us must be >= 0");
  FLASHR_CHECK(fault_stall_us >= 0, "fault_stall_us must be >= 0");
  FLASHR_CHECK(obs_ring_events >= 16 && std::has_single_bit(obs_ring_events),
               "obs_ring_events must be a power of two >= 16");
  FLASHR_CHECK(obs_profile_history >= 1,
               "obs_profile_history must be >= 1");
  FLASHR_CHECK(obs_sample_hz >= 0 && obs_sample_hz <= 10000,
               "obs_sample_hz must be in [0, 10000]");
}

namespace {

/// Flush the configured trace file when the process exits with tracing on
/// (registered once, on the first init() that arms a trace path).
void write_trace_at_exit() {
  if (obs::trace_on() && !conf().obs_trace_path.empty())
    obs::write_trace(conf().obs_trace_path);
}

/// Flush folded sampler stacks when the process exits with a sample path
/// armed (registered once, like write_trace_at_exit).
void write_folded_at_exit() {
  if (obs::sampler_on() && !conf().obs_sample_path.empty())
    obs::write_folded(conf().obs_sample_path);
}

}  // namespace

void init(const options& opts) {
  opts.validate();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_options = opts;
  if (g_options.num_threads <= 0) g_options.num_threads = 1;
  ::mkdir(g_options.em_dir.c_str(), 0755);
  // FLASHR_TRACE=1 turns tracing on; any other non-"0" value is also the
  // output path, flushed automatically at exit.
  if (const char* env = std::getenv("FLASHR_TRACE");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    g_options.obs_trace = true;
    if (std::string_view(env) != "1") g_options.obs_trace_path = env;
  }
  // FLASHR_PROFILE=1 (any non-"0" value) turns per-node pass profiling on.
  if (const char* env = std::getenv("FLASHR_PROFILE");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    g_options.obs_profile = true;
  }
  // FLASHR_SAMPLE=1 turns the sampling profiler on at the default 97 Hz;
  // an integer value sets the rate; any other non-"0" value is also the
  // folded-stack output path, flushed automatically at exit.
  if (const char* env = std::getenv("FLASHR_SAMPLE");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    char* end = nullptr;
    const long hz = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && hz > 0) {
      g_options.obs_sample_hz = static_cast<int>(hz);
    } else {
      if (g_options.obs_sample_hz <= 0) g_options.obs_sample_hz = 97;
      if (std::string_view(env) != "1") g_options.obs_sample_path = env;
    }
  }
  // FLASHR_LOG_LEVEL=none|warn|info|debug (or 0..3) filters the log sink.
  if (const char* env = std::getenv("FLASHR_LOG_LEVEL");
      env != nullptr && *env != '\0') {
    log_level lvl;
    if (log_level_from_name(env, &lvl))
      set_log_level(lvl);
    else
      FLASHR_WARN("FLASHR_LOG_LEVEL: unknown level '%s' (ignored)", env);
  }
  obs::set_trace_enabled(g_options.obs_trace);
  obs::set_metrics_enabled(g_options.obs_metrics);
  obs::set_profile_enabled(g_options.obs_profile);
  // Sampler counters register even while off so the metrics always carry
  // sampler.*; the sampler itself starts only when a rate is set.
  obs::sampler_register_metrics();
  if (g_options.obs_sample_hz > 0) {
    obs::sampler_start(g_options.obs_sample_hz);
    if (!g_options.obs_sample_path.empty()) {
      static const bool samp_registered = [] {
        std::atexit(write_folded_at_exit);
        return true;
      }();
      (void)samp_registered;
    }
  } else {
    obs::sampler_stop();
  }
  if (g_options.obs_trace && !g_options.obs_trace_path.empty()) {
    static const bool registered = [] {
      std::atexit(write_trace_at_exit);
      return true;
    }();
    (void)registered;
  }
  g_initialized = true;
  FLASHR_DEBUG("initialized: threads=%d io_threads=%d part_rows=%zu mode=%s",
               g_options.num_threads, g_options.io_threads,
               g_options.io_part_rows, exec_mode_name(g_options.mode));
}

void shutdown() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_initialized = false;
}

const options& conf() {
  if (!g_initialized) init(options());
  return g_options;
}

options& mutable_conf() {
  if (!g_initialized) init(options());
  return g_options;
}

}  // namespace flashr
