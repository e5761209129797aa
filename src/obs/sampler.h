// Continuous on-CPU sampling profiler (the fourth pillar of src/obs/).
//
// Span tracing, metrics, and explain_analyze() only see *instrumented*
// sites; time spent inside BLAS inner loops, the allocator, or page-fault
// handling is invisible to all of them. The sampler closes that gap: every
// attached thread owns a POSIX per-thread timer (timer_create +
// SIGEV_THREAD_ID) that delivers SIGPROF at obs_sample_hz. The signal
// handler — async-signal-safe under the analyzer's FLASHR_SIGNAL_SAFE
// rules — walks the frame-pointer chain and records the raw pcs plus the
// interrupted thread's sampling context (current pass id, DAG plan-node
// id, and wait state, all thread-local relaxed atomics maintained by the
// RAII scopes below) into a per-thread lock-free SPSC ring. A collector
// thread drains the rings every ~50 ms and folds samples into
// (stack, state)- and (pass, node, state)-keyed aggregates.
//
// Off-CPU attribution: the executor and I/O layers wrap their existing
// read-wait / throttle / lock-wait span sites in sample_wait_scope, so a
// sample taken while a thread sits in one of those windows is keyed
// io_wait or lock_wait instead of cpu. Every profile therefore splits into
// on-CPU / I/O-wait / lock-wait with no post-hoc log joining.
//
// Export paths (all symbolization — dladdr + demangle — happens here, far
// from the signal handler):
//   * folded stacks, flamegraph.pl collapsed format:
//     "track;state;outer;...;inner count" via folded_stacks() and
//     write_folded();
//   * per-(pass, node) sample counts, joined into explain_analyze() by the
//     executor (node_profile.samples / sampled_ns).
//
// Cost when off: obs_sample_hz=0 (the default) arms no timers and every
// scope below is a single relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace flashr::obs {

namespace detail {
/// Sampling rate in Hz; 0 = off. One relaxed load gates every scope.
extern std::atomic<std::uint32_t> g_sample_hz;
}  // namespace detail

/// Whether the sampler is running (obs_sample_hz > 0 and started).
inline bool sampler_on() {
  return detail::g_sample_hz.load(std::memory_order_relaxed) != 0;
}

/// What a sample taken "now" on this thread means. cpu is the default;
/// the wait states are entered via sample_wait_scope around the blocking
/// windows the trace layer already marks with spans.
enum class sample_state : std::uint8_t {
  cpu = 0,
  io_wait = 1,
  lock_wait = 2,
};

inline constexpr const char* sample_state_name(sample_state s) {
  switch (s) {
    case sample_state::cpu: return "cpu";
    case sample_state::io_wait: return "io_wait";
    case sample_state::lock_wait: return "lock_wait";
  }
  return "?";
}

namespace detail {
/// Per-thread sampling context read by the SIGPROF handler. The handler
/// interrupts the same thread that writes these, so program order makes
/// plain relaxed atomics sufficient (no cross-thread visibility needed).
struct sample_tls_ctx {
  std::atomic<std::uint32_t> pass{0};  ///< sampler_new_pass() token; 0=none
  std::atomic<std::int32_t> node{-1};  ///< executor plan-node id; -1=none
  std::atomic<std::uint8_t> state{0};  ///< sample_state
};
extern thread_local sample_tls_ctx t_sample_ctx;
}  // namespace detail

/// Tag samples on this thread with an executor plan-node id for the
/// scope's lifetime (restores the previous id — kernels can nest within
/// sink accumulation). node < 0 or sampler off: no-op beyond one load.
class sample_node_scope {
 public:
  explicit sample_node_scope(int node) {
    if (!sampler_on() || node < 0) return;
    auto& c = detail::t_sample_ctx;
    prev_ = c.node.load(std::memory_order_relaxed);
    c.node.store(node, std::memory_order_relaxed);
    armed_ = true;
  }
  ~sample_node_scope() {
    if (armed_)
      detail::t_sample_ctx.node.store(prev_, std::memory_order_relaxed);
  }
  sample_node_scope(const sample_node_scope&) = delete;
  sample_node_scope& operator=(const sample_node_scope&) = delete;

 private:
  std::int32_t prev_ = -1;
  bool armed_ = false;
};

/// Tag samples on this thread with a pass token (from sampler_new_pass())
/// for the scope's lifetime. The executor opens one per worker per pass so
/// record_profile() can pull exactly this pass's samples.
class sample_pass_scope {
 public:
  explicit sample_pass_scope(std::uint32_t pass) {
    if (!sampler_on() || pass == 0) return;
    auto& c = detail::t_sample_ctx;
    prev_ = c.pass.load(std::memory_order_relaxed);
    c.pass.store(pass, std::memory_order_relaxed);
    armed_ = true;
  }
  ~sample_pass_scope() {
    if (armed_)
      detail::t_sample_ctx.pass.store(prev_, std::memory_order_relaxed);
  }
  sample_pass_scope(const sample_pass_scope&) = delete;
  sample_pass_scope& operator=(const sample_pass_scope&) = delete;

 private:
  std::uint32_t prev_ = 0;
  bool armed_ = false;
};

/// Mark this thread as blocked (io_wait / lock_wait) for the scope's
/// lifetime; samples landing inside are attributed off-CPU. Placed at the
/// same sites as the trace layer's read-wait/throttle spans.
class sample_wait_scope {
 public:
  explicit sample_wait_scope(sample_state s) {
    if (!sampler_on()) return;
    auto& c = detail::t_sample_ctx;
    prev_ = c.state.load(std::memory_order_relaxed);
    c.state.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
    armed_ = true;
  }
  ~sample_wait_scope() {
    if (armed_)
      detail::t_sample_ctx.state.store(prev_, std::memory_order_relaxed);
  }
  sample_wait_scope(const sample_wait_scope&) = delete;
  sample_wait_scope& operator=(const sample_wait_scope&) = delete;

 private:
  std::uint8_t prev_ = 0;
  bool armed_ = false;
};

/// Attach the calling thread to the sampler: allocate its sample ring,
/// record its stack bounds, and arm its per-thread timer if the sampler is
/// running. Idempotent; re-attaching just updates the track name. Called
/// from obs::set_thread_name() so every named engine thread (worker-N,
/// io-N, watchdog) is covered automatically; the main thread attaches in
/// sampler_start(). `track` must have static storage duration or be copied
/// by the caller — the sampler copies it.
void sampler_thread_attach(const char* track);

/// Start sampling at `hz` (arms timers on every attached thread and
/// spawns the collector). Restartable; a second call with a different rate
/// re-arms. hz <= 0 is a no-op.
void sampler_start(int hz);

/// Stop sampling: disarm timers, drain rings, stop the collector.
/// Aggregates are retained for export until sampler_clear().
void sampler_stop();

/// Drop all aggregated samples and counters (tests isolate themselves
/// with this; stop first).
void sampler_clear();

/// Monotone counters (survive stop; cleared by sampler_clear()).
struct sampler_counters {
  std::uint64_t samples = 0;  ///< records folded by the collector
  std::uint64_t dropped = 0;  ///< ring-full drops (newest-dropped)
  std::uint32_t hz = 0;       ///< current rate, 0 when stopped
};
sampler_counters sampler_stats();

/// Mint a pass token for tagging samples (wraps, never returns 0).
std::uint32_t sampler_new_pass();

/// Per-(pass, node) aggregate for the explain_analyze() join.
struct node_samples {
  std::uint32_t pass = 0;
  std::int32_t node = -1;       ///< executor plan id; -1 = unattributed
  std::uint64_t cpu = 0;        ///< on-CPU samples
  std::uint64_t io_wait = 0;
  std::uint64_t lock_wait = 0;
};

/// Drain pending rings and return every aggregate for `pass` (all passes
/// when pass == 0). Fills `period_ns` (ns per sample at the rate samples
/// were taken) when non-null; 0 if the sampler never ran.
std::vector<node_samples> sampler_pass_samples(std::uint32_t pass,
                                               std::uint64_t* period_ns);

/// All folded stacks collected so far, flamegraph.pl collapsed format:
/// one "track;state;outer;...;inner count" line each, symbolized here.
std::string folded_stacks();

/// What write_folded() flushed.
struct folded_summary {
  std::size_t lines = 0;      ///< distinct stacks written
  std::uint64_t samples = 0;  ///< total sample count across them
  std::uint64_t dropped = 0;  ///< ring-full drops over the same period
};

/// folded_stacks() to a file. lines == 0 may also mean the file could not
/// be written (a warning is logged).
folded_summary write_folded(const std::string& path);

/// Register the sampler.samples / sampler.drops probes with the metrics
/// registry (idempotent; they read 0 while off).
void sampler_register_metrics();

}  // namespace flashr::obs
