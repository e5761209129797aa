// Global engine configuration. A single flashr::options instance is installed
// by flashr::init() and read through flashr::conf(). The defaults target the
// evaluation container (few cores, local disk); the paper's machine would set
// num_threads=48, stripes=24 and larger partitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace flashr {

/// How a DAG of matrix operations is executed (the ablation axis of Fig 10).
enum class exec_mode : int {
  /// "base": every operation materializes its full output in its own pass
  /// (on SSDs when storage is external memory).
  eager = 0,
  /// Operations fused at I/O-partition granularity: one pass over SSD data,
  /// but each intermediate materializes a whole I/O partition in RAM.
  mem_fuse = 1,
  /// Default: I/O partitions split into processor-cache partitions; the DAG
  /// is evaluated depth-first one Pcache partition at a time with buffer
  /// recycling (mem-fuse + cache-fuse in the paper's terms).
  cache_fuse = 2,
};

const char* exec_mode_name(exec_mode m);

/// Per-I/O-partition CRC32 policy for external-memory matrices.
enum class checksum_policy : int {
  off = 0,     ///< no checksums (default)
  verify = 1,  ///< verify on read; mismatch raises io_error
  repair = 2,  ///< verify on read; on mismatch re-read once before failing
};

const char* checksum_policy_name(checksum_policy p);

/// Selects nothing: the engine has one I/O path, the thread pool in
/// io/async_io.h. The enum, its name function and options::io_backend are
/// kept only because the benchmark's source (perfbench/) names them.
enum class io_backend_kind : int {
  threads = 0,  ///< pread/pwrite thread pool (io/async_io.cpp)
};

const char* io_backend_kind_name(io_backend_kind k);

/// Where materialized matrices live.
enum class storage : int {
  in_mem = 0,   ///< FlashR-IM
  ext_mem = 1,  ///< FlashR-EM (SAFS files on "SSDs")
};

struct options {
  /// Worker threads for compute.
  int num_threads = static_cast<int>(std::thread::hardware_concurrency());
  /// Dedicated I/O threads servicing asynchronous reads/writes.
  int io_threads = 2;
  /// Rows per I/O partition; must be a power of two (paper §3.2.1).
  std::size_t io_part_rows = 16384;
  /// Target bytes per matrix for one Pcache partition; determines how many
  /// rows of an I/O partition are materialized at a time under cache_fuse.
  std::size_t pcache_bytes = 64 * 1024;
  /// Size of the fixed memory chunks backing in-memory matrices (§3.2.1).
  std::size_t mem_chunk_bytes = std::size_t{4} << 20;
  /// Directory holding SAFS backing files.
  std::string em_dir = "/tmp/flashr_em";
  /// Number of backing files an EM matrix is striped over ("SSD array").
  int stripes = 4;
  /// Bytes per stripe unit when striping EM data across backing files.
  std::size_t stripe_unit = std::size_t{1} << 20;
  /// Attempt O_DIRECT for EM I/O (falls back transparently if unsupported).
  bool direct_io = false;
  /// Emulated aggregate I/O throughput in MB/s; 0 = unthrottled. Used by
  /// benchmarks to reproduce the paper's RAM-vs-SSD gap on fast local disks.
  double io_throttle_mbps = 0.0;
  /// Execution mode for DAG materialization.
  exec_mode mode = exec_mode::cache_fuse;
  /// Simulated NUMA nodes for placement accounting (1 = UMA).
  int numa_nodes = 1;
  /// Matrices with at most this many rows are evaluated eagerly with serial
  /// kernels instead of joining a DAG (cluster centers, sink results, ...).
  std::size_t small_nrow_threshold = 4096;
  /// I/O partitions handed to a worker per dispatch at the start of a pass
  /// (§3.3: contiguous partitions read in a single asynchronous I/O).
  int dispatch_batch = 4;
  /// Read-ahead window of the shared prefetch pipeline (core/
  /// prefetch_pipeline.h): partitions with reads in flight or completed and
  /// waiting for a worker. -1 = auto (2 * io_threads * dispatch_batch);
  /// 0 = no read-ahead (workers issue reads synchronously — the ablation
  /// baseline of bench_pipeline). With simulated NUMA, each node gets its
  /// own window of this depth.
  int prefetch_depth = -1;
  /// Bounded write-behind: submit of an asynchronous partition write blocks
  /// while this many bytes of write data are queued or in flight, so a
  /// compute phase that outruns the SSDs cannot exhaust the buffer pool.
  /// 0 = unbounded. A single write larger than the budget is still admitted
  /// once the write queue is empty (the bound never deadlocks).
  std::size_t max_inflight_write_bytes = std::size_t{256} << 20;

  /// Selects nothing (see io_backend_kind); kept for the benchmark's source.
  io_backend_kind io_backend = io_backend_kind::threads;

  // --- Resource governor (core/governor.h) ---------------------------------
  /// Process-wide budget of transient pass memory (pool buffers for the
  /// prefetch window, per-worker chunk state, EM output staging and the
  /// write-behind queue). A pass must reserve its estimated footprint before
  /// it starts; on failure it walks the degradation ladder (shrink
  /// prefetch_depth, shrink Pcache chunk rows, fall back to streaming eager
  /// execution) and, still over budget, fails with overload_error.
  /// 0 = unlimited (no memory admission control).
  std::size_t mem_budget_bytes = 0;
  /// Process-wide budget of in-flight partition-leaf reads. Reserved like
  /// mem_budget_bytes; a pass over budget shrinks its prefetch window.
  /// 0 = unlimited.
  std::size_t max_inflight_io = 0;
  /// When the budgets are held by other passes: false (default) queues the
  /// pass until budget frees (or its deadline fires); true fails fast with
  /// overload_error, which retry policies classify as transient.
  bool governor_fail_fast = false;
  /// Default deadline for one materialize() call, milliseconds; a pass past
  /// its deadline is cooperatively cancelled by the watchdog and surfaces
  /// timeout_error. 0 = no deadline. materialize_opts::deadline_ms
  /// overrides per call.
  std::uint64_t pass_deadline_ms = 0;
  /// Hung-I/O detection: a pass with reads in flight but no completion for
  /// this long is cancelled with timeout_error. 0 = disabled.
  std::uint64_t watchdog_stall_ms = 0;

  // --- Resilience (io/fault.h, io/safs.cpp) --------------------------------
  /// Retries for transient syscall failures (EAGAIN/EIO) before the error
  /// escalates as a typed io_error. EINTR is always retried immediately and
  /// does not count against this budget.
  int io_max_retries = 4;
  /// Initial retry backoff in microseconds; doubles per attempt with
  /// deterministic jitter in [0.5, 1.0] of the nominal delay.
  int io_retry_backoff_us = 100;
  /// Upper bound on a single backoff sleep, microseconds.
  int io_retry_backoff_cap_us = 20000;
  /// Checksum policy applied to EM partition reads/writes.
  checksum_policy io_checksum = checksum_policy::off;
  /// Deterministic fault injection (tests, resilience benches). Each
  /// probability is per syscall at the named fault site; 0 disables the
  /// site. The schedule is a pure function of (seed, site, syscall index),
  /// so a given configuration injects the same faults on every run.
  std::uint64_t fault_seed = 0x5eedULL;
  double fault_pread_prob = 0.0;    ///< pread returns -1 with fault_errno
  double fault_pwrite_prob = 0.0;   ///< pwrite returns -1 with fault_errno
  double fault_latency_prob = 0.0;  ///< syscall delayed by fault_latency_us
  double fault_short_prob = 0.0;    ///< pread hits EOF early / short pwrite
  int fault_latency_us = 200;
  /// Stall site (io/async_io.cpp): a read's completion delivery — the
  /// notify/future resolution, after the data landed — is delayed by
  /// fault_stall_us. Unlike the latency site (which delays the syscall),
  /// this models an SSD whose completions stop arriving, which is exactly
  /// what the hung-I/O watchdog (core/governor.h) monitors; tests drive the
  /// watchdog with it deterministically instead of relying on wall-clock
  /// thread scheduling.
  double fault_stall_prob = 0.0;
  int fault_stall_us = 100000;
  int fault_errno = 5;  // EIO
  /// Total faults the schedule may inject before disarming; 0 = unlimited.
  /// A finite budget makes transient-fault tests exact: retries == budget.
  std::size_t fault_max_faults = 0;

  // --- Observability (src/obs/) --------------------------------------------
  /// Collect trace events in the per-thread rings (obs/trace.h). Also
  /// enabled by a non-empty, non-"0" FLASHR_TRACE environment variable at
  /// init(); off costs one relaxed load per instrumentation site.
  bool obs_trace = false;
  /// Record the extended obs histograms (read latency, partition service
  /// time, kernel time per GenOp, window occupancy) into the metrics
  /// registry (obs/metrics.h). Legacy io_stats/pass_stats always accumulate.
  bool obs_metrics = false;
  /// Trace ring capacity per thread, in events (32 bytes each); must be a
  /// power of two. When a ring fills, the oldest events are overwritten and
  /// counted as dropped.
  std::size_t obs_ring_events = std::size_t{1} << 16;
  /// When non-empty, write the trace here automatically at process exit.
  /// FLASHR_TRACE=<path> (any value other than "0"/"1") sets this too.
  std::string obs_trace_path;
  /// Collect per-node pass profiles (obs/profile.h) for explain_analyze()
  /// and the pass-history ring. Also enabled by a non-empty, non-"0"
  /// FLASHR_PROFILE environment variable at init(); off costs one relaxed
  /// load per materialization.
  bool obs_profile = false;
  /// Pass profiles kept in the bounded history ring (most recent N).
  std::size_t obs_profile_history = 64;
  /// Continuous sampling profiler (obs/sampler.h): per-thread SIGPROF
  /// timers at this frequency capture frame-pointer stacks plus the
  /// current pass/DAG-node context into lock-free rings; a collector
  /// folds them into flamegraph-ready aggregates. 0 (default) = off —
  /// every instrumentation site then costs one relaxed load. Also set by
  /// FLASHR_SAMPLE (=1 for the default 97 Hz, =<hz> for a specific rate,
  /// =<path> to additionally write folded stacks there at exit).
  int obs_sample_hz = 0;
  /// When non-empty, write the sampler's folded stacks (flamegraph.pl
  /// collapsed format) here at process exit. FLASHR_SAMPLE=<path> sets
  /// this too.
  std::string obs_sample_path;

  void validate() const;
};

/// Install `opts` as the global configuration. Creates em_dir. Must be called
/// before matrices are created; re-initialization is allowed when no engine
/// state is live (tests do this to sweep configurations).
void init(const options& opts = options());

/// Tear down engine state (thread pools, buffer pools). Idempotent.
void shutdown();

/// Current configuration; initializes with defaults on first use.
const options& conf();

/// Mutable access for test/bench knobs that are safe to flip between DAG
/// executions (mode, throttle, pcache size).
options& mutable_conf();

}  // namespace flashr
