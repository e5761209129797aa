// DAG materialization (§3.5).
//
// Given a set of requested virtual matrices, the executor gathers the DAG of
// un-materialized nodes beneath them and evaluates everything in a single
// parallel pass over the shared partition space (plus nodes flagged with
// set.cache). Three execution modes reproduce the ablation of §4.6:
//
//  * exec_mode::eager      — every node gets its own full pass ("base").
//  * exec_mode::mem_fuse   — one pass over leaf data; intermediates
//                            materialize whole I/O partitions in RAM.
//  * exec_mode::cache_fuse — I/O partitions are split into Pcache partitions
//                            evaluated depth-first with buffer recycling, so
//                            intermediates live in the CPU cache.
//
// Partition-aligned outputs are written to `st` (RAM or SSD); sink outputs
// (aggregates, groupbys, generalized t(A)%*%B) are accumulated per thread
// and merged, always landing in memory (§3.5: only sink matrices are kept by
// default, giving the small memory footprint of Table 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "matrix/matrix_store.h"

namespace flashr::exec {

/// Per-call execution limits (the conf() knobs give the process-wide
/// defaults; a non-zero field here overrides them for one call).
struct materialize_opts {
  /// Wall-clock budget in ms for the whole materialization, admission waits
  /// included. Exceeding it cancels the running pass cooperatively and
  /// surfaces timeout_error. 0 defers to conf().pass_deadline_ms.
  std::uint64_t deadline_ms = 0;
};

/// Materialize every virtual store in `targets` (non-virtual entries are
/// ignored; already-materialized nodes are skipped). On return, each target
/// virtual_store has its result() set.
///
/// Resilience: each pass is admitted by the resource governor
/// (core/governor.h) against conf().mem_budget_bytes / max_inflight_io,
/// degrading read-ahead, Pcache chunking and finally the fusion mode to fit
/// — bit-identical results, slower. Passes run one at a time: a call from a
/// second thread queues behind the running pass. Throws overload_error
/// (transient) when the budget cannot be met even fully degraded, or when
/// another pass is running in fail-fast mode, and timeout_error when the
/// deadline or the hung-I/O watchdog fires.
void materialize(const std::vector<matrix_store::ptr>& targets, storage st);
void materialize(const std::vector<matrix_store::ptr>& targets, storage st,
                 const materialize_opts& opts);

/// Per-materialize() I/O accounting, accumulated over every pass the call
/// ran (eager mode runs one pass per node). Each call owns one record;
/// last_pass_stats() returns the record of the call that finished last.
struct pass_stats {
  std::size_t passes = 0;             ///< parallel passes executed
  std::size_t sequential_passes = 0;  ///< of which forced sequential (cum)
  std::uint64_t read_bytes = 0;       ///< EM bytes read by the passes
  std::uint64_t write_bytes = 0;      ///< EM bytes written by the passes
  std::uint64_t read_wait_ns = 0;     ///< worker time blocked on reads
  std::size_t reads_issued = 0;       ///< async partition-leaf reads issued
  /// Mean prefetch-window occupancy at claim time (completed + in-flight
  /// partitions), in 1/100ths of a partition; 0 when no pipeline popped.
  std::uint64_t occupancy_x100 = 0;
  std::size_t write_throttle_stalls = 0;  ///< submit_write calls that blocked
  std::uint64_t write_throttle_ns = 0;    ///< total write-throttle stall time
  std::size_t write_inflight_hwm = 0;     ///< in-flight write bytes high-water
  /// Chunk evaluations satisfied by aliasing instead of a kernel/copy (the
  /// zero-copy path: identity casts over in-memory or prefetched EM leaves,
  /// including partitions written straight from their EM read buffer).
  std::size_t zero_copy_chunks = 0;
  std::size_t degrade_steps = 0;      ///< degradation-ladder steps taken
  std::size_t admission_waits = 0;    ///< passes that queued for budget
  std::uint64_t admission_wait_ns = 0;///< total time queued for budget
  /// The ladder's steps in order ("depth:32->16,chunk:0->4096,...");
  /// empty when the call ran at full configuration.
  std::string degrade_path;

  /// One flat JSON object with every field (benchmark output embeds this).
  std::string to_json() const;
};

/// X-macro over every numeric pass_stats field, in declaration order.
/// to_json(), the per-field metrics probes (exec.cpp) and the struct/JSON
/// parity test (tests/test_obs.cpp) all expand this list; the static_assert
/// below pins the struct layout so adding a field without extending the
/// list fails to compile instead of silently missing from the JSON and the
/// metrics.
#define FLASHR_PASS_STATS_FIELDS(X) \
  X(passes)                         \
  X(sequential_passes)              \
  X(read_bytes)                     \
  X(write_bytes)                    \
  X(read_wait_ns)                   \
  X(reads_issued)                   \
  X(occupancy_x100)                 \
  X(write_throttle_stalls)          \
  X(write_throttle_ns)              \
  X(write_inflight_hwm)             \
  X(zero_copy_chunks)               \
  X(degrade_steps)                  \
  X(admission_waits)                \
  X(admission_wait_ns)

static_assert(sizeof(pass_stats) ==
                  14 * sizeof(std::uint64_t) + sizeof(std::string),
              "pass_stats layout changed: update FLASHR_PASS_STATS_FIELDS "
              "(degrade_path stays the one non-numeric field in to_json)");

/// Stats of the materialize() call that most recently finished (normally or
/// by exception; global, not thread-local). A call that found nothing to
/// compute publishes nothing. Safe to call from any thread at any time: the
/// snapshot is taken under a lock, so it is always one call's whole record,
/// never a mix.
pass_stats last_pass_stats();

/// Rows per Pcache chunk for a DAG whose widest matrix has `max_ncol`
/// columns of `elem_bytes`-byte elements (exposed for tests).
std::size_t pcache_rows(std::size_t max_ncol, std::size_t part_rows,
                        std::size_t elem_bytes = 8);

}  // namespace flashr::exec
