// Per-node pass profiling (the "actuals" side of explain): EXPLAIN ANALYZE
// for the materialization engine.
//
// When profiling is enabled, each pass attributes costs to its nodes' ids in
// the call's plan (core/plan.h) — the node table explain_json() renders, so
// the ids are the ones it prints. An eager sub-pass maps its nodes back to
// the call's top-level plan. Each pass accumulates per-thread, per-node
// costs in plain per-worker arrays (kernel ns, I/O-wait ns, partitions,
// rows, bytes, Pcache chunks) and merges them lock-free (atomic fetch_add)
// when the worker finishes; the merged pass_profile is pushed into a
// bounded history ring here.
//
// explain_analyze_json() ties the two halves together: collect the plan once
// and render it, materialize with profiling on, then emit plan + per-pass
// actuals + per-node totals.
//
// Disabled (the default), the whole layer costs one relaxed load per
// materialization plus one per instrumented site that is not already gated
// by obs::metrics_on().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "matrix/matrix_store.h"

namespace flashr::obs {

namespace detail {
extern std::atomic<bool> g_profile_on;
}  // namespace detail

/// Whether per-node pass profiles are being collected.
inline bool profile_on() {
  return detail::g_profile_on.load(std::memory_order_relaxed);
}

void set_profile_enabled(bool on);

/// Measured actuals of one DAG node over one pass. `id` is the node's DFS id
/// in the call's plan (-1 in a default-constructed record).
struct node_profile {
  int id = -1;
  const char* op = "?";  ///< static storage (node_kind_name / store label)
  bool sink = false;
  bool leaf = false;
  int group = -1;                 ///< fusion group from the plan
  std::uint64_t est_bytes = 0;    ///< planned size, from the plan
  std::uint64_t kernel_ns = 0;    ///< kernel/generate/sink-accumulate time
  std::uint64_t copy_ns = 0;      ///< chunk-copy time (staging/output moves;
                                  ///< 0 when the zero-copy path aliased)
  std::uint64_t io_wait_ns = 0;   ///< worker time blocked on this leaf's I/O
  std::uint64_t partitions = 0;   ///< partitions this node was evaluated in
  std::uint64_t rows = 0;         ///< rows produced/consumed
  std::uint64_t bytes = 0;        ///< bytes produced (or read, for leaves)
  std::uint64_t chunks = 0;       ///< Pcache chunk evaluations
  /// Sampling-profiler join (obs/sampler.h), present when the sampler ran
  /// during the pass: on-CPU samples attributed to this node and their
  /// time-equivalent (samples x sample period) — the measured kernel_ns
  /// carries a sampled self-time cross-check.
  std::uint64_t samples = 0;
  std::uint64_t sampled_ns = 0;
};

/// One materialization pass, merged across workers.
struct pass_profile {
  std::uint64_t seq = 0;  ///< global pass sequence number (assigned on record)
  const char* mode = "?";
  std::size_t chunk_rows = 0;
  int threads = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t io_wait_ns = 0;  ///< sum of per-node io_wait_ns
  /// Degradation-ladder steps the governor took before this pass was
  /// admitted ("depth:32->16", "chunk:0->4096", "mode:mem_fuse->eager");
  /// empty when the pass ran at full configuration.
  std::vector<std::string> degrade;
  std::vector<node_profile> nodes;
  /// Sampling-profiler join: 0 when the sampler was off for this pass.
  std::uint64_t sample_period_ns = 0;
  std::uint64_t samples_cpu = 0;
  std::uint64_t samples_io_wait = 0;
  std::uint64_t samples_lock_wait = 0;

  std::string to_json() const;
};

// --- exec-side hooks ---------------------------------------------------------

/// Push a finished pass into the history ring; assigns and returns its seq.
/// The ring keeps the most recent conf().obs_profile_history passes.
std::uint64_t profile_record(pass_profile&& p);

/// Sequence number of the most recently recorded pass (0 = none yet).
std::uint64_t profile_pass_seq();

/// Snapshot of the history ring, oldest first.
std::vector<pass_profile> profile_history();

/// Drop the history ring (tests).
void profile_clear();

// --- EXPLAIN ANALYZE ---------------------------------------------------------

/// Materialize `targets` with profiling enabled and return
/// {"plan": ..., "wall_ns": ..., "passes": [...], "totals": [...]}: the
/// estimated plan next to measured per-node actuals, keyed by the same DFS
/// node ids. Profiling is restored to its previous setting afterwards.
std::string explain_analyze_json(const std::vector<matrix_store::ptr>& targets,
                                 storage st = storage::in_mem);

/// Same run, returning the annotated Graphviz dot (plan shape + per-node
/// measured totals in the labels).
std::string explain_analyze_dot(const std::vector<matrix_store::ptr>& targets,
                                storage st = storage::in_mem);

}  // namespace flashr::obs
