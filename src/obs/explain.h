// DAG explain (the third part of src/obs/): dump what a materialization
// *will* do, before any pass runs.
//
// explain_json()/explain_dot() render the plan exec::materialize would run:
// the node table exec::collect() (core/plan.h) builds from the
// un-materialized DAG beneath a set of requested stores (virtual nodes with
// a result are followed to their physical store and reported as leaves).
// They emit:
//
//  * per node: dense id, store kind (virtual/mem/em/generated), GenOp kind
//    and element functions, shape, element type, partition rows, sink/cache
//    flags, child ids;
//  * the execution plan under the *current* conf().mode: fusion groups
//    (eager = one pass per node; the fused modes = one pass for the whole
//    DAG), the Pcache chunk rows cache_fuse would use, and whether the
//    cumulative-op carry chains force sequential partition dispatch.
//
// Node ids are the plan's dense ids, assigned in DFS (children-first) order
// over the targets, so the output is deterministic for a given construction
// order — tests pin a golden DAG's output verbatim — and the ids are the
// ones the pass runner and the profiler use.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "matrix/matrix_store.h"

namespace flashr::obs {

/// JSON description of the pending DAG beneath `targets`.
std::string explain_json(const std::vector<matrix_store::ptr>& targets);

/// Graphviz dot, one node per store, edges child -> consumer.
std::string explain_dot(const std::vector<matrix_store::ptr>& targets);

/// One node of the summarized plan. `id` is the plan's dense DFS
/// (children-first) id — the same id explain_json() prints, and the key the
/// profiler (obs/profile.h) attributes measured costs to.
struct plan_node {
  const matrix_store* store = nullptr;
  int id = 0;
  /// GenOp name for virtual nodes ("sapply", "s_tmm", ...), store kind for
  /// leaves ("mem", "em", "generated"). Static storage duration.
  const char* op = "?";
  bool sink = false;
  bool leaf = false;
  std::size_t nrow = 0;
  std::size_t ncol = 0;
  /// Estimated materialized size (nrow * ncol * elem_size) — the "estimated
  /// plan" half of explain_analyze's estimate-vs-actual comparison.
  std::size_t est_bytes = 0;
  /// Fusion group under the current exec mode (index into
  /// plan_summary::groups); -1 for leaves.
  int group = -1;
  std::vector<int> children;
};

/// The plan explain_json() would print, in structured form: a rendering of
/// the same node table, nodes indexed by DFS id, plus the exec-plan facts
/// under the *current* configuration.
struct plan_summary {
  std::vector<plan_node> nodes;  // index == plan_node::id
  std::vector<int> targets;
  /// Fusion groups of pending node ids: eager = one group per node
  /// (topological order), fused modes = a single group for the whole DAG.
  std::vector<std::vector<int>> groups;
  const char* mode = "?";
  std::size_t chunk_rows = 0;
  bool sequential_dispatch = false;
};

plan_summary summarize(const std::vector<matrix_store::ptr>& targets);

}  // namespace flashr::obs
