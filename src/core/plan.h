// The plan of one materialization (§3.4–3.5): the single walk of the DAG
// beneath a set of requested stores.
//
// collect() numbers every node it reaches in children-first DFS order over
// the targets — the ids explain_json() prints, the profiler attributes costs
// to, and the pass runner indexes its per-chunk state by. Pending virtual
// nodes (sinks included) carry their resolved child ids and consumer counts;
// mem/ext/generated stores are leaves. A target that is already
// materialized stays in the table as a zero-consumer leaf: it is part of the
// explained plan but of no pass (no leaf list, no read-ahead, no chunk
// term).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "core/virtual_store.h"

namespace flashr {
class em_readable;
}

namespace flashr::exec {

/// Follow a store through its materialized result, if any.
const matrix_store* resolve(const matrix_store* s);

/// One node of the plan, resolved once so the chunk loop indexes flat
/// arrays: no resolve() (which takes the node's result mutex), no hashing of
/// store pointers, per chunk.
struct node_entry {
  const matrix_store* store = nullptr;  ///< resolved store
  store_kind kind = store_kind::mem;
  scalar_type type = scalar_type::f64;
  std::size_t ncol = 0;
  std::size_t elem_size = 0;
  /// Edges from collected parents, +1 per output writer. A chunk buffer is
  /// recycled when its count reaches zero.
  int consumers = 0;
  /// Ids of the resolved children (virtual nodes only).
  std::vector<int> children;

  const virtual_store* virt() const {
    return static_cast<const virtual_store*>(store);
  }
  /// Whether the node's chunks live in a buffer the pass owns (virtual
  /// and generated); mem/ext leaves are views into existing storage.
  bool owns_chunk() const {
    return kind != store_kind::mem && kind != store_kind::ext;
  }
  /// Materialized size (the plan's estimate next to measured actuals).
  std::size_t est_bytes() const { return store->nrow() * ncol * elem_size; }
};

struct dag_info {
  /// Every node by dense id, children before parents. Built by collect();
  /// read-only during the pass.
  std::vector<node_entry> nodes;
  /// Ids of the non-null targets, in request order.
  std::vector<int> targets;
  /// Ids of the pending virtual nodes, in id (topological) order.
  std::vector<int> order;
  /// Plan-time lookup from a resolved store to its dense id.
  std::unordered_map<const matrix_store*, int> ids;
  /// Ids of the mem/ext leaves, whose per-partition views each worker
  /// resolves once per claimed partition.
  std::vector<int> leaf_ids;
  /// Ids of the partition-aligned nodes whose data must be written out
  /// (targets and set.cache'd intermediates).
  std::vector<int> tall_ids;
  /// Per tall output, whether a target requested it (as opposed to its
  /// cache flag alone).
  std::vector<bool> tall_requested;
  /// Ids of the sink targets.
  std::vector<int> sink_ids;
  /// The shared partition space of the DAG.
  part_geom space{0, 1, 1};
  bool space_set = false;
  /// Distinct external-memory leaves, in first-read order (for prefetching).
  std::vector<const em_readable*> em_leaves;
  std::size_t max_ncol = 1;
  /// Widest element in the DAG (bytes); sizes Pcache chunks so an all-i32
  /// DAG gets twice the rows of an f64 one instead of assuming 8 B.
  std::size_t max_elem = 1;
  bool has_cum = false;
  /// Per node, the id of the same node in the call's top-level plan; empty
  /// when this IS the top-level plan. An eager sub-pass sees its children
  /// as materialized leaves, but costs them to the nodes the plan named.
  std::vector<int> plan_ids;

  int id_of(const matrix_store* s) const {
    auto it = ids.find(s);
    FLASHR_ASSERT(it != ids.end(), "node without a chunk id");
    return it->second;
  }
  /// The pending virtual node `id` (collect() resolved it from a mutable
  /// target, so handing it back mutable is sound).
  virtual_store* virt(int id) const {
    return const_cast<virtual_store*>(
        nodes[static_cast<std::size_t>(id)].virt());
  }
  int plan_id(int id) const {
    return plan_ids.empty() ? id : plan_ids[static_cast<std::size_t>(id)];
  }
  /// Where tall output `i` lands when the caller asked for `st`: requested
  /// outputs honour it, cache-only nodes use their own cache_storage.
  storage output_storage(std::size_t i, storage st) const {
    return tall_requested[i] ? st : virt(tall_ids[i])->cache_storage();
  }
};

/// The node's GenOp name, or its store kind for a leaf ("mem", "em",
/// "generated"). Static storage duration.
const char* op_label(const node_entry& n);

/// Walk the DAG beneath `targets` (null entries skipped) into a plan.
dag_info collect(const std::vector<matrix_store::ptr>& targets);

/// The plan of one eager sub-pass: pending node `id` of `plan` alone, its
/// materialized children as leaves, with plan_ids pointing into `plan`.
dag_info collect_one(const dag_info& plan, int id);

/// Fusion group of every node under `mode`: eager runs one pass per pending
/// node (its index in `order`), the fused modes one pass for all of them
/// (group 0); -1 for leaves.
std::vector<int> fusion_groups(const dag_info& dag, exec_mode mode);

/// Rows per Pcache chunk for the plan's widest matrix.
std::size_t chunk_rows_for(const dag_info& dag);

/// Bytes of chunk evaluation state one worker holds at most: one buffer of
/// `chunk_rows` rows per pass node that owns chunks. `size_class` charges
/// each buffer at the pool size class it actually occupies.
std::size_t worker_chunk_bytes(const dag_info& dag, std::size_t chunk_rows,
                               bool size_class);

/// The output of one sink and how its per-partition partials merge.
struct sink_desc {
  virtual_store* node = nullptr;
  int id = -1;  ///< the sink's dense id (its children are in the node table)
  std::size_t out_rows = 0;
  std::size_t out_cols = 0;
  /// Elements in a partial accumulator. Usually out_rows*out_cols, but the
  /// full aggregate carries one accumulator per input column until the
  /// final agg_finish so its fold order is chunk-size independent.
  std::size_t acc_elems = 0;
  scalar_type out_type = scalar_type::f64;
  agg_id merge_op = agg_id::sum;
};

sink_desc describe_sink(const dag_info& dag, int id);

}  // namespace flashr::exec
