#include "core/plan.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "core/exec.h"
#include "matrix/em_store.h"
#include "mem/buffer_pool.h"

namespace flashr::exec {

const matrix_store* resolve(const matrix_store* s) {
  if (s->kind() == store_kind::virt) {
    auto* v = static_cast<const virtual_store*>(s);
    // Results are physical; one level of indirection suffices.
    if (auto r = v->result()) return resolve(r.get());
  }
  return s;
}

namespace {

void note_space(dag_info& dag, const matrix_store* s) {
  if (!dag.space_set) {
    dag.space = part_geom{s->nrow(), s->ncol(), s->geom().part_rows};
    dag.space_set = true;
  } else {
    FLASHR_CHECK_SHAPE(
        dag.space.nrow == s->nrow() &&
            dag.space.part_rows == s->geom().part_rows,
        "matrices in one DAG must share the partition dimension");
  }
  dag.max_ncol = std::max(dag.max_ncol, s->ncol());
  dag.max_elem = std::max(dag.max_elem, s->elem_size());
}

/// Count one edge into node `id`. A leaf joins the pass on its first edge,
/// so a non-pending target that no pending node reads stays out of it.
void add_edge(dag_info& dag, int id) {
  node_entry& n = dag.nodes[static_cast<std::size_t>(id)];
  if (n.kind == store_kind::virt) {
    FLASHR_CHECK(!n.virt()->is_sink_node(),
                 "internal: sink used as DAG input (materialize it first)");
  } else if (n.consumers == 0) {
    if (!n.owns_chunk()) dag.leaf_ids.push_back(id);
    if (n.kind == store_kind::ext)
      dag.em_leaves.push_back(static_cast<const em_readable*>(n.store));
    note_space(dag, n.store);
  }
  ++n.consumers;
}

/// The id of `s`, numbering its children first on first sight.
int visit(dag_info& dag, const matrix_store* s) {
  const matrix_store* r = resolve(s);
  if (auto it = dag.ids.find(r); it != dag.ids.end()) return it->second;
  std::vector<int> children;
  if (r->kind() == store_kind::virt) {
    for (const auto& c : static_cast<const virtual_store*>(r)->children()) {
      const int cid = visit(dag, c.get());
      add_edge(dag, cid);
      children.push_back(cid);
    }
  }
  const int id = static_cast<int>(dag.nodes.size());
  dag.ids.emplace(r, id);
  node_entry e;
  e.store = r;
  e.kind = r->kind();
  e.type = r->type();
  e.ncol = r->ncol();
  e.elem_size = r->elem_size();
  e.children = std::move(children);
  dag.nodes.push_back(std::move(e));
  if (r->kind() == store_kind::virt) {
    auto* v = static_cast<const virtual_store*>(r);
    if (!v->is_sink_node()) note_space(dag, v);
    if (v->op().kind == node_kind::cum_col) dag.has_cum = true;
    dag.order.push_back(id);
  }
  return id;
}

/// Point sub-plan node `s` and what it still reads at plan node `p`.
void map_plan_ids(dag_info& sub, const dag_info& plan, int s, int p) {
  sub.plan_ids[static_cast<std::size_t>(s)] = p;
  const auto& sc = sub.nodes[static_cast<std::size_t>(s)].children;
  const auto& pc = plan.nodes[static_cast<std::size_t>(p)].children;
  // A plan node materialized since is a childless leaf of the sub-plan.
  if (sc.empty()) return;
  FLASHR_ASSERT(sc.size() == pc.size(), "sub-plan diverges from the plan");
  for (std::size_t i = 0; i < sc.size(); ++i)
    map_plan_ids(sub, plan, sc[i], pc[i]);
}

}  // namespace

const char* op_label(const node_entry& n) {
  switch (n.kind) {
    case store_kind::virt: return node_kind_name(n.virt()->op().kind);
    case store_kind::mem: return "mem";
    case store_kind::ext: return "em";
    case store_kind::generated: return "generated";
  }
  return "?";
}

dag_info collect(const std::vector<matrix_store::ptr>& targets) {
  dag_info dag;
  for (const auto& t : targets)
    if (t) dag.targets.push_back(visit(dag, t.get()));
  // Classify outputs: requested targets plus cache-flagged intermediates.
  std::vector<char> is_output(dag.nodes.size(), 0);
  auto add_output = [&](int id, bool requested) {
    if (is_output[static_cast<std::size_t>(id)]++) return;
    if (dag.virt(id)->is_sink_node()) {
      dag.sink_ids.push_back(id);
    } else {
      dag.tall_ids.push_back(id);
      dag.tall_requested.push_back(requested);
      // The output writer consumes the node's chunks.
      ++dag.nodes[static_cast<std::size_t>(id)].consumers;
    }
  };
  for (const int id : dag.targets) {
    if (dag.nodes[static_cast<std::size_t>(id)].kind != store_kind::virt)
      continue;
    add_output(id, true);
  }
  for (const int id : dag.order) {
    const virtual_store* v = dag.virt(id);
    if (v->cache_flag() && !v->has_result()) add_output(id, false);
  }
  if (!dag.space_set && !dag.order.empty())
    throw_error("cannot infer the partition space of an empty DAG");
  return dag;
}

dag_info collect_one(const dag_info& plan, int id) {
  dag_info sub = collect({plan.virt(id)->shared_from_this()});
  sub.plan_ids.assign(sub.nodes.size(), -1);
  map_plan_ids(sub, plan, sub.targets.at(0), id);
  return sub;
}

std::vector<int> fusion_groups(const dag_info& dag, exec_mode mode) {
  std::vector<int> group(dag.nodes.size(), -1);
  for (std::size_t i = 0; i < dag.order.size(); ++i)
    group[static_cast<std::size_t>(dag.order[i])] =
        mode == exec_mode::eager ? static_cast<int>(i) : 0;
  return group;
}

std::size_t pcache_rows(std::size_t max_ncol, std::size_t part_rows,
                        std::size_t elem_bytes) {
  const std::size_t bytes_per_row =
      std::max<std::size_t>(max_ncol, 1) * std::max<std::size_t>(elem_bytes, 1);
  std::size_t rows = conf().pcache_bytes / bytes_per_row;
  rows = std::max<std::size_t>(rows, 16);
  rows = std::bit_floor(rows);
  return std::min(rows, part_rows);
}

std::size_t chunk_rows_for(const dag_info& dag) {
  return pcache_rows(dag.max_ncol, dag.space.part_rows, dag.max_elem);
}

std::size_t worker_chunk_bytes(const dag_info& dag, std::size_t chunk_rows,
                               bool size_class) {
  const std::size_t rows = chunk_rows == 0 ? dag.space.part_rows : chunk_rows;
  std::size_t bytes = 0;
  for (const node_entry& n : dag.nodes) {
    // A leaf without consumers is a non-pending target, read by no pass.
    if (!n.owns_chunk() || (n.kind != store_kind::virt && n.consumers == 0))
      continue;
    const std::size_t b = rows * n.ncol * n.elem_size;
    bytes += size_class ? buffer_pool::class_size(b) : b;
  }
  return bytes;
}

sink_desc describe_sink(const dag_info& dag, int id) {
  sink_desc d;
  d.node = dag.virt(id);
  d.id = id;
  const genop& op = d.node->op();
  const auto& ch = dag.nodes[static_cast<std::size_t>(d.id)].children;
  const node_entry& a = dag.nodes[static_cast<std::size_t>(ch.at(0))];
  d.out_type = a.type;
  d.merge_op = op.a;
  switch (op.kind) {
    case node_kind::s_agg_full:
      d.out_rows = 1;
      d.out_cols = 1;
      break;
    case node_kind::s_agg_col:
      d.out_rows = 1;
      d.out_cols = a.ncol;
      break;
    case node_kind::s_tmm:
      d.out_rows = a.ncol;
      d.out_cols = dag.nodes[static_cast<std::size_t>(ch.at(1))].ncol;
      break;
    case node_kind::s_groupby_row:
      d.out_rows = op.num_groups;
      d.out_cols = a.ncol;
      break;
    case node_kind::s_count_groups:
      d.out_rows = op.num_groups;
      d.out_cols = 1;
      d.out_type = scalar_type::i64;
      d.merge_op = agg_id::sum;
      break;
    default:
      FLASHR_ASSERT(false, "not a sink");
  }
  d.acc_elems = d.out_rows * d.out_cols;
  if (op.kind == node_kind::s_agg_full) d.acc_elems = a.ncol;
  return d;
}

}  // namespace flashr::exec
