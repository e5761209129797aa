#include "obs/explain_plan.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/config.h"

namespace flashr::obs {

namespace {

const char* store_kind_label(const exec::node_entry& n) {
  return n.kind == store_kind::virt ? "virtual" : exec::op_label(n);
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

/// The element functions that are meaningful for this GenOp kind (the rest
/// of the genop struct holds defaults that would only add noise).
void append_op_fields(std::string& out, const genop& op) {
  switch (op.kind) {
    case node_kind::sapply:
      append(out, ", \"fn\": \"%s\"", uop_name(op.u));
      break;
    case node_kind::map2:
    case node_kind::map_scalar:
    case node_kind::sweep_rowvec:
    case node_kind::cum_col:
    case node_kind::cum_row:
      append(out, ", \"fn\": \"%s\"", bop_name(op.b));
      break;
    case node_kind::inner_prod:
    case node_kind::s_tmm:
      append(out, ", \"f1\": \"%s\", \"f2\": \"%s\"", bop_name(op.b),
             agg_name(op.a));
      break;
    case node_kind::agg_row:
    case node_kind::s_agg_full:
    case node_kind::s_agg_col:
      append(out, ", \"fn\": \"%s\"", agg_name(op.a));
      break;
    case node_kind::s_groupby_row:
    case node_kind::groupby_col:
      append(out, ", \"fn\": \"%s\", \"groups\": %zu", agg_name(op.a),
             op.num_groups);
      break;
    case node_kind::s_count_groups:
      append(out, ", \"groups\": %zu", op.num_groups);
      break;
    case node_kind::cast_type:
      append(out, ", \"to\": \"%s\"", type_name(op.to_type));
      break;
    case node_kind::select_cols:
      append(out, ", \"ncols\": %zu", op.cols.size());
      break;
    case node_kind::cbind2:
      break;
  }
}

}  // namespace

plan_summary summarize(const exec::dag_info& g) {
  plan_summary p;
  p.targets = g.targets;
  p.mode = exec_mode_name(conf().mode);
  p.sequential_dispatch = g.has_cum;
  if (conf().mode == exec_mode::cache_fuse && g.space_set)
    p.chunk_rows = exec::chunk_rows_for(g);
  const std::vector<int> group = exec::fusion_groups(g, conf().mode);
  p.nodes.resize(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const exec::node_entry& e = g.nodes[i];
    plan_node& n = p.nodes[i];
    n.store = e.store;
    n.id = static_cast<int>(i);
    n.nrow = e.store->nrow();
    n.ncol = e.ncol;
    n.est_bytes = e.est_bytes();
    n.group = group[i];
    n.children = e.children;
    n.op = exec::op_label(e);
    n.leaf = e.kind != store_kind::virt;
    n.sink = !n.leaf && e.virt()->is_sink_node();
    // Ids ascend with the topological order, so groups fill in order.
    if (n.group < 0) continue;
    p.groups.resize(std::max(p.groups.size(), std::size_t(n.group) + 1));
    p.groups[static_cast<std::size_t>(n.group)].push_back(n.id);
  }
  return p;
}

plan_summary summarize(const std::vector<matrix_store::ptr>& targets) {
  return summarize(exec::collect(targets));
}

std::string explain_json(const exec::dag_info& g) {
  const plan_summary p = summarize(g);
  std::string out = "{\n  \"targets\": [";
  for (std::size_t i = 0; i < p.targets.size(); ++i)
    append(out, "%s%d", i == 0 ? "" : ", ", p.targets[i]);
  append(out,
         "],\n  \"exec\": {\"mode\": \"%s\", \"chunk_rows\": %zu, "
         "\"sequential_dispatch\": %s, \"groups\": [",
         p.mode, p.chunk_rows, p.sequential_dispatch ? "true" : "false");
  // Eager runs one pass per pending node (topological order); the fused
  // modes evaluate the whole pending DAG in a single pass.
  for (std::size_t gi = 0; gi < p.groups.size(); ++gi) {
    out += gi == 0 ? "[" : ", [";
    for (std::size_t i = 0; i < p.groups[gi].size(); ++i)
      append(out, "%s%d", i == 0 ? "" : ", ", p.groups[gi][i]);
    out += "]";
  }
  out += "]}";
  out += ",\n  \"nodes\": [\n";
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const matrix_store* s = g.nodes[i].store;
    append(out, "    {\"id\": %zu, \"store\": \"%s\"", i,
           store_kind_label(g.nodes[i]));
    if (s->kind() == store_kind::virt) {
      auto* v = static_cast<const virtual_store*>(s);
      append(out, ", \"op\": \"%s\"", node_kind_name(v->op().kind));
      append_op_fields(out, v->op());
      if (v->is_sink_node()) out += ", \"sink\": true";
      if (v->cache_flag())
        append(out, ", \"cache\": \"%s\"",
               v->cache_storage() == storage::ext_mem ? "ext_mem" : "in_mem");
    }
    append(out, ", \"nrow\": %zu, \"ncol\": %zu, \"type\": \"%s\", "
           "\"part_rows\": %zu, \"children\": [",
           s->nrow(), s->ncol(), type_name(s->type()), s->geom().part_rows);
    const std::vector<int>& ch = g.nodes[i].children;
    for (std::size_t c = 0; c < ch.size(); ++c)
      append(out, "%s%d", c == 0 ? "" : ", ", ch[c]);
    append(out, "]}%s\n", i + 1 < g.nodes.size() ? "," : "");
  }
  out += "  ]\n}";
  return out;
}

std::string explain_json(const std::vector<matrix_store::ptr>& targets) {
  return explain_json(exec::collect(targets));
}

std::string explain_dot(const std::vector<matrix_store::ptr>& targets) {
  const exec::dag_info g = exec::collect(targets);
  std::string out = "digraph flashr_dag {\n  rankdir=BT;\n";
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const matrix_store* s = g.nodes[i].store;
    append(out, "  n%zu [label=\"%zu: %s\\n%zux%zu %s\"%s];\n", i, i,
           exec::op_label(g.nodes[i]),
           s->nrow(), s->ncol(), type_name(s->type()),
           s->kind() == store_kind::virt ? "" : ", shape=box");
    for (int c : g.nodes[i].children) append(out, "  n%d -> n%zu;\n", c, i);
  }
  out += "}\n";
  return out;
}

}  // namespace flashr::obs
