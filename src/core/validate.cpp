#include "core/validate.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "core/plan.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace validate {

namespace {

using exec::resolve;

[[noreturn]] void dag_fail(const virtual_store* v, const std::string& why) {
  detail::assert_fail("DAG structural invariant", __FILE__, __LINE__,
                      std::string(node_kind_name(v->op().kind)) + " node (" +
                          std::to_string(v->nrow()) + "x" +
                          std::to_string(v->ncol()) + "): " + why);
}

std::size_t arity_of(node_kind k) {
  switch (k) {
    case node_kind::map2:
    case node_kind::s_tmm:
    case node_kind::s_groupby_row:
      return 2;
    case node_kind::cbind2:
      return 0;  // variadic, >= 2 checked separately
    default:
      return 1;
  }
}

class dag_checker {
 public:
  void visit(const matrix_store* s) {
    const matrix_store* r = resolve(s);
    if (r->kind() != store_kind::virt) return;
    const auto* v = static_cast<const virtual_store*>(r);
    if (done_.count(v)) return;
    if (!in_progress_.insert(v).second)
      dag_fail(v, "cycle: node reachable from itself");
    check_node(v);
    for (const auto& c : v->children()) visit(c.get());
    in_progress_.erase(v);
    done_.insert(v);
  }

 private:
  void check_node(const virtual_store* v) {
    const genop& op = v->op();
    const auto& ch = v->children();
    const std::size_t want = arity_of(op.kind);
    if (want == 0) {
      if (ch.size() < 2) dag_fail(v, "cbind2 needs at least two children");
    } else if (ch.size() != want) {
      dag_fail(v, "expected " + std::to_string(want) + " children, got " +
                      std::to_string(ch.size()));
    }
    for (const auto& c : ch)
      if (!c) dag_fail(v, "dangling child (null store)");

    std::vector<const matrix_store*> in;
    in.reserve(ch.size());
    for (const auto& c : ch) {
      const matrix_store* r = resolve(c.get());
      if (r->kind() == store_kind::virt &&
          static_cast<const virtual_store*>(r)->is_sink_node())
        dag_fail(v, "child is an unmaterialized sink (stale virtual node); "
                    "sinks must be materialized before reuse");
      in.push_back(r);
    }

    // Orientation/partition-space consistency: every partition-aligned edge
    // shares the partition dimension (nrow, part_rows).
    const matrix_store* a = in[0];
    for (const matrix_store* c : in) {
      if (c->nrow() != a->nrow() ||
          c->geom().part_rows != a->geom().part_rows)
        dag_fail(v, "children disagree on the partition dimension");
    }
    if (!v->is_sink_node() &&
        (v->nrow() != a->nrow() || v->geom().part_rows != a->geom().part_rows))
      dag_fail(v, "output leaves the children's partition space");

    check_shape(v, in);
  }

  void check_shape(const virtual_store* v,
                   const std::vector<const matrix_store*>& in) {
    const genop& op = v->op();
    const matrix_store* a = in[0];
    switch (op.kind) {
      case node_kind::sapply:
      case node_kind::map_scalar:
      case node_kind::cum_col:
      case node_kind::cum_row:
      case node_kind::cast_type:
        if (v->ncol() != a->ncol())
          dag_fail(v, "elementwise op must preserve ncol");
        break;
      case node_kind::map2:
        if (in[1]->ncol() != a->ncol() && in[1]->ncol() != 1)
          dag_fail(v, "map2 operand ncol must match or broadcast (be 1)");
        if (v->ncol() != a->ncol())
          dag_fail(v, "map2 must preserve the first child's ncol");
        break;
      case node_kind::sweep_rowvec:
        if (op.small.size() != a->ncol())
          dag_fail(v, "sweep vector length must equal child ncol");
        if (v->ncol() != a->ncol())
          dag_fail(v, "sweep must preserve ncol");
        break;
      case node_kind::inner_prod:
        if (op.small.nrow() != a->ncol())
          dag_fail(v, "inner_prod inner dimensions disagree");
        if (v->ncol() != op.small.ncol())
          dag_fail(v, "inner_prod output ncol must match the small operand");
        break;
      case node_kind::agg_row:
        if (v->ncol() != 1) dag_fail(v, "agg_row output must be n-by-1");
        break;
      case node_kind::select_cols:
        if (v->ncol() != op.cols.size())
          dag_fail(v, "select_cols output ncol != number of selected cols");
        for (std::size_t j : op.cols)
          if (j >= a->ncol())
            dag_fail(v, "select_cols index out of range");
        break;
      case node_kind::groupby_col:
        if (op.cols.size() != a->ncol())
          dag_fail(v, "groupby_col needs one label per child column");
        for (std::size_t g : op.cols)
          if (g >= op.num_groups)
            dag_fail(v, "groupby_col label out of range");
        if (v->ncol() != op.num_groups)
          dag_fail(v, "groupby_col output ncol != num_groups");
        break;
      case node_kind::cbind2: {
        std::size_t total = 0;
        for (const matrix_store* c : in) total += c->ncol();
        if (v->ncol() != total)
          dag_fail(v, "cbind2 output ncol != sum of child ncols");
        break;
      }
      case node_kind::s_tmm:
        // t(A) %*% B: the transpose pair must agree on the shared
        // (partition) dimension; checked above for all edges.
        break;
      case node_kind::s_groupby_row:
        if (in[1]->ncol() != 1)
          dag_fail(v, "groupby_row labels must be an n-by-1 vector");
        break;
      case node_kind::s_count_groups:
        if (a->ncol() != 1)
          dag_fail(v, "count_groups labels must be an n-by-1 vector");
        break;
      case node_kind::s_agg_full:
      case node_kind::s_agg_col:
        break;
    }
  }

  std::unordered_set<const virtual_store*> in_progress_;
  std::unordered_set<const virtual_store*> done_;
};

}  // namespace

void check_dag(const std::vector<matrix_store::ptr>& targets) {
  if (!invariants_enabled()) return;
  dag_checker checker;
  for (const auto& t : targets)
    if (t) checker.visit(t.get());
}

void audit_pool(const buffer_pool& pool, std::size_t baseline_count) {
  if (!invariants_enabled()) return;
  const std::size_t now = pool.outstanding_count();
  if (now != baseline_count)
    detail::assert_fail(
        "post-pass pool audit", __FILE__, __LINE__,
        std::to_string(now) + " buffers outstanding after the pass, expected " +
            std::to_string(baseline_count) +
            " — a pool buffer did not come home");
}

}  // namespace validate

void pool_debug::seed_double_return(buffer_pool& pool) {
  pool_buffer buf = pool.get(1024);
  char* data = buf.data();
  const std::size_t size = buf.size();
  const int cls = buf.class_;
  buf.release();                      // legitimate return
  pool.put(data, size, cls, true);    // second return of the same buffer
}

void pool_debug::seed_refcount_underflow(buffer_pool& pool) {
  alignas(64) static char foreign[512];
  pool.put(foreign, sizeof(foreign), 0, true);
}

void pool_debug::seed_use_after_return(buffer_pool& pool) {
  pool_buffer buf = pool.get(256);
  char* stale = buf.data();
  buf.release();   // buffer poisoned on its way home
  stale[0] = 42;   // write through the stale pointer
  pool_buffer again = pool.get(256);  // LIFO reuse trips the poison check
}

void pool_debug::seed_misaligned_buffer(buffer_pool& pool) {
  // Plant a pointer that is inside a real allocation but off the 4 KiB
  // grid, as a corrupted free list would. The next get() of the class pops
  // it and must abort on the alignment contract check.
  pool_buffer buf = pool.get(512);
  char* skewed = buf.data() + 8;
  {
    mutex_lock lock(pool.pool_mtx_);
    pool.free_lists_[0].push_back(skewed);
  }
  pool_buffer again = pool.get(512);  // LIFO pop returns the skewed pointer
  (void)again;
}

}  // namespace flashr
