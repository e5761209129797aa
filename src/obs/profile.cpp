#include "obs/profile.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <utility>

#include "common/thread_safety.h"
#include "common/timer.h"
#include "core/exec.h"
#include "obs/explain_plan.h"

namespace flashr::obs {

namespace detail {
std::atomic<bool> g_profile_on{false};
}  // namespace detail

void set_profile_enabled(bool on) {
  detail::g_profile_on.store(on, std::memory_order_relaxed);
}

namespace {

struct profile_state {
  mutex prof_mtx LOCK_RANK(profile);
  std::uint64_t pass_seq GUARDED_BY(prof_mtx) = 0;
  std::deque<pass_profile> history GUARDED_BY(prof_mtx);
};

profile_state& state() {
  static profile_state* s = new profile_state();  // leaked: outlives static
  return *s;                                      // destructors
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

void append_node(std::string& out, const node_profile& n) {
  append(out, "{\"id\": %d, \"op\": \"%s\"", n.id, n.op);
  if (n.sink) out += ", \"sink\": true";
  if (n.leaf) out += ", \"leaf\": true";
  append(out,
         ", \"group\": %d, \"est_bytes\": %" PRIu64 ", \"kernel_ns\": %" PRIu64
         ", \"copy_ns\": %" PRIu64 ", \"io_wait_ns\": %" PRIu64
         ", \"partitions\": %" PRIu64 ", \"rows\": %" PRIu64
         ", \"bytes\": %" PRIu64 ", \"chunks\": %" PRIu64,
         n.group, n.est_bytes, n.kernel_ns, n.copy_ns, n.io_wait_ns,
         n.partitions, n.rows, n.bytes, n.chunks);
  // Sampler join fields only when the pass was sampled, so consumers of
  // the pre-sampler shape see unchanged nodes.
  if (n.samples > 0 || n.sampled_ns > 0)
    append(out, ", \"samples\": %" PRIu64 ", \"sampled_ns\": %" PRIu64,
           n.samples, n.sampled_ns);
  out += '}';
}

}  // namespace

std::string pass_profile::to_json() const {
  std::string out;
  append(out,
         "{\"seq\": %" PRIu64 ", \"mode\": \"%s\", \"chunk_rows\": %zu, "
         "\"threads\": %d, \"wall_ns\": %" PRIu64 ", \"io_wait_ns\": %" PRIu64,
         seq, mode, chunk_rows, threads, wall_ns, io_wait_ns);
  // Sampler join fields only when the pass was sampled (see append_node).
  if (sample_period_ns > 0)
    append(out,
           ", \"sample_period_ns\": %" PRIu64 ", \"samples_cpu\": %" PRIu64
           ", \"samples_io_wait\": %" PRIu64 ", \"samples_lock_wait\": %" PRIu64,
           sample_period_ns, samples_cpu, samples_io_wait, samples_lock_wait);
  out += ", \"degrade\": [";
  for (std::size_t i = 0; i < degrade.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + degrade[i] + "\"";
  }
  out += "], \"nodes\": [";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    append_node(out, nodes[i]);
  }
  out += "]}";
  return out;
}

std::uint64_t profile_record(pass_profile&& p) {
  // Read config before locking: a first-ever conf() call runs lazy init,
  // which starts and stops engine threads and must not run under prof_mtx.
  std::size_t cap = conf().obs_profile_history;
  if (cap < 1) cap = 1;
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  p.seq = ++s.pass_seq;
  const std::uint64_t seq = p.seq;
  s.history.push_back(std::move(p));
  while (s.history.size() > cap) s.history.pop_front();
  return seq;
}

std::uint64_t profile_pass_seq() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  return s.pass_seq;
}

std::vector<pass_profile> profile_history() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  return {s.history.begin(), s.history.end()};
}

void profile_clear() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  s.history.clear();
  s.pass_seq = 0;
}

namespace {

/// Shared implementation of explain_analyze_{json,dot}: profile one
/// materialization and build both renderings.
void run_analysis(const std::vector<matrix_store::ptr>& targets, storage st,
                  std::string& json_out, std::string& dot_out) {
  const bool was_on = profile_on();
  set_profile_enabled(true);
  const std::uint64_t seq0 = profile_pass_seq();
  // The plan must be captured before materialization collapses the DAG.
  const exec::dag_info dag = exec::collect(targets);
  const plan_summary plan = summarize(dag);
  const std::string plan_json = explain_json(dag);
  const std::uint64_t t0 = now_ns();
  exec::materialize(targets, st);
  const std::uint64_t wall_ns = now_ns() - t0;
  set_profile_enabled(was_on);

  std::vector<pass_profile> passes;
  for (pass_profile& p : profile_history())
    if (p.seq > seq0) passes.push_back(std::move(p));

  // Per-node totals across passes, indexed by plan id.
  std::vector<node_profile> totals(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const plan_node& n = plan.nodes[i];
    totals[i].id = n.id;
    totals[i].op = n.op;
    totals[i].sink = n.sink;
    totals[i].leaf = n.leaf;
    totals[i].group = n.group;
    totals[i].est_bytes = n.est_bytes;
  }
  for (const pass_profile& p : passes) {
    for (const node_profile& n : p.nodes) {
      if (n.id < 0 || static_cast<std::size_t>(n.id) >= totals.size())
        continue;
      node_profile& t = totals[static_cast<std::size_t>(n.id)];
      t.kernel_ns += n.kernel_ns;
      t.copy_ns += n.copy_ns;
      t.io_wait_ns += n.io_wait_ns;
      t.partitions += n.partitions;
      t.rows += n.rows;
      t.bytes += n.bytes;
      t.chunks += n.chunks;
      t.samples += n.samples;
      t.sampled_ns += n.sampled_ns;
    }
  }

  json_out = "{\n\"plan\": ";
  json_out += plan_json;
  append(json_out, ",\n\"wall_ns\": %" PRIu64 ",\n\"passes\": [", wall_ns);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) json_out += ",\n ";
    json_out += passes[i].to_json();
  }
  json_out += "],\n\"totals\": [\n";
  for (std::size_t i = 0; i < totals.size(); ++i) {
    json_out += "  ";
    append_node(json_out, totals[i]);
    if (i + 1 < totals.size()) json_out += ",";
    json_out += "\n";
  }
  json_out += "]\n}";

  // Annotated dot: the plan shape with measured totals in the labels.
  dot_out = "digraph flashr_explain_analyze {\n  rankdir=BT;\n";
  for (const plan_node& n : plan.nodes) {
    const node_profile& t = totals[static_cast<std::size_t>(n.id)];
    append(dot_out,
           "  n%d [label=\"%d: %s\\n%zux%zu est %zu B\\nkernel %.3f ms  copy "
           "%.3f ms  io %.3f ms\\nparts %" PRIu64 " chunks %" PRIu64
           " bytes %" PRIu64 "\"%s];\n",
           n.id, n.id, n.op, n.nrow, n.ncol, n.est_bytes,
           static_cast<double>(t.kernel_ns) / 1e6,
           static_cast<double>(t.copy_ns) / 1e6,
           static_cast<double>(t.io_wait_ns) / 1e6, t.partitions, t.chunks,
           t.bytes, n.leaf ? ", shape=box" : "");
    for (int c : n.children) append(dot_out, "  n%d -> n%d;\n", c, n.id);
  }
  dot_out += "}\n";
}

}  // namespace

std::string explain_analyze_json(const std::vector<matrix_store::ptr>& targets,
                                 storage st) {
  std::string json;
  std::string dot;
  run_analysis(targets, st, json, dot);
  return json;
}

std::string explain_analyze_dot(const std::vector<matrix_store::ptr>& targets,
                                storage st) {
  std::string json;
  std::string dot;
  run_analysis(targets, st, json, dot);
  return dot;
}

}  // namespace flashr::obs
