#include "core/exec.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/error.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "core/governor.h"
#include "core/kernels.h"
#include "core/plan.h"
#include "core/prefetch_pipeline.h"
#include "core/validate.h"
#include "core/virtual_store.h"
#include "io/async_io.h"
#include "matrix/em_store.h"
#include "matrix/generated_store.h"
#include "matrix/mem_store.h"
#include "mem/numa.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace flashr::exec {

namespace {

// ---------------------------------------------------------------------------
// Cumulative-op carry chains (§3.3, operation class j)
// ---------------------------------------------------------------------------

/// Internal unwind token: a peer worker hit an unrecoverable error and the
/// pass is cancelling. Thrown only inside a pass, caught at the worker's
/// top level, never escapes pass_runner.
struct pass_cancelled {};

/// One chain per cum_col node: the per-column running value at the end of
/// every partition, published in partition order. Workers block until the
/// carry of partition p-1 is available; sequential dynamic dispatch
/// guarantees some worker owns it, so the wait is bounded — unless the
/// owning worker died with the pass's first error, in which case cancel()
/// wakes every waiter and wait_for unwinds with pass_cancelled.
struct cum_chain {
  mutex mtx LOCK_RANK(cum_chain);
  /// Per partition, cols * elem_size bytes each.
  std::vector<std::vector<char>> carries GUARDED_BY(mtx);
  std::vector<char> ready GUARDED_BY(mtx);
  bool cancelled GUARDED_BY(mtx) = false;
  cond_var cv;

  void init(std::size_t num_parts, std::size_t bytes) {
    mutex_lock lock(mtx);
    carries.assign(num_parts, std::vector<char>(bytes));
    ready.assign(num_parts, 0);
  }
  void publish(std::size_t p, const char* data, std::size_t bytes) {
    {
      mutex_lock lock(mtx);
      std::memcpy(carries[p].data(), data, bytes);
      ready[p] = 1;
    }
    cv.notify_all();
  }
  void wait_for(std::size_t p, char* out, std::size_t bytes) {
    mutex_lock lock(mtx);
    while (ready[p] == 0 && !cancelled) cv.wait(lock);
    if (ready[p] == 0) throw pass_cancelled{};
    std::memcpy(out, carries[p].data(), bytes);
  }
  void cancel() {
    {
      mutex_lock lock(mtx);
      cancelled = true;
    }
    cv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// The fused pass
// ---------------------------------------------------------------------------

/// Guards the published last_pass_stats() snapshot.
mutex g_stats_mutex LOCK_RANK(pass_stats);

/// Ids for error payloads.
std::atomic<std::uint64_t> g_pass_id{0};

/// Per-chunk evaluation state for one node. Entries live in a flat array
/// indexed by the node's dense id; `gen` marks which chunk the entry belongs
/// to, so the array never needs clearing between chunks.
struct chunk_buf {
  kern::view v;
  pool_buffer owned;
  int remaining = 0;
  std::uint64_t gen = 0;
};

class pass_runner {
 public:
  /// `plan` is the call's top-level plan: `dag` itself for a fused pass,
  /// the plan an eager sub-pass was cut from otherwise.
  pass_runner(dag_info& dag, const dag_info& plan, pass_config cfg,
              pass_ctl& ctl)
      : dag_(dag), cfg_(cfg), ctl_(ctl) {
    allocate_outputs();
    init_cum_chains();
    prof_init(plan);
    // Output stores (mem_store partitions) legitimately keep pool buffers
    // beyond the pass; everything acquired after this point must come home.
    pool_baseline_count_ = buffer_pool::global().outstanding_count();
  }

  void run();

 private:
  void allocate_outputs();
  void init_cum_chains();
  void merge_sinks();
  std::vector<char> make_sink_identity(const sink_desc& s) const;

  struct thread_ctx {
    int thread_idx = 0;
    std::vector<chunk_buf> chunk;   // indexed by dag node id
    std::uint64_t gen = 0;          // current chunk generation
    int live_owned = 0;             // owned buffers not yet recycled
    /// Chunk buffers this worker released, most recent last (§3.5.1): the
    /// next same-class request reuses the cache-hot one without touching
    /// the pool. Returned to the pool when the worker exits.
    std::vector<pool_buffer> spare;
    /// Bytes of the chunk buffers this worker holds, live and spare;
    /// bounded by pass_runner::chunk_cap_.
    std::size_t held_bytes = 0;
    /// Partition-start views of the mem/ext leaves (by node id), resolved
    /// once per claimed partition.
    std::vector<kern::view> part_view;
    /// Per-sink partial accumulators.
    std::vector<std::vector<char>> sink_acc;
    /// Per-node profiling partials, plain u64 (slot * kProfFields + field);
    /// merged lock-free into prof_acc_ when the worker exits. Empty unless
    /// profiling is on.
    std::vector<std::uint64_t> prof;
    /// Chunk evaluations this worker satisfied by aliasing; folded into the
    /// call's stats when the worker exits.
    std::size_t zero_copy = 0;
    /// Per-cum-node running carry for the current partition, by node id.
    std::vector<std::vector<char>> cum_carry;
    bool cum_has_carry = false;
    /// Current EM read buffers: (leaf, part) -> buffer.
    std::unordered_map<const em_readable*, pool_buffer> em_bufs;
    /// EM read buffers promoted to refcounted leases for the current
    /// partition: the zero-copy write path shares one read buffer between
    /// chunk aliases and in-flight partition writes. Checked by leaf_view
    /// before em_bufs.
    std::unordered_map<const em_readable*, pool_lease> em_leases;
    /// Staging buffers for EM outputs of the current partition, parallel to
    /// dag_.tall_ids.
    std::vector<pool_buffer> out_stage;
    /// Current chunk geometry.
    std::size_t part = 0;
    std::size_t part_row0 = 0;     // global row of partition start
    std::size_t part_rows = 0;     // rows in this partition
    std::size_t chunk_row0 = 0;    // chunk start, relative to partition
    std::size_t chunk_rows = 0;
  };

  void process_partition(thread_ctx& ctx);
  void process_chunk(thread_ctx& ctx);
  chunk_buf& ensure(thread_ctx& ctx, int id);
  void unref(thread_ctx& ctx, int id);
  /// Partition-start view of mem/ext leaf `id` in the claimed partition.
  kern::view leaf_view(thread_ctx& ctx, int id);
  /// The EM leaf whose prefetched read buffer IS output `v`'s partition
  /// value — v is an identity cast over an ext leaf of identical geometry,
  /// so the bytes read are exactly the bytes to write — or null when the
  /// output needs a staging copy.
  const em_readable* zero_copy_source(int id) const;
  void eval_virtual(thread_ctx& ctx, int id, chunk_buf& out);
  /// A chunk buffer of `bytes`: the worker's most recent spare of the same
  /// size class, else a pool buffer (evicting the oldest spares first so the
  /// worker stays within chunk_cap_).
  pool_buffer take_chunk_buffer(thread_ctx& ctx, std::size_t bytes);
  /// Hand a chunk buffer whose last consumer finished back to the worker's
  /// spares (to the pool under the invariant validator).
  void recycle_chunk_buffer(thread_ctx& ctx, pool_buffer& b);

  /// Worker dispatch loop (body of the pass; runs on every pool thread):
  /// drain the home pipeline's completed partitions, then steal from other
  /// nodes' pipelines.
  void pipeline_worker(thread_ctx& ctx);
  void submit_sink_partials(thread_ctx& ctx);
  /// Build the prefetch pipelines (one, or one per NUMA node) and start
  /// their read-ahead.
  void build_pipelines();
  /// Settle every pipeline and destroy them, folding their counters into
  /// the pass statistics; after this the window buffers are back in the
  /// pool. Safe to call on both the success and the cancellation path.
  void teardown_pipelines() noexcept;

  // --- Per-node profiling (obs/profile.h) ---------------------------------
  /// Field layout of one profiling slot's accumulators.
  enum prof_field { pf_kernel = 0, pf_copy, pf_io, pf_parts, pf_rows,
                    pf_bytes, pf_chunks, kProfFields };
  /// Arm one profiling slot per node, named by the node's id in `plan`.
  void prof_init(const dag_info& plan);
  /// Plan id of node `id` for sampler attribution; -1 (no node) when
  /// profiling is off.
  int prof_id(int id) const {
    return prof_ ? prof_nodes_[static_cast<std::size_t>(id)].id : -1;
  }
  /// Per-pass wrap-up: fold prof_acc_ into a pass_profile and push it into
  /// the history ring. Success path only.
  void record_profile();
  void prof_add(thread_ctx& ctx, int slot, prof_field f, std::uint64_t v) {
    ctx.prof[static_cast<std::size_t>(slot) * kProfFields + f] += v;
  }

  // --- Cooperative cancellation -------------------------------------------
  /// First unrecoverable error wins: record it, raise the cancel flag, and
  /// wake any workers parked on a cumulative carry. Remaining workers skip
  /// their partitions and unwind; run() rethrows the recorded error after
  /// pending writes drain and every pool buffer is back.
  void fail(std::exception_ptr e) noexcept;
  bool cancelled() const { return cancel_.load(std::memory_order_acquire); }

  dag_info& dag_;
  pass_config cfg_;
  /// The enclosing materialize() call: its limits, and the stats record
  /// this pass adds into once its workers have joined.
  pass_ctl& ctl_;
  std::atomic<bool> cancel_{false};
  mutex error_mutex_ LOCK_RANK(pass_error);
  std::exception_ptr pass_error_ GUARDED_BY(error_mutex_);
  /// Output stores, parallel to dag_.tall_ids.
  std::vector<matrix_store::ptr> out_stores_;
  /// Per tall output: the EM leaf whose read buffer is written verbatim as
  /// each partition of an EM output (zero-copy), or null for the staged
  /// path (and for in-memory outputs).
  std::vector<const em_readable*> zc_out_;
  /// Whether workers keep released chunk buffers as spares. Off under the
  /// invariant validator, so every return goes through the pool's
  /// poisoning and use-after-return checks.
  bool recycle_ = false;
  /// The most chunk-buffer bytes one worker may hold: one buffer per node
  /// that owns chunks, at its pool size class — the per-worker chunk term
  /// of estimate_footprint().
  std::size_t chunk_cap_ = 0;
  std::vector<sink_desc> sinks_;
  /// One chain per cum node, keyed by node id; populated before the pass,
  /// then read-only (each chain carries its own mutex).
  std::map<int, cum_chain> cum_chains_;
  mutex acc_mutex_ LOCK_RANK(pass_acc);
  /// Sink partials are produced per PARTITION and merged in ascending
  /// partition order: neither which worker claimed a partition, the claim
  /// order, nor the prefetch depth can change the reduction's floating-
  /// point association — so a degraded run is bit-identical to the
  /// undegraded one (DESIGN.md §11.2). Out-of-order completions park in
  /// pending_sink_parts_ (bounded by the claim window) until the frontier
  /// reaches them.
  std::vector<std::vector<char>> sink_total_ GUARDED_BY(acc_mutex_);
  bool sink_total_init_ GUARDED_BY(acc_mutex_) = false;
  std::size_t next_merge_part_ GUARDED_BY(acc_mutex_) = 0;
  std::map<std::size_t, std::vector<std::vector<char>>> pending_sink_parts_
      GUARDED_BY(acc_mutex_);
  /// Pool buffers outstanding after output allocation; the post-pass audit
  /// (validate::audit_pool) asserts the pass returned to this baseline.
  std::size_t pool_baseline_count_ = 0;
  /// Profiling state, armed at construction when obs::profile_on().
  /// prof_nodes_ holds each node's identity (plan id, label, group,
  /// estimate) and is read-only during the pass; prof_acc_ is the lock-free
  /// merge target workers fetch_add into as they finish.
  bool prof_ = false;
  std::vector<obs::node_profile> prof_nodes_;
  std::vector<std::atomic<std::uint64_t>> prof_acc_;
  std::uint64_t prof_t0_ = 0;
  /// Sampling-profiler pass token (obs/sampler.h); 0 when the sampler was
  /// off at pass start. Workers tag their samples with it so
  /// record_profile() can join exactly this pass's samples.
  std::uint32_t samp_pass_ = 0;
  /// Partition sources feeding the pipelines. Declared BEFORE pipelines_ so
  /// the pipelines (whose refill lambdas capture them) are destroyed first.
  std::optional<part_scheduler> part_sched_;
  std::optional<numa_scheduler> numa_sched_;
  /// Prefetch pipelines: one shared, or one per simulated NUMA node.
  /// Built before workers start, read-only during the pass (each pipeline
  /// is internally synchronized), destroyed by teardown_pipelines().
  std::vector<std::unique_ptr<prefetch_pipeline>> pipelines_;
};

/// Snapshot published by the last materialize() to finish; read under
/// g_stats_mutex so a monitoring thread (or an obs probe) can read it
/// concurrently with a running pass.
pass_stats g_last_stats GUARDED_BY(g_stats_mutex);

/// Adds the movement of the process-wide I/O counters over its lifetime
/// into a call's stats. The governor runs one pass at a time, so a bracket
/// from admission through the pass's final drain_writes() sees that pass's
/// I/O alone.
class io_bracket {
 public:
  explicit io_bracket(pass_stats& s) : s_(s), aio_(async_io::global()) {
    aio_.reset_throttle_hwm();
    th0_ = aio_.throttle_stats();
  }
  ~io_bracket() {
    const io_backend::write_throttle_stats th1 = aio_.throttle_stats();
    s_.read_bytes += ios_.read_bytes.load(std::memory_order_relaxed) - rb0_;
    s_.write_bytes += ios_.write_bytes.load(std::memory_order_relaxed) - wb0_;
    s_.write_throttle_stalls += th1.stalls - th0_.stalls;
    s_.write_throttle_ns += th1.stall_ns - th0_.stall_ns;
    s_.write_inflight_hwm = std::max(s_.write_inflight_hwm, th1.hwm_bytes);
  }
  io_bracket(const io_bracket&) = delete;
  io_bracket& operator=(const io_bracket&) = delete;

 private:
  pass_stats& s_;
  io_backend& aio_;
  io_stats& ios_ = io_stats::global();
  const std::uint64_t rb0_ = ios_.read_bytes.load(std::memory_order_relaxed);
  const std::uint64_t wb0_ = ios_.write_bytes.load(std::memory_order_relaxed);
  io_backend::write_throttle_stats th0_;
};

/// Per-GenOp-kind kernel-time histograms, resolved once so the hot path
/// costs an array index instead of a registry lookup.
obs::histogram& kernel_hist(node_kind k) {
  static constexpr int kKinds =
      static_cast<int>(node_kind::s_count_groups) + 1;
  static obs::histogram* const* hists = [] {
    static obs::histogram* a[kKinds];
    for (int i = 0; i < kKinds; ++i)
      a[i] = &obs::metrics_registry::global().get_histogram(
          std::string("kernel.") +
          node_kind_name(static_cast<node_kind>(i)) + ".ns");
    return a;
  }();
  return *hists[static_cast<int>(k)];
}

obs::histogram& partition_service_hist() {
  static obs::histogram& h = obs::metrics_registry::global().get_histogram(
      "pass.partition_service_us");
  return h;
}

obs::counter& zero_copy_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("exec.zero_copy_chunks");
  return c;
}

/// Expose every pass_stats field through the metrics registry as probes:
/// g_last_stats stays the single source of truth and the registry reads it
/// under the same mutex last_pass_stats() uses.
void register_pass_probes() {
  auto& reg = obs::metrics_registry::global();
  auto probe = [&reg](const char* name, auto pass_stats::*field) {
    reg.register_probe(name, [field] {
      mutex_lock lock(g_stats_mutex);
      return static_cast<std::uint64_t>(g_last_stats.*field);
    });
  };
#define FLASHR_PASS_STATS_PROBE(f) probe("pass." #f, &pass_stats::f);
  FLASHR_PASS_STATS_FIELDS(FLASHR_PASS_STATS_PROBE)
#undef FLASHR_PASS_STATS_PROBE
}

void pass_runner::allocate_outputs() {
  for (std::size_t i = 0; i < dag_.tall_ids.size(); ++i) {
    const virtual_store* v = dag_.virt(dag_.tall_ids[i]);
    const part_geom& g = v->geom();
    if (dag_.output_storage(i, cfg_.st) == storage::ext_mem) {
      out_stores_.push_back(
          em_store::create(g.nrow, g.ncol, v->type(), g.part_rows));
      zc_out_.push_back(zero_copy_source(dag_.tall_ids[i]));
    } else {
      out_stores_.push_back(
          mem_store::create(g.nrow, g.ncol, v->type(), g.part_rows));
      zc_out_.push_back(nullptr);
    }
  }
  for (const int id : dag_.sink_ids) sinks_.push_back(describe_sink(dag_, id));
  recycle_ = !invariants_enabled();
  chunk_cap_ = worker_chunk_bytes(dag_, cfg_.chunk_rows, true);
}

std::vector<char> pass_runner::make_sink_identity(const sink_desc& s) const {
  std::vector<char> buf(s.acc_elems * type_size(s.out_type));
  if (s.node->op().kind == node_kind::s_count_groups)
    std::memset(buf.data(), 0, buf.size());
  else
    kern::agg_identity(s.out_type, s.merge_op, buf.data(), s.acc_elems);
  return buf;
}

/// Called at the end of every processed partition: park this partition's
/// sink partials and advance the in-order merge frontier as far as it goes.
/// The worker's accumulators are reset to the identity for its next claim.
void pass_runner::submit_sink_partials(thread_ctx& ctx) {
  if (sinks_.empty()) return;
  {
    mutex_lock lock(acc_mutex_);
    pending_sink_parts_.emplace(ctx.part, std::move(ctx.sink_acc));
    while (!pending_sink_parts_.empty() &&
           pending_sink_parts_.begin()->first == next_merge_part_) {
      auto& partial = pending_sink_parts_.begin()->second;
      if (!sink_total_init_) {
        sink_total_ = std::move(partial);
        sink_total_init_ = true;
      } else {
        for (std::size_t s = 0; s < sinks_.size(); ++s) {
          const sink_desc& d = sinks_[s];
          if (d.node->op().kind == node_kind::s_count_groups) {
            auto* a = reinterpret_cast<std::int64_t*>(sink_total_[s].data());
            const auto* b =
                reinterpret_cast<const std::int64_t*>(partial[s].data());
            for (std::size_t i = 0; i < d.acc_elems; ++i) a[i] += b[i];
          } else {
            kern::agg_merge(d.out_type, d.merge_op, sink_total_[s].data(),
                            partial[s].data(), d.acc_elems);
          }
        }
      }
      pending_sink_parts_.erase(pending_sink_parts_.begin());
      ++next_merge_part_;
    }
  }
  ctx.sink_acc.clear();
  for (const sink_desc& s : sinks_)
    ctx.sink_acc.push_back(make_sink_identity(s));
}

void pass_runner::init_cum_chains() {
  if (!dag_.has_cum) return;
  for (const int id : dag_.order) {
    const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
    if (n.virt()->op().kind != node_kind::cum_col) continue;
    cum_chains_[id].init(dag_.space.num_parts(), n.ncol * n.elem_size);
  }
}

void pass_runner::prof_init(const dag_info& plan) {
  prof_ = obs::profile_on();
  if (!prof_) return;
  const std::vector<int> group = fusion_groups(plan, ctl_.mode);
  prof_nodes_.assign(dag_.nodes.size(), {});
  for (std::size_t slot = 0; slot < dag_.nodes.size(); ++slot) {
    const node_entry& node = dag_.nodes[slot];
    const int id = dag_.plan_id(static_cast<int>(slot));
    obs::node_profile& n = prof_nodes_[slot];
    n.id = id;
    n.group = group[static_cast<std::size_t>(id)];
    n.est_bytes = plan.nodes[static_cast<std::size_t>(id)].est_bytes();
    // What this pass did with the node: an eager sub-pass reads an earlier
    // node's result as a leaf.
    n.op = op_label(node);
    n.leaf = node.kind != store_kind::virt;
    n.sink = !n.leaf && node.virt()->is_sink_node();
  }
  prof_acc_ = std::vector<std::atomic<std::uint64_t>>(prof_nodes_.size() *
                                                      kProfFields);
}

void pass_runner::record_profile() {
  obs::pass_profile p;
  p.mode = exec_mode_name(conf().mode);
  p.chunk_rows = cfg_.chunk_rows;
  p.threads = thread_pool::global().size();
  p.wall_ns = now_ns() - prof_t0_;
  // Ladder steps of the whole materialize() so far: a degraded eager pass
  // shows the mode fallback that created it, not just its own rungs.
  const std::string& path = ctl_.stats.degrade_path;
  for (std::size_t b = 0; b < path.size();) {
    const std::size_t e = std::min(path.find(',', b), path.size());
    p.degrade.push_back(path.substr(b, e - b));
    b = e + 1;
  }
  p.nodes.reserve(prof_nodes_.size());
  for (std::size_t slot = 0; slot < prof_nodes_.size(); ++slot) {
    obs::node_profile n = prof_nodes_[slot];
    const std::atomic<std::uint64_t>* a = &prof_acc_[slot * kProfFields];
    n.kernel_ns = a[pf_kernel].load(std::memory_order_relaxed);
    n.copy_ns = a[pf_copy].load(std::memory_order_relaxed);
    n.io_wait_ns = a[pf_io].load(std::memory_order_relaxed);
    n.partitions = a[pf_parts].load(std::memory_order_relaxed);
    n.rows = a[pf_rows].load(std::memory_order_relaxed);
    n.bytes = a[pf_bytes].load(std::memory_order_relaxed);
    n.chunks = a[pf_chunks].load(std::memory_order_relaxed);
    p.io_wait_ns += n.io_wait_ns;
    p.nodes.push_back(n);
  }
  // Join the sampling profiler's view of the same pass: per-node on-CPU
  // sample counts (scaled to ns by the sample period) next to the measured
  // kernel_ns, plus the pass-level cpu/io-wait/lock-wait split.
  if (samp_pass_ != 0) {
    std::uint64_t period_ns = 0;
    const std::vector<obs::node_samples> samp =
        obs::sampler_pass_samples(samp_pass_, &period_ns);
    p.sample_period_ns = period_ns;
    for (const obs::node_samples& e : samp) {
      p.samples_cpu += e.cpu;
      p.samples_io_wait += e.io_wait;
      p.samples_lock_wait += e.lock_wait;
      if (e.node < 0) continue;
      for (obs::node_profile& n : p.nodes) {
        if (n.id != e.node) continue;
        n.samples += e.cpu;
        n.sampled_ns += e.cpu * period_ns;
        break;
      }
    }
  }
  obs::profile_record(std::move(p));
}

void pass_runner::fail(std::exception_ptr e) noexcept {
  {
    mutex_lock lock(error_mutex_);
    if (!pass_error_) pass_error_ = e;
  }
  cancel_.store(true, std::memory_order_release);
  for (auto& [id, chain] : cum_chains_) {
    (void)id;
    chain.cancel();
  }
  // Wake workers parked in pop(); pipelines stop refilling, in-flight reads
  // settle in teardown_pipelines().
  for (auto& pl : pipelines_)
    if (pl) pl->cancel();
}

void pass_runner::build_pipelines() {
  const std::size_t num_parts = dag_.space.num_parts();
  thread_pool& pool = thread_pool::global();
  // Cumulative ops need strictly increasing partition dispatch: under
  // completion-order claims, every worker could end up holding a partition
  // later than an unclaimed one and block on its carry — so cum DAGs run
  // one sequential pipeline (reads still overlap; only claims are ordered).
  const bool sequential = dag_.has_cum;
  const int nodes =
      (conf().numa_nodes > 1 && !sequential) ? conf().numa_nodes : 1;
  // Read-ahead across the whole pass: enough in-flight partitions to keep
  // every I/O thread busy through a full dispatch batch per worker refill —
  // unless the governor's degradation ladder pinned a smaller window.
  std::size_t depth = static_cast<std::size_t>(
      cfg_.prefetch_depth >= 0 ? cfg_.prefetch_depth
                               : default_prefetch_depth());
  // NUMA: per-node windows share the global read-ahead budget.
  if (nodes > 1 && depth > 0)
    depth = std::max<std::size_t>(1, depth / static_cast<std::size_t>(nodes));

  if (nodes > 1) {
    numa_sched_.emplace(num_parts, nodes);
    for (int n = 0; n < nodes; ++n)
      pipelines_.push_back(std::make_unique<prefetch_pipeline>(
          dag_.em_leaves,
          [this, n](std::size_t& p) { return numa_sched_->fetch_local(n, p); },
          depth, /*sequential=*/false));
  } else {
    part_sched_.emplace(num_parts, pool.size(), conf().dispatch_batch);
    pipelines_.push_back(std::make_unique<prefetch_pipeline>(
        dag_.em_leaves,
        [this](std::size_t& p) { return part_sched_->fetch_one(p); }, depth,
        sequential));
  }
}

void pass_runner::teardown_pipelines() noexcept {
  for (auto& pl : pipelines_) {
    if (!pl) continue;
    pl->settle();
    const prefetch_pipeline::stats s = pl->pipeline_stats();
    ctl_.stats.read_wait_ns += s.read_wait_ns;
    ctl_.stats.reads_issued += s.reads_issued;
    ctl_.occupancy_sum += s.occupancy_sum;
    ctl_.pops += s.pops;
  }
  if (ctl_.pops != 0)
    ctl_.stats.occupancy_x100 = ctl_.occupancy_sum * 100 / ctl_.pops;
  // Destruction releases completed-but-unclaimed window buffers; with all
  // reads settled nothing can still write into them.
  pipelines_.clear();
}

void pass_runner::pipeline_worker(thread_ctx& ctx) {
  const int nodes = static_cast<int>(pipelines_.size());
  const int home = ctx.thread_idx % nodes;
  // Drain the home node's pipeline first, then steal from the others
  // (§3.3); with one pipeline this is plain shared dispatch.
  for (int probe = 0; probe < nodes; ++probe) {
    prefetch_pipeline& pl = *pipelines_[(home + probe) % nodes];
    prefetch_pipeline::slot s;
    for (;;) {
      if (cancelled()) break;
      const std::uint64_t w0 = prof_ ? now_ns() : 0;
      bool got;
      {
        // Blocked in pop() == waiting for prefetched reads: samples landing
        // here are the profile's I/O-wait share.
        obs::sample_wait_scope io_scope(obs::sample_state::io_wait);
        got = pl.pop(s);
      }
      if (!got) break;
      if (prof_ && !s.bufs.empty()) {
        // Attribute the blocked-in-pop() time evenly across the partition's
        // EM leaves; bytes/rows are exact per leaf.
        const std::uint64_t share = (now_ns() - w0) / s.bufs.size();
        const std::size_t prows = dag_.space.rows_in_part(s.part);
        for (const auto& [leaf, buf] : s.bufs) {
          const int slot = dag_.id_of(leaf);
          prof_add(ctx, slot, pf_io, share);
          prof_add(ctx, slot, pf_parts, 1);
          prof_add(ctx, slot, pf_rows, prows);
          prof_add(ctx, slot, pf_bytes, buf.size());
        }
      }
      ctx.em_bufs = std::move(s.bufs);
      numa_tracker::global().record_access(
          s.part, ctx.thread_idx % conf().numa_nodes, conf().numa_nodes);
      ctx.part = s.part;
      ctx.part_row0 = dag_.space.part_row_begin(s.part);
      ctx.part_rows = dag_.space.rows_in_part(s.part);
      process_partition(ctx);
      ctx.em_bufs.clear();
      // Drop the worker's share of any zero-copy leases; in-flight writes
      // keep theirs until completion.
      ctx.em_leases.clear();
      submit_sink_partials(ctx);
    }
  }
}

void pass_runner::run() {
  OBS_SPAN_ARG("pass", dag_.order.size());
  if (prof_) prof_t0_ = now_ns();
  if (prof_ && obs::sampler_on()) samp_pass_ = obs::sampler_new_pass();
  thread_pool& pool = thread_pool::global();
  // Every exit path from here, the cancelled one included, adds this
  // pass's I/O into the call's stats.
  const io_bracket io(ctl_.stats);
  build_pipelines();
  ++ctl_.stats.passes;
  if (pipelines_.size() == 1 && pipelines_[0]->sequential())
    ++ctl_.stats.sequential_passes;

  // Supervise the pass: pipelines_ is read-only from here until teardown,
  // so the watchdog's probe can walk it lock-free; fail() is the same
  // cooperative cancellation any worker error takes, so a trip drains and
  // audits exactly like an I/O failure. The watch ends before
  // teardown_pipelines() — settle() must wait out an injected stall anyway
  // (zero-leak: the read still owns its buffer until the completion lands).
  const std::uint64_t wtoken = pass_watchdog::global().watch(
      ctl_.pass_id, ctl_.deadline_ns, ctl_.deadline_ms,
      ctl_.stall_ms * 1000000ull, ctl_.stall_ms,
      [this] {
        pass_watchdog::io_progress p;
        for (const auto& pl : pipelines_) {
          if (!pl) continue;
          const prefetch_pipeline::io_progress q = pl->progress();
          p.inflight += q.inflight_reads;
          p.last_completion_ns =
              std::max(p.last_completion_ns, q.last_completion_ns);
        }
        return p;
      },
      [this](std::exception_ptr e) { fail(e); });

  pool.run_all([&](int thread_idx) {
    // Samples taken anywhere in this worker's pass carry the pass token.
    obs::sample_pass_scope sample_pass(samp_pass_);
    thread_ctx ctx;
    ctx.thread_idx = thread_idx;
    ctx.chunk.resize(dag_.nodes.size());
    ctx.part_view.resize(dag_.nodes.size());
    ctx.out_stage.resize(dag_.tall_ids.size());
    if (dag_.has_cum) ctx.cum_carry.resize(dag_.nodes.size());
    if (prof_) ctx.prof.assign(prof_nodes_.size() * kProfFields, 0);
    // Sink partials start at the aggregation identity; they are re-armed
    // after every partition by submit_sink_partials().
    ctx.sink_acc.reserve(sinks_.size());
    for (const sink_desc& s : sinks_)
      ctx.sink_acc.push_back(make_sink_identity(s));

    try {
      pipeline_worker(ctx);
    } catch (const pass_cancelled&) {
      // A peer recorded the pass error; this worker unwound cooperatively.
    } catch (const pipeline_cancelled&) {
      // Likewise: fail() cancelled the pipelines while this worker was
      // blocked in (or about to call) pop().
    } catch (...) {
      fail(std::current_exception());
    }
    // Merge this worker's profiling partials lock-free: the accumulators
    // are only read after run_all joins every worker.
    if (prof_)
      for (std::size_t i = 0; i < ctx.prof.size(); ++i)
        if (ctx.prof[i] != 0)
          prof_acc_[i].fetch_add(ctx.prof[i], std::memory_order_relaxed);
    // Likewise the zero-copy count: the calling thread reads it after the
    // join.
    if (ctx.zero_copy != 0) {
      std::atomic_ref<std::size_t>(ctl_.stats.zero_copy_chunks)
          .fetch_add(ctx.zero_copy, std::memory_order_relaxed);
      if (obs::metrics_on()) zero_copy_counter().add(ctx.zero_copy);
    }
    // ctx destruction returns every worker-held pool buffer (chunk bufs and
    // their spares, EM read buffers, staged outputs) whether the pass
    // succeeded or not.
    // Sink partials were already submitted per partition; whatever is left
    // in ctx.sink_acc is an untouched identity (or a cancelled partition's
    // partial, discarded with the pass).
  });

  // All workers joined. End supervision BEFORE teardown destroys the
  // pipelines the watchdog's probe reads; unwatch() returns only once no
  // callback can still be running.
  if (wtoken != 0) pass_watchdog::global().unwatch(wtoken);

  // Settle in-flight window reads and destroy the pipelines on BOTH paths,
  // so the pool audits below see every read-ahead buffer home regardless of
  // how the pass ended.
  teardown_pipelines();

  if (cancelled()) {
    // Writes submitted before the failure still hold pool buffers; wait for
    // them so the pool provably returns to its pre-pass state. The original
    // error outranks any deferred write error surfaced by the drain.
    try {
      em_store::drain_writes();
    } catch (...) {
    }
    validate::audit_pool(buffer_pool::global(), pool_baseline_count_);
    std::exception_ptr e;
    {
      mutex_lock lock(error_mutex_);
      e = pass_error_;
    }
    FLASHR_ASSERT(e != nullptr, "cancelled pass without a recorded error");
    std::rethrow_exception(e);
  }

  // Wait for asynchronous partition writes (cheap no-op when no output went
  // to SSDs) so the pool audit sees every write buffer home, then audit
  // before merge_sinks allocates the persistent sink stores.
  em_store::drain_writes();
  validate::audit_pool(buffer_pool::global(), pool_baseline_count_);

  // Assign tall output stores to their nodes.
  for (std::size_t i = 0; i < dag_.tall_ids.size(); ++i)
    dag_.virt(dag_.tall_ids[i])->set_result(out_stores_[i]);
  merge_sinks();
  if (prof_) record_profile();
}

void pass_runner::process_partition(thread_ctx& ctx) {
  OBS_SPAN_ARG("partition", ctx.part);
  const std::uint64_t svc0 = obs::metrics_on() ? now_ns() : 0;
  // A peer may have failed while this worker was between partitions; bail
  // before fetching carries so we never block on a cancelled cum chain.
  if (cancelled()) throw pass_cancelled{};
  // Fetch incoming cumulative carries before the first chunk.
  ctx.cum_has_carry = false;
  if (dag_.has_cum) {
    for (auto& [id, chain] : cum_chains_) {
      const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
      auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
      carry.resize(n.ncol * n.elem_size);
      if (ctx.part > 0) {
        // Parked on a predecessor's cumulative carry: lock wait.
        obs::sample_wait_scope sample_scope(obs::sample_state::lock_wait);
        chain.wait_for(ctx.part - 1, carry.data(), carry.size());
      }
    }
    ctx.cum_has_carry = ctx.part > 0;
  }

  // Staging buffers for outputs that land on SSDs — except zero-copy
  // outputs, whose partitions are written verbatim from the EM read buffer:
  // the pool buffer is promoted to a refcounted lease shared between the
  // chunk aliases, any other consumer of the leaf, and the in-flight write.
  for (std::size_t i = 0; i < dag_.tall_ids.size(); ++i) {
    if (out_stores_[i]->kind() != store_kind::ext) continue;
    if (const em_readable* src = zc_out_[i]) {
      if (ctx.em_leases.find(src) == ctx.em_leases.end()) {
        auto it = ctx.em_bufs.find(src);
        FLASHR_ASSERT(it != ctx.em_bufs.end(), "EM partition not prefetched");
        ctx.em_leases.emplace(src, pool_lease(std::move(it->second)));
        ctx.em_bufs.erase(it);
      }
      continue;
    }
    const virtual_store* v = dag_.virt(dag_.tall_ids[i]);
    ctx.out_stage[i] =
        buffer_pool::global().get(v->geom().part_bytes(ctx.part, v->type()));
  }
  // Resolve every leaf's view of this partition once; chunks offset it.
  for (const int id : dag_.leaf_ids)
    ctx.part_view[static_cast<std::size_t>(id)] = leaf_view(ctx, id);

  const std::size_t step =
      cfg_.chunk_rows == 0 ? ctx.part_rows : cfg_.chunk_rows;
  for (std::size_t r = 0; r < ctx.part_rows; r += step) {
    if (cancelled()) throw pass_cancelled{};
    ctx.chunk_row0 = r;
    ctx.chunk_rows = std::min(step, ctx.part_rows - r);
    process_chunk(ctx);
    ctx.cum_has_carry = true;  // after the first chunk, carries are live
  }

  // Flush outputs. Zero-copy outputs hand the write a copy of the lease:
  // the read buffer stays alive until the slowest of {this partition's
  // remaining consumers, the write completion} drops its share.
  for (std::size_t i = 0; i < dag_.tall_ids.size(); ++i) {
    if (out_stores_[i]->kind() != store_kind::ext) continue;
    auto* em = static_cast<em_store*>(out_stores_[i].get());
    if (zc_out_[i] != nullptr) {
      em->write_part_async(ctx.part, ctx.em_leases[zc_out_[i]]);
      ++ctx.zero_copy;
    } else {
      em->write_part_async(ctx.part, std::move(ctx.out_stage[i]));
    }
  }

  // Publish cumulative carries for the next partition.
  for (auto& [id, chain] : cum_chains_) {
    const auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
    chain.publish(ctx.part, carry.data(), carry.size());
  }

  FLASHR_DCHECK(std::none_of(ctx.out_stage.begin(), ctx.out_stage.end(),
                             [](const pool_buffer& b) { return b.valid(); }),
                "staged output buffer survived its partition");
  if (svc0 != 0) partition_service_hist().record((now_ns() - svc0) / 1000);
}

kern::view pass_runner::leaf_view(thread_ctx& ctx, int id) {
  const matrix_store* leaf = dag_.nodes[static_cast<std::size_t>(id)].store;
  switch (leaf->kind()) {
    case store_kind::mem: {
      auto* m = static_cast<const mem_store*>(leaf);
      return kern::view{m->part_data(ctx.part), m->part_stride(ctx.part)};
    }
    case store_kind::ext: {
      auto* e = static_cast<const em_readable*>(leaf);
      // A zero-copy output moved this leaf's read buffer into a shared
      // lease; same bytes, shared ownership.
      if (auto lt = ctx.em_leases.find(e); lt != ctx.em_leases.end())
        return kern::view{lt->second.data(), ctx.part_rows};
      auto it = ctx.em_bufs.find(e);
      FLASHR_ASSERT(it != ctx.em_bufs.end(), "EM partition not prefetched");
      return kern::view{it->second.data(), ctx.part_rows};
    }
    default:
      FLASHR_ASSERT(false, "not a leaf store");
      return {};
  }
}

const em_readable* pass_runner::zero_copy_source(int id) const {
  const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
  const virtual_store* v = n.virt();
  if (v->op().kind != node_kind::cast_type) return nullptr;
  const matrix_store* c =
      dag_.nodes[static_cast<std::size_t>(n.children[0])].store;
  if (c->kind() != store_kind::ext) return nullptr;
  if (v->op().to_type != c->type()) return nullptr;
  // Identical partitioning (rows, cols, split): partition p of the output
  // is byte-for-byte the leaf's read buffer for partition p.
  const part_geom& a = v->geom();
  const part_geom& b = c->geom();
  if (a.nrow != b.nrow || a.ncol != b.ncol || a.part_rows != b.part_rows)
    return nullptr;
  return static_cast<const em_readable*>(c);
}

pool_buffer pass_runner::take_chunk_buffer(thread_ctx& ctx,
                                           std::size_t bytes) {
  if (!recycle_) return buffer_pool::global().get(bytes);
  const std::size_t cls = buffer_pool::class_size(bytes);
  for (auto it = ctx.spare.end(); it != ctx.spare.begin();) {
    --it;
    if (it->size() != cls) continue;
    pool_buffer b = std::move(*it);
    ctx.spare.erase(it);
    return b;
  }
  // A miss: evict the coldest spares until the new buffer fits the bound.
  std::size_t drop = 0;
  while (drop < ctx.spare.size() && ctx.held_bytes + cls > chunk_cap_)
    ctx.held_bytes -= ctx.spare[drop++].size();
  ctx.spare.erase(ctx.spare.begin(),
                  ctx.spare.begin() + static_cast<std::ptrdiff_t>(drop));
  ctx.held_bytes += cls;
  return buffer_pool::global().get(bytes);
}

void pass_runner::recycle_chunk_buffer(thread_ctx& ctx, pool_buffer& b) {
  if (recycle_)
    ctx.spare.push_back(std::move(b));
  else
    b.release();
}

chunk_buf& pass_runner::ensure(thread_ctx& ctx, int id) {
  chunk_buf& cb = ctx.chunk[static_cast<std::size_t>(id)];
  if (cb.gen == ctx.gen) return cb;

  const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
  cb.gen = ctx.gen;
  cb.remaining = n.consumers;

  switch (n.kind) {
    case store_kind::mem:
    case store_kind::ext: {
      const kern::view& pv = ctx.part_view[static_cast<std::size_t>(id)];
      cb.v = kern::view{pv.data + ctx.chunk_row0 * n.elem_size, pv.stride};
      break;
    }
    case store_kind::generated: {
      auto* g = static_cast<const generated_store*>(n.store);
      const std::size_t bytes = ctx.chunk_rows * n.ncol * n.elem_size;
      cb.owned = take_chunk_buffer(ctx, bytes);
      ++ctx.live_owned;
      obs::sample_node_scope sample_scope(prof_id(id));
      const std::uint64_t g0 = prof_ ? now_ns() : 0;
      g->generate(ctx.part_row0 + ctx.chunk_row0, ctx.chunk_rows,
                  cb.owned.data(), ctx.chunk_rows);
      if (prof_) {
        prof_add(ctx, id, pf_kernel, now_ns() - g0);
        prof_add(ctx, id, pf_rows, ctx.chunk_rows);
        prof_add(ctx, id, pf_bytes, bytes);
        prof_add(ctx, id, pf_chunks, 1);
        if (ctx.chunk_row0 == 0) prof_add(ctx, id, pf_parts, 1);
      }
      cb.v = kern::view{cb.owned.data(), ctx.chunk_rows};
      break;
    }
    case store_kind::virt:
      eval_virtual(ctx, id, cb);
      break;
  }
  return cb;
}

void pass_runner::unref(thread_ctx& ctx, int id) {
  chunk_buf& cb = ctx.chunk[static_cast<std::size_t>(id)];
  FLASHR_ASSERT(cb.gen == ctx.gen && cb.remaining > 0,
                "unref of missing chunk");
  if (--cb.remaining <= 0 && cb.owned.valid()) {
    // The buffer goes back on the worker's spares (LIFO) so the very next
    // allocation — typically the consumer's output — reuses cache-hot
    // memory (§3.5.1).
    recycle_chunk_buffer(ctx, cb.owned);
    --ctx.live_owned;
  }
}

void pass_runner::eval_virtual(thread_ctx& ctx, int id, chunk_buf& out) {
  const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
  const genop& op = n.virt()->op();
  const std::vector<int>& ch = n.children;
  const node_entry& c0 = dag_.nodes[static_cast<std::size_t>(ch[0])];
  const std::size_t rows = ctx.chunk_rows;
  const std::size_t cols = n.ncol;

  // Zero-copy identity cast: casting to the child's own scalar type over a
  // leaf that is already resident (a mem partition or a prefetched EM read
  // buffer) is a no-op — alias the child's view instead of allocating an
  // output chunk and running a copy kernel. Restricted to mem/ext leaves:
  // their views do not live in a recycled chunk buffer, so the alias stays
  // valid after the child's unref.
  if (op.kind == node_kind::cast_type && op.to_type == c0.type &&
      !c0.owns_chunk()) {
    out.v = ensure(ctx, ch[0]).v;
    unref(ctx, ch[0]);
    ++ctx.zero_copy;
    if (prof_) {
      prof_add(ctx, id, pf_rows, rows);
      prof_add(ctx, id, pf_chunks, 1);
      if (ctx.chunk_row0 == 0) prof_add(ctx, id, pf_parts, 1);
    }
    return;
  }

  // Evaluate the children first (depth-first traversal); their views stay
  // in ctx.chunk until the unrefs below.
  for (const int c : ch) ensure(ctx, c);
  auto in = [&](std::size_t i) -> const kern::view& {
    return ctx.chunk[static_cast<std::size_t>(ch[i])].v;
  };

  // Kernel execution: node_kind_name() returns a string literal, which
  // satisfies the span's static-storage requirement.
  OBS_SPAN_ARG(node_kind_name(op.kind), rows);
  // Samples landing in the kernel (or its allocation) attribute to this
  // node's plan id; nested ensure() calls already closed their own scopes.
  obs::sample_node_scope sample_scope(prof_id(id));

  out.owned = take_chunk_buffer(ctx, rows * cols * n.elem_size);
  ++ctx.live_owned;
  char* o = out.owned.data();
  const std::size_t ostride = rows;
  const scalar_type ct = c0.type;
  // The kernel clock starts with the output buffer in hand: buffer
  // traffic is not kernel time.
  const std::uint64_t k0 = (obs::metrics_on() || prof_) ? now_ns() : 0;

  switch (op.kind) {
    case node_kind::sapply:
      kern::sapply(ct, op.u, in(0), rows, cols, o, ostride);
      break;
    case node_kind::map2: {
      const bool bcast =
          dag_.nodes[static_cast<std::size_t>(ch[1])].ncol == 1 && cols > 1;
      kern::map2(ct, op.b, in(0), in(1), bcast, rows, cols, o, ostride);
      break;
    }
    case node_kind::map_scalar:
      kern::map_scalar(ct, op.b, in(0), op.scalar, op.scalar_left, rows, cols,
                       o, ostride);
      break;
    case node_kind::sweep_rowvec:
      kern::sweep_rowvec(ct, op.b, in(0), op.small.data(), rows, cols, o,
                         ostride);
      break;
    case node_kind::inner_prod:
      kern::inner_prod(ct, op.b, op.a, in(0), rows, c0.ncol, op.small, o,
                       ostride);
      break;
    case node_kind::agg_row:
      kern::agg_row(ct, op.a, op.return_index, in(0), rows, c0.ncol, o);
      break;
    case node_kind::cum_col: {
      auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
      kern::cum_col(ct, op.b, in(0), rows, cols, o, ostride, carry.data(),
                    ctx.cum_has_carry);
      break;
    }
    case node_kind::cum_row:
      kern::cum_row(ct, op.b, in(0), rows, cols, o, ostride);
      break;
    case node_kind::cast_type:
      kern::cast(ct, op.to_type, in(0), rows, cols, o, ostride);
      break;
    case node_kind::select_cols: {
      for (std::size_t j = 0; j < op.cols.size(); ++j) {
        kern::view col{in(0).data + op.cols[j] * in(0).stride * n.elem_size,
                       in(0).stride};
        kern::copy(ct, col, rows, 1, o + j * ostride * n.elem_size, ostride);
      }
      break;
    }
    case node_kind::groupby_col:
      kern::groupby_col(ct, op.a, in(0), rows, c0.ncol, op.cols.data(),
                        op.num_groups, o, ostride);
      break;
    case node_kind::cbind2: {
      std::size_t at = 0;
      for (std::size_t c = 0; c < ch.size(); ++c) {
        const node_entry& cn = dag_.nodes[static_cast<std::size_t>(ch[c])];
        kern::copy(cn.type, in(c), rows, cn.ncol,
                   o + at * ostride * n.elem_size, ostride);
        at += cn.ncol;
      }
      break;
    }
    default:
      FLASHR_ASSERT(false, "sink evaluated as aligned node");
  }

  if (k0 != 0) {
    const std::uint64_t dt = now_ns() - k0;
    if (obs::metrics_on()) kernel_hist(op.kind).record(dt);
    if (prof_) {
      prof_add(ctx, id, pf_kernel, dt);
      prof_add(ctx, id, pf_rows, rows);
      prof_add(ctx, id, pf_bytes, rows * cols * n.elem_size);
      prof_add(ctx, id, pf_chunks, 1);
      if (ctx.chunk_row0 == 0) prof_add(ctx, id, pf_parts, 1);
    }
  }
  out.v = kern::view{o, ostride};
  for (const int c : ch) unref(ctx, c);
}

void pass_runner::process_chunk(thread_ctx& ctx) {
  OBS_SPAN_ARG("chunk", ctx.chunk_row0);
  ++ctx.gen;
  // Tall outputs: evaluate and copy the chunk into the partition store.
  for (std::size_t i = 0; i < dag_.tall_ids.size(); ++i) {
    const int id = dag_.tall_ids[i];
    const node_entry& n = dag_.nodes[static_cast<std::size_t>(id)];
    obs::sample_node_scope sample_scope(prof_id(id));
    chunk_buf& cb = ensure(ctx, id);
    const bool ext = out_stores_[i]->kind() == store_kind::ext;
    // Zero-copy outputs skip the staging copy: the whole partition is
    // written verbatim from the (leased) EM read buffer at flush, and the
    // node's copy time stays literally zero.
    if (zc_out_[i] == nullptr) {
      // The output move is data plumbing, not compute: it lands on the
      // node's copy time, not its kernel time.
      const std::uint64_t c0 = prof_ ? now_ns() : 0;
      if (ext) {
        char* dst = ctx.out_stage[i].data() + ctx.chunk_row0 * n.elem_size;
        kern::copy(n.type, cb.v, ctx.chunk_rows, n.ncol, dst, ctx.part_rows);
      } else {
        auto* m = static_cast<mem_store*>(out_stores_[i].get());
        char* dst = m->part_data(ctx.part) + ctx.chunk_row0 * n.elem_size;
        kern::copy(n.type, cb.v, ctx.chunk_rows, n.ncol, dst,
                   m->part_stride(ctx.part));
      }
      if (prof_) prof_add(ctx, id, pf_copy, now_ns() - c0);
    }
    unref(ctx, id);
  }

  // Sinks: accumulate into this thread's partials.
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    // The sink's accumulate kernel samples attribute to the sink; child
    // evaluation inside ensure() re-scopes to the child's node.
    const int slot = sinks_[s].id;
    obs::sample_node_scope sample_scope(prof_id(slot));
    const node_entry& sn = dag_.nodes[static_cast<std::size_t>(slot)];
    const genop& op = sn.virt()->op();
    const std::vector<int>& ch = sn.children;
    const node_entry& a = dag_.nodes[static_cast<std::size_t>(ch[0])];
    char* acc = ctx.sink_acc[s].data();
    const scalar_type ct = a.type;
    for (const int c : ch) ensure(ctx, c);
    const kern::view& va = ctx.chunk[static_cast<std::size_t>(ch[0])].v;
    // Time ONLY the accumulate kernel: ensure() may evaluate the whole
    // virtual chain beneath the sink, and those kernels account their own
    // time — including them here would double-count.
    const std::uint64_t s0 = prof_ ? now_ns() : 0;
    switch (op.kind) {
      case node_kind::s_agg_full:
        kern::agg_full_acc(ct, op.a, va, ctx.chunk_rows, a.ncol, acc);
        break;
      case node_kind::s_agg_col:
        kern::agg_col_acc(ct, op.a, va, ctx.chunk_rows, a.ncol, acc);
        break;
      case node_kind::s_tmm: {
        const node_entry& b = dag_.nodes[static_cast<std::size_t>(ch[1])];
        kern::tmm_acc(ct, op.b, op.a, va,
                      ctx.chunk[static_cast<std::size_t>(ch[1])].v,
                      ctx.chunk_rows, a.ncol, b.ncol, acc);
        break;
      }
      case node_kind::s_groupby_row:
        kern::groupby_row_acc(ct, op.a, va,
                              ctx.chunk[static_cast<std::size_t>(ch[1])].v,
                              ctx.chunk_rows, a.ncol, op.num_groups, acc);
        break;
      case node_kind::s_count_groups:
        kern::count_groups_acc(va, ctx.chunk_rows, op.num_groups,
                               reinterpret_cast<std::int64_t*>(acc));
        break;
      default:
        FLASHR_ASSERT(false, "aligned node in sink list");
    }
    if (prof_) {
      prof_add(ctx, slot, pf_kernel, now_ns() - s0);
      prof_add(ctx, slot, pf_rows, ctx.chunk_rows);
      prof_add(ctx, slot, pf_chunks, 1);
      if (ctx.chunk_row0 == 0) prof_add(ctx, slot, pf_parts, 1);
    }
    for (const int c : ch) unref(ctx, c);
  }

  // Every owned buffer must have been recycled by its last consumer.
  FLASHR_ASSERT(ctx.live_owned == 0,
                "leaked owned chunk buffer (refcount bug)");
  // Stronger per-node audit under the invariant validator: every Pcache
  // chunk touched this generation must have had its consumer count reach
  // zero, recycled buffer or not (§3.5.1's per-partition counters).
  if (invariants_enabled()) {
    for (const chunk_buf& cb : ctx.chunk)
      FLASHR_DCHECK(cb.gen != ctx.gen || cb.remaining == 0,
                    "Pcache partition counter did not reach zero");
  }
}

void pass_runner::merge_sinks() {
  if (sinks_.empty()) return;
  mutex_lock lock(acc_mutex_);
  // submit_sink_partials() merged every partition in ascending order as the
  // pass ran; a successful pass must have drained the frontier completely.
  FLASHR_ASSERT(sink_total_init_ && pending_sink_parts_.empty() &&
                    next_merge_part_ == dag_.space.num_parts(),
                "sink partials incomplete at merge");
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    const sink_desc& d = sinks_[s];
    std::vector<char> total = std::move(sink_total_[s]);
    // The full aggregate kept one accumulator per input column for chunk-
    // size-independent folding; collapse them (in column order) now.
    if (d.node->op().kind == node_kind::s_agg_full) {
      std::vector<char> one(type_size(d.out_type));
      kern::agg_finish(d.out_type, d.merge_op, total.data(), d.acc_elems,
                       one.data());
      total = std::move(one);
    }
    // Sinks always land in memory (§3.5).
    auto out = mem_store::create(d.out_rows, d.out_cols, d.out_type);
    FLASHR_ASSERT(out->num_parts() == 1, "sink result must fit a partition");
    kern::copy(d.out_type, kern::view{total.data(), d.out_rows}, d.out_rows,
               d.out_cols, out->part_data(0), out->part_stride(0));
    d.node->set_result(out);
  }
}

// ---------------------------------------------------------------------------
// Mode selection
// ---------------------------------------------------------------------------

/// One fused pass over `dag`, cut from the call's top-level `plan`.
void run_fused(dag_info& dag, const dag_info& plan, storage st,
               bool cache_fuse, pass_ctl& ctl) {
  if (dag.order.empty()) return;
  pass_config cfg;
  cfg.st = st;
  cfg.chunk_rows = cache_fuse ? chunk_rows_for(dag) : 0;
  const std::size_t steps_before = ctl.stats.degrade_steps;
  resource_governor::reservation res =
      admit_with_degradation(dag, cfg, ctl);
  degraded_scope degraded(ctl.stats.degrade_steps > steps_before);
  pass_runner runner(dag, plan, cfg, ctl);
  runner.run();
}

/// "Base" execution: one full pass per operation. When the DAG's data lives
/// on SSDs, intermediates are materialized on SSDs too — that is the paper's
/// base ("materializing every matrix operation separately causes SSDs to be
/// the main bottleneck"); only requested targets honour the caller's
/// storage. Sinks always land in memory regardless.
void run_eager(const dag_info& plan, storage st, pass_ctl& ctl) {
  const storage intermediate_st =
      plan.em_leaves.empty() ? st : storage::ext_mem;
  for (const int id : plan.order) {
    if (plan.virt(id)->has_result()) continue;
    dag_info sub = collect_one(plan, id);
    const bool requested =
        std::find(plan.targets.begin(), plan.targets.end(), id) !=
        plan.targets.end();
    run_fused(sub, plan, requested ? st : intermediate_st, false, ctl);
  }
}

}  // namespace

pass_stats last_pass_stats() {
  mutex_lock lock(g_stats_mutex);
  return g_last_stats;
}

std::string pass_stats::to_json() const {
  // Generated from the same X-macro the parity test expands: a field in the
  // struct IS a key in the JSON, with no hand-maintained format string to
  // fall behind (zero_copy_chunks, degrade_steps and degrade_path once did).
  std::string s = "{";
#define FLASHR_PASS_STATS_JSON(f)                                      \
  s += "\"" #f "\": " +                                                \
       std::to_string(static_cast<std::uint64_t>(f)) + ", ";
  FLASHR_PASS_STATS_FIELDS(FLASHR_PASS_STATS_JSON)
#undef FLASHR_PASS_STATS_JSON
  // Ladder steps are [a-z0-9:>,-] only — no JSON escaping needed.
  s += "\"degrade_path\": \"";
  s += degrade_path;
  s += "\"}";
  return s;
}

void materialize(const std::vector<matrix_store::ptr>& targets, storage st) {
  materialize(targets, st, materialize_opts{});
}

void materialize(const std::vector<matrix_store::ptr>& targets, storage st,
                 const materialize_opts& opts) {
  OBS_SPAN_ARG("materialize", targets.size());
  static const bool probes_registered = [] {
    register_pass_probes();
    return true;
  }();
  (void)probes_registered;
  // Structural validation (shape/orientation consistency, dangling nodes,
  // cycles) before any buffer is touched; no-op unless invariants are on.
  validate::check_dag(targets);
  dag_info dag = collect(targets);
  // A no-op materialization (every target already materialized) keeps the
  // previous stats: callers commonly read results back (to_smat and friends
  // re-enter materialize) before inspecting last_pass_stats().
  if (dag.order.empty()) return;

  // Per-call resilience limits: the deadline (opts override, else conf) is
  // one absolute instant covering every pass of this call, admission waits
  // included.
  pass_ctl ctl;
  ctl.pass_id = g_pass_id.fetch_add(1, std::memory_order_relaxed) + 1;
  ctl.deadline_ms =
      opts.deadline_ms != 0 ? opts.deadline_ms : conf().pass_deadline_ms;
  ctl.deadline_ns =
      ctl.deadline_ms != 0 ? now_ns() + ctl.deadline_ms * 1000000ull : 0;
  ctl.stall_ms = conf().watchdog_stall_ms;
  ctl.mode = conf().mode;

  // The call's end, normally or by exception, publishes its stats (partial
  // ones too: a cancelled pass's counters still mean something to callers).
  struct publisher {
    const pass_ctl& ctl;
    ~publisher() {
      mutex_lock lock(g_stats_mutex);
      g_last_stats = ctl.stats;
    }
  } publish{ctl};

  switch (ctl.mode) {
    case exec_mode::eager:
      run_eager(dag, st, ctl);
      break;
    case exec_mode::mem_fuse:
    case exec_mode::cache_fuse:
      try {
        run_fused(dag, dag, st, ctl.mode == exec_mode::cache_fuse, ctl);
      } catch (const exhausted_error&) {
        // The fused pass cannot fit the budget even fully degraded, but
        // admission precedes execution, so nothing ran: the final ladder
        // rung retries node-at-a-time (eager) passes, whose sub-DAGs are
        // strictly smaller. A single-node DAG would just re-fail with the
        // identical footprint — surface the overload instead.
        if (dag.order.size() <= 1) throw;
        ctl.degrade(std::string("mode:") + exec_mode_name(ctl.mode) +
                    "->eager");
        run_eager(dag, st, ctl);
      }
      break;
  }
}

}  // namespace flashr::exec
