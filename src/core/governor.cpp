#include "core/governor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/config.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/plan.h"
#include "matrix/em_store.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace flashr::exec {

namespace {

obs::counter& admitted_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.admitted");
  return c;
}
obs::counter& queue_wait_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.queue_waits");
  return c;
}
obs::counter& degrade_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.degrade_steps");
  return c;
}
obs::counter& reject_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.rejects");
  return c;
}
obs::counter& deadline_trip_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.deadline_trips");
  return c;
}
obs::counter& stall_trip_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.stall_trips");
  return c;
}
obs::histogram& queue_wait_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("governor.queue_wait_us");
  return h;
}

/// Poll period for hung-I/O checks: fine enough to trip within a fraction
/// of the stall bound, coarse enough to keep the watchdog invisible.
std::uint64_t stall_poll_ns(std::uint64_t stall_ns) {
  return std::clamp<std::uint64_t>(stall_ns / 4, 1000000ull, 100000000ull);
}

/// Whether `fp` exceeds a budget even on an idle engine. Budgets are read
/// from conf() at call time; a zero budget is unlimited.
bool too_large_for_budget(const resource_governor::footprint& fp) {
  const std::size_t mem_budget = conf().mem_budget_bytes;
  const std::size_t io_budget = conf().max_inflight_io;
  return (mem_budget != 0 && fp.bytes > mem_budget) ||
         (io_budget != 0 && fp.inflight_io > io_budget);
}

}  // namespace

// ---------------------------------------------------------------------------
// resource_governor
// ---------------------------------------------------------------------------

void resource_governor::reservation::release() noexcept {
  if (!gov_) return;
  gov_->release_slot();
  gov_ = nullptr;
}

void resource_governor::release_slot() noexcept {
  {
    mutex_lock lock(gov_mtx_);
    FLASHR_ASSERT(active_ == 1, "governor reservation released twice");
    reserved_bytes_ = 0;
    reserved_io_ = 0;
    active_ = 0;
  }
  cv_.notify_all();
}

resource_governor::reservation resource_governor::reserve_locked(
    const footprint& fp) {
  reserved_bytes_ = fp.bytes;
  reserved_io_ = fp.inflight_io;
  active_ = 1;
  admitted_counter().add(1);
  return reservation(this);
}

resource_governor::verdict resource_governor::try_admit(const footprint& fp,
                                                        reservation& out) {
  if (too_large_for_budget(fp)) return verdict::too_large;
  mutex_lock lock(gov_mtx_);
  if (active_ != 0) return verdict::busy;
  out = reserve_locked(fp);
  return verdict::admitted;
}

resource_governor::reservation resource_governor::admit(
    std::uint64_t pass_id, const footprint& fp, std::uint64_t deadline_ns,
    std::uint64_t deadline_ms) {
  if (too_large_for_budget(fp)) {
    count_reject();
    const std::size_t mem_budget = conf().mem_budget_bytes;
    const std::size_t io_budget = conf().max_inflight_io;
    const bool mem = mem_budget != 0 && fp.bytes > mem_budget;
    throw overload_error("pass footprint exceeds the resource budget",
                         pass_id, mem ? fp.bytes : fp.inflight_io,
                         mem ? mem_budget : io_budget);
  }
  const std::uint64_t t0 = now_ns();
  queue_wait_counter().add(1);
  // Sampling profiler: time queued for admission is lock wait.
  obs::sample_wait_scope sample_scope(obs::sample_state::lock_wait);
  mutex_lock lock(gov_mtx_);
  ++queued_;
  for (;;) {
    if (active_ == 0) {
      --queued_;
      queue_wait_hist().record((now_ns() - t0) / 1000);
      return reserve_locked(fp);
    }
    if (deadline_ns != 0) {
      const std::uint64_t now = now_ns();
      if (now >= deadline_ns) {
        --queued_;
        throw timeout_error(
            "pass deadline expired while queued for admission",
            pass_id, now - t0, deadline_ms);
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(deadline_ns - now));
    } else {
      cv_.wait(lock);
    }
  }
}

resource_governor::health_snapshot resource_governor::health() const {
  health_snapshot h;
  {
    mutex_lock lock(gov_mtx_);
    h.reserved_bytes = reserved_bytes_;
    h.active_passes = active_;
    h.queued_passes = queued_;
  }
  h.degraded_passes = degraded_.load(std::memory_order_relaxed);
  h.tripped_passes = tripped_.load(std::memory_order_relaxed);
  if (h.queued_passes > 0)
    h.reason = "passes queued behind a running pass";
  else if (h.tripped_passes > 0)
    h.reason = "watchdog tripped a running pass";
  else if (h.degraded_passes > 0)
    h.reason = "passes running degraded";
  h.ok = h.reason.empty();
  return h;
}

void resource_governor::count_degrade_step() { degrade_counter().add(1); }
void resource_governor::count_reject() { reject_counter().add(1); }

resource_governor& resource_governor::global() {
  // Leaked (monitoring probes may read it at process exit); the probes keep
  // the governor's own state canonical and the registry a view of it.
  static resource_governor* g = [] {
    auto* gov = new resource_governor();
    auto& reg = obs::metrics_registry::global();
    reg.register_probe("governor.reserved_bytes", [gov] {
      mutex_lock lock(gov->gov_mtx_);
      return static_cast<std::uint64_t>(gov->reserved_bytes_);
    });
    reg.register_probe("governor.reserved_io", [gov] {
      mutex_lock lock(gov->gov_mtx_);
      return static_cast<std::uint64_t>(gov->reserved_io_);
    });
    reg.register_probe("governor.active_passes", [gov] {
      mutex_lock lock(gov->gov_mtx_);
      return static_cast<std::uint64_t>(gov->active_);
    });
    reg.register_probe("governor.queued_passes", [gov] {
      mutex_lock lock(gov->gov_mtx_);
      return static_cast<std::uint64_t>(gov->queued_);
    });
    reg.register_probe("governor.degraded_passes", [gov] {
      return static_cast<std::uint64_t>(
          gov->degraded_.load(std::memory_order_relaxed));
    });
    reg.register_probe("governor.tripped_passes", [gov] {
      return static_cast<std::uint64_t>(
          gov->tripped_.load(std::memory_order_relaxed));
    });
    return gov;
  }();
  return *g;
}

// ---------------------------------------------------------------------------
// pass_watchdog
// ---------------------------------------------------------------------------

pass_watchdog::pass_watchdog() {
  // The supervision thread lives for the process (the singleton is leaked);
  // with no entries it parks on the cv and touches nothing else.
  std::thread([this] { loop(); }).detach();
}

std::uint64_t pass_watchdog::watch(std::uint64_t pass_id,
                                   std::uint64_t deadline_ns,
                                   std::uint64_t deadline_ms,
                                   std::uint64_t stall_ns,
                                   std::uint64_t stall_ms,
                                   progress_fn progress, cancel_fn cancel) {
  if (deadline_ns == 0 && stall_ns == 0) return 0;
  entry e;
  e.pass_id = pass_id;
  e.start_ns = now_ns();
  e.deadline_ns = deadline_ns;
  e.deadline_ms = deadline_ms;
  e.stall_ns = stall_ns;
  e.stall_ms = stall_ms;
  e.progress = std::move(progress);
  e.cancel = std::move(cancel);
  std::uint64_t token;
  {
    mutex_lock lock(wd_mtx_);
    token = next_token_++;
    entries_.emplace(token, std::move(e));
  }
  cv_.notify_all();
  return token;
}

void pass_watchdog::unwatch(std::uint64_t token) {
  if (token == 0) return;
  mutex_lock lock(wd_mtx_);
  // If the watchdog is mid-cancel on this very entry (lock dropped for the
  // callback), wait it out: after erase the callbacks' referents may die.
  while (cancelling_ == token) cv_.wait(lock);
  auto it = entries_.find(token);
  if (it == entries_.end()) return;
  if (it->second.tripped) resource_governor::global().note_tripped_end();
  entries_.erase(it);
}

pass_watchdog::trip_decision pass_watchdog::check_entry(const entry& e,
                                                       std::uint64_t now) {
  trip_decision d;
  if (e.tripped) return d;
  if (e.deadline_ns != 0 && now >= e.deadline_ns) {
    // Elapsed is measured from the deadline's own epoch (the materialize
    // call), not from watch registration — admission queueing happens in
    // between, and callers reasonably expect elapsed >= limit on a
    // deadline trip.
    d.k = trip_decision::kind::deadline;
    d.elapsed_ns = now - e.deadline_ns + e.deadline_ms * 1000000ull;
    return d;
  }
  if (e.stall_ns != 0 && e.progress) {
    // Polling the pipeline under the watchdog lock is safe: the pipeline
    // never calls back into the watchdog, and the prefetch-window rank
    // (500) sits above the watchdog's (200), so the order is acyclic.
    const io_progress p = e.progress();
    if (p.inflight > 0) {
      const std::uint64_t base = std::max(p.last_completion_ns, e.start_ns);
      if (now > base && now - base >= e.stall_ns) {
        d.k = trip_decision::kind::stall;
        d.elapsed_ns = now - base;
      }
    }
  }
  return d;
}

void pass_watchdog::loop() {
  obs::set_thread_name("watchdog");
  mutex_lock lock(wd_mtx_);
  for (;;) {
    // Next instant any entry needs attention: deadlines exactly, stall
    // checks on a poll grid a quarter of their bound.
    std::uint64_t now = now_ns();
    std::uint64_t wake = 0;
    for (const auto& [tok, e] : entries_) {
      (void)tok;
      if (e.tripped) continue;
      if (e.deadline_ns != 0 && (wake == 0 || e.deadline_ns < wake))
        wake = e.deadline_ns;
      if (e.stall_ns != 0) {
        const std::uint64_t poll = now + stall_poll_ns(e.stall_ns);
        if (wake == 0 || poll < wake) wake = poll;
      }
    }
    if (wake == 0) {
      cv_.wait(lock);
      continue;
    }
    if (wake > now)
      cv_.wait_for(lock, std::chrono::nanoseconds(wake - now));

    // Trip at most one entry per iteration: the cancel callback runs with
    // the lock dropped, so the entry map may change under it. The poll
    // body itself (check_entry) is nonblocking; everything that allocates
    // — the typed error, the counters, the callback — happens out here.
    for (;;) {
      now = now_ns();
      std::uint64_t fire_tok = 0;
      cancel_fn cancel;
      std::exception_ptr err;
      for (auto& [tok, e] : entries_) {
        const trip_decision d = check_entry(e, now);
        if (d.k == trip_decision::kind::none) continue;
        if (d.k == trip_decision::kind::deadline) {
          err = std::make_exception_ptr(timeout_error(
              "pass deadline exceeded", e.pass_id, d.elapsed_ns,
              e.deadline_ms));
          deadline_trip_counter().add(1);
        } else {
          err = std::make_exception_ptr(timeout_error(
              "hung I/O: reads in flight with no completion", e.pass_id,
              d.elapsed_ns, e.stall_ms));
          stall_trip_counter().add(1);
        }
        e.tripped = true;
        fire_tok = tok;
        cancel = e.cancel;
        resource_governor::global().note_tripped_begin();
        break;
      }
      if (fire_tok == 0) break;
      cancelling_ = fire_tok;
      lock.unlock();
      cancel(err);
      lock.lock();
      cancelling_ = 0;
      cv_.notify_all();  // unwatch() may be waiting on the cancel
    }
  }
}

pass_watchdog& pass_watchdog::global() {
  static pass_watchdog* w = new pass_watchdog();  // leaked; see ctor comment
  return *w;
}

// ---------------------------------------------------------------------------
// Admission + degradation ladder
// ---------------------------------------------------------------------------

long default_prefetch_depth() {
  return conf().prefetch_depth < 0
             ? 2 * static_cast<long>(conf().io_threads) *
                   static_cast<long>(conf().dispatch_batch)
             : static_cast<long>(conf().prefetch_depth);
}

resource_governor::footprint estimate_footprint(const dag_info& dag,
                                                long depth,
                                                std::size_t chunk_rows,
                                                storage st) {
  resource_governor::footprint fp;
  const auto threads = static_cast<std::size_t>(thread_pool::global().size());
  const std::size_t d = depth > 0 ? static_cast<std::size_t>(depth) : 0;

  // Partition 0 is a full-height partition (only the last may be short).
  std::size_t leaf_part_bytes = 0;
  for (const em_readable* l : dag.em_leaves)
    leaf_part_bytes += l->geom().part_bytes(0, l->type());
  // Window reads plus one claimed partition per worker.
  fp.bytes += (d + threads) * leaf_part_bytes;

  // Chunk evaluation state: one buffer per chunk-owning node per worker.
  fp.bytes += threads * worker_chunk_bytes(dag, chunk_rows, false);

  // EM outputs: one staged partition per worker, plus the write-behind
  // allowance (bounded by conf, or one more partition per worker unbounded).
  std::size_t out_part_bytes = 0;
  for (std::size_t i = 0; i < dag.tall_ids.size(); ++i) {
    const virtual_store* v = dag.virt(dag.tall_ids[i]);
    if (dag.output_storage(i, st) == storage::ext_mem)
      out_part_bytes += v->geom().part_bytes(0, v->type());
  }
  if (out_part_bytes != 0) {
    fp.bytes += threads * out_part_bytes;
    const std::size_t wb = conf().max_inflight_write_bytes;
    fp.bytes += wb != 0 ? wb : threads * out_part_bytes;
  }

  if (!dag.em_leaves.empty())
    fp.inflight_io = (d > 0 ? d : threads) * dag.em_leaves.size();
  return fp;
}

void pass_ctl::degrade(const std::string& step) {
  if (!stats.degrade_path.empty()) stats.degrade_path += ',';
  stats.degrade_path += step;
  ++stats.degrade_steps;
  resource_governor::global().count_degrade_step();
}

resource_governor::reservation admit_with_degradation(const dag_info& dag,
                                                      pass_config& cfg,
                                                      pass_ctl& ctl) {
  auto& gov = resource_governor::global();
  long depth = default_prefetch_depth();
  for (;;) {
    const resource_governor::footprint fp =
        estimate_footprint(dag, depth, cfg.chunk_rows, cfg.st);
    resource_governor::reservation res;
    const resource_governor::verdict v = gov.try_admit(fp, res);
    if (v == resource_governor::verdict::admitted) {
      cfg.prefetch_depth = depth;
      return res;
    }
    if (v == resource_governor::verdict::busy) {
      if (conf().governor_fail_fast) {
        gov.count_reject();
        throw overload_error(
            "another pass is running (fail-fast)", ctl.pass_id, fp.bytes,
            conf().mem_budget_bytes);
      }
      const std::uint64_t t0 = now_ns();
      ++ctl.stats.admission_waits;
      res = gov.admit(ctl.pass_id, fp, ctl.deadline_ns, ctl.deadline_ms);
      ctl.stats.admission_wait_ns += now_ns() - t0;
      cfg.prefetch_depth = depth;
      return res;
    }
    // too_large: degrade. Depth first (read-ahead is pure overhead), then
    // chunking (trades kernel efficiency, never results).
    if (depth > 1) {
      ctl.degrade("depth:" + std::to_string(depth) + "->" +
                  std::to_string(depth / 2));
      depth /= 2;
    } else if (depth == 1) {
      ctl.degrade("depth:1->0");
      depth = 0;
    } else if (cfg.chunk_rows == 0 && dag.space.part_rows > 16) {
      // Whole-partition evaluation -> Pcache chunking. Start from the
      // pcache_bytes-derived chunk; make sure the rung actually shrinks.
      std::size_t c = chunk_rows_for(dag);
      if (c >= dag.space.part_rows)
        c = std::max<std::size_t>(16, std::bit_floor(dag.space.part_rows) / 2);
      if (c >= dag.space.part_rows) {
        gov.count_reject();
        throw exhausted_error(
            "pass footprint exceeds the memory budget even fully degraded",
            ctl.pass_id, fp.bytes, conf().mem_budget_bytes);
      }
      ctl.degrade("chunk:0->" + std::to_string(c));
      cfg.chunk_rows = c;
    } else if (cfg.chunk_rows > 16) {
      ctl.degrade("chunk:" + std::to_string(cfg.chunk_rows) + "->" +
                  std::to_string(cfg.chunk_rows / 2));
      cfg.chunk_rows /= 2;
    } else {
      gov.count_reject();
      const bool mem_exceeded = conf().mem_budget_bytes != 0 &&
                                fp.bytes > conf().mem_budget_bytes;
      throw exhausted_error(
          "pass footprint exceeds the resource budget even fully degraded",
          ctl.pass_id, mem_exceeded ? fp.bytes : fp.inflight_io,
          mem_exceeded ? conf().mem_budget_bytes : conf().max_inflight_io);
    }
  }
}

}  // namespace flashr::exec
