// Overload-resilient execution: admission control and pass supervision.
//
// Two cooperating services keep the engine well-behaved when demand exceeds
// the machine (§4.6 runs FlashR near the memory wall; this layer is what
// lets a misconfigured or contended run degrade instead of thrash or hang):
//
//  * resource_governor — admits one pass at a time. Every pass runs on the
//    whole thread pool (§3.5), so a second pass could only wait for the
//    pool anyway: the governor makes that the rule. Before a pass starts,
//    exec estimates its peak footprint (prefetch window + per-worker
//    partition claims + Pcache chunk state + EM-output staging and
//    write-behind) and checks it against the budgets
//    (conf().mem_budget_bytes, max_inflight_io). A footprint too large to
//    EVER fit tells the caller to degrade (shrink the prefetch window, then
//    the Pcache chunk, then fall back to eager mode). A footprint that fits
//    while another pass is running either queues until that pass ends
//    (bounded by the pass deadline) or — with governor_fail_fast —
//    surfaces a typed, transient overload_error. Reservations are RAII, so
//    every exit path (success, cancellation, exception) frees the slot.
//
//  * pass_watchdog — one lazy, process-lifetime thread supervising running
//    passes. A pass past its absolute deadline, or one with reads in flight
//    but no completion for watchdog_stall_ms (an SSD whose completions stop
//    arriving — injectable via the deterministic `stall` fault site), is
//    cancelled through the pass's own cooperative path (pass_runner::fail),
//    so the zero-leak teardown and pool audit run exactly as for any other
//    pass error, and the caller sees a typed timeout_error.
//
// Degradation never changes results: the ladder only shrinks read-ahead and
// chunking, both of which are bit-identical by construction (sinks merge in
// thread order; chunked accumulation visits rows in the same order).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/error.h"
#include "common/thread_safety.h"
#include "core/exec.h"

namespace flashr::exec {

struct dag_info;

class resource_governor {
 public:
  /// Estimated peak resource demand of one pass.
  struct footprint {
    std::size_t bytes = 0;        ///< pool-buffer bytes the pass may pin
    std::size_t inflight_io = 0;  ///< concurrent partition-leaf reads
  };

  /// Outcome of a non-blocking admission check.
  enum class verdict {
    admitted,   ///< reservation taken; run the pass
    too_large,  ///< exceeds a budget even on an idle engine — degrade
    busy,       ///< fits, but another pass is running — queue/fail
  };

  /// RAII hold on the pass slot. Movable; releasing (or destroying) wakes
  /// queued passes.
  class reservation {
   public:
    reservation() = default;
    reservation(reservation&& o) noexcept : gov_(o.gov_) { o.gov_ = nullptr; }
    reservation& operator=(reservation&& o) noexcept {
      if (this != &o) {
        release();
        gov_ = o.gov_;
        o.gov_ = nullptr;
      }
      return *this;
    }
    ~reservation() { release(); }
    reservation(const reservation&) = delete;
    reservation& operator=(const reservation&) = delete;

    void release() noexcept;
    bool held() const { return gov_ != nullptr; }

   private:
    friend class resource_governor;
    explicit reservation(resource_governor* g) : gov_(g) {}
    resource_governor* gov_ = nullptr;
  };

  /// Non-blocking admission: on `admitted`, `out` holds the reservation.
  /// Budgets are read from conf() at call time; a zero budget is unlimited.
  verdict try_admit(const footprint& fp, reservation& out);

  /// Blocking admission for a `busy` footprint: queue until the running
  /// pass releases its reservation.
  /// `deadline_ns` (absolute flashr::now_ns instant, 0 = wait indefinitely)
  /// bounds the wait — a queued pass cannot be cancelled by the watchdog,
  /// so the deadline is enforced here, surfacing the same timeout_error a
  /// running pass would. Throws overload_error for a footprint that could
  /// never fit (callers should have degraded first).
  reservation admit(std::uint64_t pass_id, const footprint& fp,
                    std::uint64_t deadline_ns, std::uint64_t deadline_ms);

  /// Point-in-time health: not ok while passes are queued behind a running
  /// pass, running degraded, or tripped by the watchdog.
  struct health_snapshot {
    bool ok = true;
    std::size_t reserved_bytes = 0;
    std::size_t active_passes = 0;
    std::size_t queued_passes = 0;
    std::size_t degraded_passes = 0;
    std::size_t tripped_passes = 0;
    std::string reason;  ///< empty when ok
  };
  health_snapshot health() const;

  /// Degraded/tripped pass accounting (drives health()). Begin/end pairs
  /// are called by exec around a degraded pass and by the watchdog around a
  /// tripped watch's remaining lifetime.
  void note_degraded_begin() {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_degraded_end() { degraded_.fetch_sub(1, std::memory_order_relaxed); }
  void note_tripped_begin() { tripped_.fetch_add(1, std::memory_order_relaxed); }
  void note_tripped_end() { tripped_.fetch_sub(1, std::memory_order_relaxed); }
  /// Count one degradation-ladder step (exec records the step itself in the
  /// pass profile; this feeds the cumulative governor.degrade_steps metric).
  void count_degrade_step();
  /// Count one overload_error surfaced to a caller.
  void count_reject();

  static resource_governor& global();

 private:
  /// Take the one pass slot for `fp` (active_ == 0 on entry).
  reservation reserve_locked(const footprint& fp) REQUIRES(gov_mtx_);
  void release_slot() noexcept;

  friend class reservation;
  mutable mutex gov_mtx_ LOCK_RANK(governor);
  cond_var cv_;
  /// The running pass's footprint (0 when idle), for health() and the
  /// governor probes.
  std::size_t reserved_bytes_ GUARDED_BY(gov_mtx_) = 0;
  std::size_t reserved_io_ GUARDED_BY(gov_mtx_) = 0;
  std::size_t active_ GUARDED_BY(gov_mtx_) = 0;  ///< 0 or 1
  std::size_t queued_ GUARDED_BY(gov_mtx_) = 0;
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::size_t> tripped_{0};
};

class pass_watchdog {
 public:
  /// I/O progress of a watched pass, polled by the watchdog thread.
  struct io_progress {
    std::size_t inflight = 0;             ///< leaf reads in flight
    std::uint64_t last_completion_ns = 0; ///< 0 before the first completion
  };
  using progress_fn = std::function<io_progress()>;
  /// Cooperative cancellation hook (pass_runner::fail): must be safe to
  /// call from the watchdog thread while workers run, and must not block.
  using cancel_fn = std::function<void(std::exception_ptr)>;

  /// Start supervising a pass. `deadline_ns` is the absolute now_ns()
  /// instant the pass must finish by (0 = no deadline); `stall_ns` is the
  /// max time with reads in flight but no completion (0 = stall detection
  /// off). The pass is cancelled with a typed timeout_error when either
  /// fires; `deadline_ms`/`stall_ms` label the error. Returns a token for
  /// unwatch(); returns 0 (and watches nothing) when both limits are 0.
  std::uint64_t watch(std::uint64_t pass_id, std::uint64_t deadline_ns,
                      std::uint64_t deadline_ms, std::uint64_t stall_ns,
                      std::uint64_t stall_ms, progress_fn progress,
                      cancel_fn cancel);

  /// Stop supervising. Must be called before the progress/cancel callbacks'
  /// referents die; returns after the watchdog can no longer invoke them.
  void unwatch(std::uint64_t token);

  static pass_watchdog& global();

 private:
  struct entry {
    std::uint64_t pass_id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t deadline_ns = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t stall_ms = 0;
    progress_fn progress;
    cancel_fn cancel;
    bool tripped = false;
  };

  /// One poll verdict for one supervised entry; POD so the nonblocking
  /// poll body below allocates nothing.
  struct trip_decision {
    enum class kind { none, deadline, stall };
    kind k = kind::none;
    std::uint64_t elapsed_ns = 0;  ///< measured duration for the error text
  };

  pass_watchdog();
  void loop();
  /// Poll body: decide whether `e` has tripped at instant `now`. Runs on
  /// every watchdog wakeup for every entry, so it must never block or
  /// allocate (the cancel machinery — exception construction, counters,
  /// the callback itself — stays in loop()); the analyzer verifies that.
  static trip_decision check_entry(const entry& e,
                                   std::uint64_t now) FLASHR_NONBLOCKING;

  mutable mutex wd_mtx_ LOCK_RANK(watchdog);
  cond_var cv_;
  std::unordered_map<std::uint64_t, entry> entries_ GUARDED_BY(wd_mtx_);
  std::uint64_t next_token_ GUARDED_BY(wd_mtx_) = 1;
  /// Token whose cancel callback is executing (watchdog lock dropped);
  /// unwatch() of that token waits until the call returns.
  std::uint64_t cancelling_ GUARDED_BY(wd_mtx_) = 0;
};

// ---------------------------------------------------------------------------
// Admission of one pass: its footprint estimate and the degradation ladder
// ---------------------------------------------------------------------------

/// One pass's configuration, as admitted.
struct pass_config {
  storage st = storage::in_mem;
  std::size_t chunk_rows = 0;  // 0 = whole partition (mem_fuse)
  long prefetch_depth = -1;    // -1 = the conf() default
};

/// One materialize() call, threaded through every pass it runs: its limits
/// and the one pass_stats record each pass adds into, on the calling
/// thread.
struct pass_ctl {
  std::uint64_t pass_id = 0;     ///< global materialize() sequence number
  std::uint64_t deadline_ms = 0; ///< effective (opts override or conf)
  std::uint64_t deadline_ns = 0; ///< absolute now_ns() instant; 0 = none
  std::uint64_t stall_ms = 0;    ///< conf().watchdog_stall_ms
  exec_mode mode = exec_mode::cache_fuse;
  pass_stats stats;
  /// Prefetch-window occupancy samples of every pass so far;
  /// stats.occupancy_x100 is their running mean.
  std::uint64_t occupancy_sum = 0;
  std::uint64_t pops = 0;

  /// Record one degradation-ladder step.
  void degrade(const std::string& step);
};

/// The conf()-derived prefetch depth (the formula of build_pipelines,
/// before any NUMA split) — the top rung of the degradation ladder.
long default_prefetch_depth();

/// Estimated peak TRANSIENT pool demand of one pass. Covers the terms a
/// pass releases at its end: the prefetch window, each worker's claimed
/// partition buffers, per-worker chunk evaluation state, EM-output staging
/// and the bounded write-behind. Persistent in-memory outputs (mem_store
/// partitions that outlive the pass) are deliberately excluded — they are
/// the caller's data, not pass overhead. Deterministic for a fixed DAG and
/// configuration, so the degradation ladder converges.
resource_governor::footprint estimate_footprint(const dag_info& dag,
                                                long depth,
                                                std::size_t chunk_rows,
                                                storage st);

/// The ladder ran out of rungs: the pass cannot fit its budget even fully
/// degraded. Only this rejection retries the call node-at-a-time; a
/// fail-fast "busy" one is not about the pass's size.
class exhausted_error final : public overload_error {
 public:
  using overload_error::overload_error;
};

/// Admit one pass, walking the degradation ladder until its footprint fits
/// the budgets: halve the prefetch window (…→1→0, each rung strictly
/// smaller), then shrink the Pcache chunk (converting a whole-partition
/// pass to chunked evaluation first). A pass that fits but finds another
/// pass running queues (bounded by the deadline) or fails fast per conf().
/// Every step lands in ctl.stats and the governor metrics. Returns with the
/// reservation held and cfg updated; throws typed overload/timeout errors.
resource_governor::reservation admit_with_degradation(const dag_info& dag,
                                                      pass_config& cfg,
                                                      pass_ctl& ctl);

/// RAII health() accounting for a pass running in a degraded configuration.
class degraded_scope {
 public:
  explicit degraded_scope(bool on) : on_(on) {
    if (on_) resource_governor::global().note_degraded_begin();
  }
  ~degraded_scope() {
    if (on_) resource_governor::global().note_degraded_end();
  }
  degraded_scope(const degraded_scope&) = delete;
  degraded_scope& operator=(const degraded_scope&) = delete;

 private:
  bool on_;
};

}  // namespace flashr::exec
