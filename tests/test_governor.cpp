// Overload-resilience tests: the resource governor's admission control and
// degradation ladder, the pass watchdog's deadline and hung-I/O supervision,
// and the typed timeout/overload errors they surface.
//
// The deterministic `stall` fault site (io/fault.h) is what makes the
// hung-I/O tests reliable: completion delivery is delayed *after* the data
// lands, so the watchdog observes reads in flight with no completions —
// exactly the failure mode of an SSD whose completions stop arriving —
// without depending on wall-clock scheduling luck.
//
// Invariants under test:
//  * degradation never changes results (bit-identical elementwise output in
//    all three exec modes, under both memory and inflight-I/O budgets);
//  * a stalled or over-deadline pass fails with a typed timeout_error in
//    bounded time, with the buffer pool back at its baseline;
//  * admission never over-commits the budget, even under concurrency, and
//    queued passes honour the pass deadline;
//  * every degradation step is observable: last_pass_stats(), the governor
//    metrics, explain_analyze(), and the governor's health().
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/governor.h"
#include "io/fault.h"
#include "mem/buffer_pool.h"
#include "obs/metrics.h"

namespace flashr {
namespace {

std::uint64_t metric(const char* name) {
  return obs::metrics_registry::global().value(name);
}

class GovernorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1000;
  static constexpr std::size_t kCols = 7;
  static constexpr std::size_t kPartRows = 64;
  static constexpr std::size_t kParts = (kN + kPartRows - 1) / kPartRows;
  /// Partition 0 of the EM input: what one window slot or worker claim pins.
  static constexpr std::size_t kLeafPartBytes =
      kPartRows * kCols * sizeof(double);

  void init_with(exec_mode mode = exec_mode::cache_fuse) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = kPartRows;
    o.pcache_bytes = 2048;  // 32-row Pcache chunks for 7 f64 columns
    o.small_nrow_threshold = 16;
    o.dispatch_batch = 2;  // with io_threads=2: default prefetch depth 8
    o.mode = mode;
    init(o);
    fault_injector::global().clear();
  }
  void TearDown() override { fault_injector::global().clear(); }

  dense_matrix make_em_input() const {
    smat h(kN, kCols);
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        h(i, j) = 0.5 * static_cast<double>(i) -
                  1.25 * static_cast<double>(j) + 3.0;
    return conv_store(dense_matrix::from_smat(h), storage::ext_mem);
  }

  // Every completion delivery stalls 150ms while the stall bound is 50ms: the
  // watchdog must trip ("reads in flight, no completion"), cancel the pass
  // cooperatively, and surface a typed timeout_error in bounded time with
  // the buffer pool back at baseline.
  void expect_stalled_completions_trip(exec_mode mode) {
    init_with(mode);
    dense_matrix x = make_em_input();
    smat h = x.to_smat();
    mutable_conf().watchdog_stall_ms = 50;

    auto& pool = buffer_pool::global();
    const std::size_t count0 = pool.outstanding_count();
    const std::size_t bytes0 = pool.outstanding_bytes();
    const std::uint64_t trips0 = metric("governor.stall_trips");

    const std::uint64_t t0 = now_ns();
    {
      fault_plan p;
      p.seed = 90;
      p.stall_prob = 1.0;
      p.stall_us = 150000;
      fault_scope scope(p);
      dense_matrix y = x + 1.0;
      try {
        y.materialize(storage::in_mem);
        FAIL() << "expected timeout_error";
      } catch (const timeout_error& e) {
        EXPECT_EQ(e.limit_ms(), 50u);
        EXPECT_NE(std::string(e.what()).find("hung I/O"), std::string::npos);
        EXPECT_GE(e.elapsed_ns(), 50u * 1000000u);
      }
    }
    // Never hangs: the trip fires within ~one watchdog poll of the stall
    // bound, and teardown only waits out the already-injected delivery
    // stalls (the zero-leak settle). 10s is orders of magnitude of slack.
    EXPECT_LT(now_ns() - t0, 10ull * 1000000000ull);
    EXPECT_GE(metric("governor.stall_trips"), trips0 + 1);

    // Cooperative cancellation ran the normal teardown: pool at baseline.
    EXPECT_EQ(pool.outstanding_count(), count0);
    EXPECT_EQ(pool.outstanding_bytes(), bytes0);
    EXPECT_TRUE(exec::resource_governor::global().health().ok);

    // With completions flowing again the same DAG succeeds, exactly.
    smat got = (x + 1.0).to_smat();
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(got(i, j), h(i, j) + 1.0);
  }
};

// ---------------------------------------------------------------------------
// Degradation ladder: tight budgets shrink the pass, never its results
// ---------------------------------------------------------------------------

// A memory budget below the pass's configured footprint walks the ladder
// (depth halving, then Pcache chunk shrinking, mode-specific rungs) until
// the pass fits — and the degraded pass produces bit-identical elementwise
// output in all three exec modes.
TEST_F(GovernorTest, MemoryBudgetDegradesWithoutChangingResults) {
  const exec_mode modes[] = {exec_mode::eager, exec_mode::mem_fuse,
                             exec_mode::cache_fuse};
  for (exec_mode mode : modes) {
    init_with(mode);
    dense_matrix x = make_em_input();
    smat h = x.to_smat();

    // Tight enough to reject the depth-8 window (~57 KiB footprint for this
    // DAG), loose enough that a degraded configuration fits. Keep the
    // write-behind allowance to one partition so eager-mode EM
    // intermediates fit too.
    mutable_conf().mem_budget_bytes = 40000;
    mutable_conf().max_inflight_write_bytes = kLeafPartBytes;

    const std::uint64_t steps0 = metric("governor.degrade_steps");
    dense_matrix y = x * 2.0 + 1.0;
    y.materialize(storage::in_mem);

    // Elementwise output must be bit-identical to the host computation.
    smat got = y.to_smat();
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0)
            << "mode " << exec_mode_name(mode) << " at " << i << "," << j;

    // The ladder ran and is visible: per-pass stats record each step in
    // order, and the cumulative governor metric advanced with them.
    const exec::pass_stats ps = exec::last_pass_stats();
    EXPECT_GE(ps.degrade_steps, 1u) << exec_mode_name(mode);
    EXPECT_NE(ps.degrade_path.find("depth:8->4"), std::string::npos)
        << exec_mode_name(mode) << ": " << ps.degrade_path;
    EXPECT_GE(metric("governor.degrade_steps"), steps0 + ps.degrade_steps);

    // Aggregation sanity against a host fold (the engine's own fold order
    // differs from this naive loop, so tolerance — exact schedule
    // invariance is pinned by AggregationIsScheduleAndChunkInvariant).
    double want = 0.0;
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i) want += h(i, j);
    EXPECT_NEAR(agg(x, agg_id::sum).scalar(), want, 1e-6);

    // Degraded accounting is per-pass: health recovers once the pass ends.
    EXPECT_TRUE(exec::resource_governor::global().health().ok);
  }
}

// The "degradation never changes results" guarantee rests on sink partials
// being produced per partition and merged in ascending partition order, with
// chunk-size-invariant accumulate kernels underneath: the aggregate must be
// bit-identical across thread counts, prefetch depths, Pcache chunk sizes
// and governor budgets. Before the ordered merge, per-thread partials merged
// in thread order made the same binary produce different last bits run to
// run — this pins the invariant directly.
TEST_F(GovernorTest, AggregationIsScheduleAndChunkInvariant) {
  init_with();
  dense_matrix x = make_em_input();

  // Reference: one worker, synchronous reads — no scheduling freedom.
  mutable_conf().num_threads = 1;
  mutable_conf().prefetch_depth = 0;
  auto run = [&] {
    dense_matrix y = (x * 1.0000001 + 0.5) * x - x / 3.0;
    return agg(y, agg_id::sum).scalar();
  };
  const double ref = run();
  const dense_matrix gref = crossprod(x);

  const std::size_t chunks[] = {2048, 64 * 1024};
  const int depths[] = {8, 2, 0};
  for (const std::size_t pc : chunks) {
    for (const int d : depths) {
      mutable_conf().num_threads = 4;
      mutable_conf().pcache_bytes = pc;
      mutable_conf().prefetch_depth = d;
      ASSERT_EQ(run(), ref) << "pcache " << pc << " depth " << d;
      const dense_matrix g = crossprod(x);
      for (std::size_t i = 0; i < kCols; ++i)
        for (std::size_t j = 0; j < kCols; ++j)
          ASSERT_EQ(g.at(i, j), gref.at(i, j))
              << "pcache " << pc << " depth " << d << " at " << i << "," << j;
    }
  }

  // And under a budget that walks the full ladder (depth + chunk rungs).
  mutable_conf().num_threads = 4;
  mutable_conf().prefetch_depth = -1;
  mutable_conf().pcache_bytes = 64 * 1024;
  mutable_conf().mem_budget_bytes = 40000;
  mutable_conf().max_inflight_write_bytes = kLeafPartBytes;
  ASSERT_EQ(run(), ref);
  EXPECT_GE(exec::last_pass_stats().degrade_steps, 1u);
}

// An inflight-I/O budget alone (no memory budget) shrinks only the prefetch
// window: depth 8 issues 8 concurrent leaf reads, so a budget of 4 costs
// exactly one halving.
TEST_F(GovernorTest, InflightIoBudgetShrinksThePrefetchWindow) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();
  mutable_conf().max_inflight_io = 4;

  dense_matrix y = x * 3.0 - 1.0;
  y.materialize(storage::in_mem);
  smat got = y.to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 3.0 - 1.0);

  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_EQ(ps.degrade_path, "depth:8->4");
  EXPECT_EQ(ps.degrade_steps, 1u);
}

// A budget nothing can satisfy: the fused pass exhausts the ladder, falls
// back to node-at-a-time eager passes, and when even those cannot fit, the
// caller gets a typed, transient overload_error — with nothing leaked and
// the engine healthy afterwards.
TEST_F(GovernorTest, ImpossibleBudgetSurfacesTransientOverload) {
  init_with(exec_mode::cache_fuse);
  dense_matrix x = make_em_input();
  smat h = x.to_smat();

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  const std::uint64_t rejects0 = metric("governor.rejects");

  // Smaller than even one worker claim: no rung of the ladder can fit.
  mutable_conf().mem_budget_bytes = 1000;
  dense_matrix y = x * 2.0 + 1.0;
  try {
    y.materialize(storage::in_mem);
    FAIL() << "expected overload_error";
  } catch (const overload_error& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_TRUE(is_transient(std::make_exception_ptr(e)));
    EXPECT_GT(e.requested(), e.budget());
    EXPECT_EQ(e.budget(), 1000u);
  }
  EXPECT_GE(metric("governor.rejects"), rejects0 + 1);

  // The full ladder is on record, including the mode fallback rung.
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_NE(ps.degrade_path.find("mode:cache-fuse->eager"), std::string::npos)
      << ps.degrade_path;

  // Admission precedes execution: nothing ran, nothing leaked.
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
  EXPECT_TRUE(exec::resource_governor::global().health().ok);

  // Lifting the budget makes the identical DAG succeed, exactly.
  mutable_conf().mem_budget_bytes = 0;
  smat got = (x * 2.0 + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0);
}

// ---------------------------------------------------------------------------
// Queued admission: contention queues, deadlines bound the wait
// ---------------------------------------------------------------------------

// With the budget held by another reservation, a fitting pass queues; its
// deadline is enforced *while queued* (a queued pass has no running workers
// for the watchdog to cancel) and expiry surfaces the same timeout_error.
TEST_F(GovernorTest, QueuedPassHonoursItsDeadline) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();
  mutable_conf().mem_budget_bytes = 100000;

  auto& gov = exec::resource_governor::global();
  exec::resource_governor::reservation hog;
  exec::resource_governor::footprint fp;
  fp.bytes = 95000;  // fits alone; leaves no room for a real pass
  ASSERT_EQ(gov.try_admit(fp, hog), exec::resource_governor::verdict::admitted);

  exec::materialize_opts opts;
  opts.deadline_ms = 100;
  const std::uint64_t t0 = now_ns();
  dense_matrix y = x + 1.0;
  try {
    y.materialize(storage::in_mem, opts);
    FAIL() << "expected timeout_error";
  } catch (const timeout_error& e) {
    EXPECT_EQ(e.limit_ms(), 100u);
    EXPECT_NE(std::string(e.what()).find("queued"), std::string::npos);
    EXPECT_GE(e.elapsed_ns(), 100u * 1000000u);
  }
  // Bounded failure: expiry plus scheduling slack, nowhere near a hang.
  EXPECT_LT(now_ns() - t0, 5ull * 1000000000ull);

  // Releasing the contending reservation lets the same DAG run, exactly.
  hog.release();
  smat got = (x + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(got(i, j), h(i, j) + 1.0);
  EXPECT_TRUE(gov.health().ok);
}

// governor_fail_fast converts the queue into an immediate, typed, transient
// overload_error — the caller is expected to retry or shed load.
TEST_F(GovernorTest, FailFastRejectsContendedAdmissionImmediately) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 100000;
  mutable_conf().governor_fail_fast = true;

  auto& gov = exec::resource_governor::global();
  exec::resource_governor::reservation hog;
  exec::resource_governor::footprint fp;
  fp.bytes = 95000;
  ASSERT_EQ(gov.try_admit(fp, hog), exec::resource_governor::verdict::admitted);

  const std::uint64_t t0 = now_ns();
  dense_matrix y = x + 1.0;
  try {
    y.materialize(storage::in_mem);
    FAIL() << "expected overload_error";
  } catch (const overload_error& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("fail-fast"), std::string::npos);
  }
  EXPECT_LT(now_ns() - t0, 1ull * 1000000000ull) << "fail-fast must not wait";
  hog.release();
}

// A fail-fast "busy" rejection is not a size rejection: a multi-node DAG
// must not fall back to node-at-a-time passes (which would record a mode
// step that never ran, then fail fast again). One overload_error, one
// reject, no degrade step.
TEST_F(GovernorTest, FailFastBusyDoesNotFallBackToEager) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 100000;
  mutable_conf().governor_fail_fast = true;

  auto& gov = exec::resource_governor::global();
  exec::resource_governor::reservation hog;
  exec::resource_governor::footprint fp;
  fp.bytes = 95000;
  ASSERT_EQ(gov.try_admit(fp, hog), exec::resource_governor::verdict::admitted);

  const std::uint64_t rejects0 = metric("governor.rejects");
  const std::uint64_t steps0 = metric("governor.degrade_steps");
  dense_matrix y = (x + 1.0) * 2.0;
  int thrown = 0;
  try {
    y.materialize(storage::in_mem);
  } catch (const overload_error& e) {
    ++thrown;
    EXPECT_NE(std::string(e.what()).find("fail-fast"), std::string::npos);
  }
  hog.release();
  EXPECT_EQ(thrown, 1);
  EXPECT_EQ(metric("governor.rejects") - rejects0, 1u);
  EXPECT_EQ(metric("governor.degrade_steps"), steps0);
  const exec::pass_stats st = exec::last_pass_stats();
  EXPECT_EQ(st.degrade_steps, 0u);
  EXPECT_EQ(st.degrade_path, "");
  EXPECT_EQ(st.passes, 0u);
}

// While a pass is genuinely queued for budget, the governor's health()
// reports not-ok with a reason; it recovers once the queue drains. The
// queued pass completes with exact results and records its admission wait.
TEST_F(GovernorTest, HealthzReports503WhileAPassIsQueued) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();
  mutable_conf().mem_budget_bytes = 100000;

  auto& gov = exec::resource_governor::global();
  exec::resource_governor::reservation hog;
  exec::resource_governor::footprint fp;
  fp.bytes = 95000;
  ASSERT_EQ(gov.try_admit(fp, hog), exec::resource_governor::verdict::admitted);

  dense_matrix y = x * 5.0;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    exec::materialize_opts opts;
    opts.deadline_ms = 10000;  // generous: the test releases the hog below
    y.materialize(storage::in_mem, opts);
    done.store(true, std::memory_order_release);
  });

  // Wait for the pass to reach the queue, then observe the unhealthy state.
  const std::uint64_t t0 = now_ns();
  while (gov.health().queued_passes == 0 &&
         now_ns() - t0 < 5ull * 1000000000ull)
    std::this_thread::yield();
  const exec::resource_governor::health_snapshot queued = gov.health();
  ASSERT_GT(queued.queued_passes, 0u) << "pass never queued";
  EXPECT_FALSE(queued.ok);
  EXPECT_NE(queued.reason.find("queued"), std::string::npos) << queued.reason;
  EXPECT_EQ(queued.active_passes, 1u);
  EXPECT_EQ(queued.reserved_bytes, fp.bytes);

  hog.release();
  runner.join();
  ASSERT_TRUE(done.load(std::memory_order_acquire));

  smat got = y.to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(got(i, j), h(i, j) * 5.0);
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_GE(ps.admission_waits, 1u);
  EXPECT_GT(ps.admission_wait_ns, 0u);
  const exec::resource_governor::health_snapshot after = gov.health();
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(after.reason, "");
  EXPECT_EQ(after.queued_passes, 0u);
}

// Two threads call materialize() at once. Every pass uses the whole thread
// pool, so the governor runs one at a time: the second call queues behind
// the first, with or without a memory budget, instead of re-entering the
// pool. Each call's stats are its own; both calls have the same shape, so
// the checks hold whichever call's snapshot a thread reads back.
TEST_F(GovernorTest, ConcurrentCallsQueueAndReportTheirOwnStats) {
  for (const std::size_t budget : {std::size_t{0}, std::size_t{80000}}) {
    SCOPED_TRACE("mem_budget_bytes=" + std::to_string(budget));
    init_with();
    dense_matrix a = make_em_input();
    dense_matrix b = make_em_input();
    const smat h = a.to_smat();
    mutable_conf().mem_budget_bytes = budget;
    auto& gov = exec::resource_governor::global();

    // The first call's reads are slow, so it is still running when the
    // second call arrives.
    fault_plan slow;
    slow.latency_prob = 1.0;
    slow.latency_us = 5000;
    slow.max_faults = kParts;
    fault_scope scope(slow);

    struct call {
      dense_matrix y;
      exec::pass_stats stats;
      std::string error;
    };
    call ca{a * 2.0 + 1.0, {}, {}};
    call cb{b * 3.0 - 1.0, {}, {}};
    auto run = [](call& c) {
      try {
        c.y.materialize(storage::in_mem);
        c.stats = exec::last_pass_stats();
      } catch (const std::exception& e) {
        c.error = e.what();
      }
    };
    auto wait_until = [](auto pred) {
      const std::uint64_t t0 = now_ns();
      while (!pred() && now_ns() - t0 < 10ull * 1000000000ull)
        std::this_thread::yield();
      return pred();
    };

    const std::uint64_t queue_waits0 = metric("governor.queue_waits");
    std::thread ta(run, std::ref(ca));
    const bool first_running =
        wait_until([&] { return gov.health().active_passes == 1; });
    std::thread tb(run, std::ref(cb));
    // One call runs while the other waits behind it.
    exec::resource_governor::health_snapshot live;
    const bool second_queued = wait_until([&] {
      live = gov.health();
      return live.queued_passes == 1;
    });
    ta.join();
    tb.join();

    EXPECT_TRUE(first_running);
    EXPECT_TRUE(second_queued);
    EXPECT_EQ(live.active_passes, 1u);
    EXPECT_FALSE(live.ok);
    // Exactly one call queued, and a call's record counts a wait only when
    // it spent time waiting.
    EXPECT_EQ(metric("governor.queue_waits"), queue_waits0 + 1);

    for (const call* c : {&ca, &cb}) {
      EXPECT_EQ(c->error, "");
      EXPECT_LE(c->stats.admission_waits, 1u);
      EXPECT_EQ(c->stats.admission_waits == 1, c->stats.admission_wait_ns > 0);
      EXPECT_EQ(c->stats.passes, 1u);
      EXPECT_EQ(c->stats.reads_issued, kParts);
      EXPECT_EQ(c->stats.read_bytes, kN * kCols * sizeof(double));
    }
    const smat ga = ca.y.to_smat();
    const smat gb = cb.y.to_smat();
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(ga(i, j), h(i, j) * 2.0 + 1.0);
        ASSERT_EQ(gb(i, j), h(i, j) * 3.0 - 1.0);
      }
    EXPECT_TRUE(gov.health().ok);
  }
}

// ---------------------------------------------------------------------------
// Watchdog: hung I/O and pass deadlines cancel through the zero-leak path
// ---------------------------------------------------------------------------

// The watchdog trips on stalled completions in the default mode ...
TEST_F(GovernorTest, StalledCompletionsTripTheWatchdog) {
  expect_stalled_completions_trip(exec_mode::cache_fuse);
}

// ... and in every execution mode, each with its own pass driver.
TEST_F(GovernorTest, WatchdogTripsInEveryMode) {
  for (exec_mode mode :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    SCOPED_TRACE(exec_mode_name(mode));
    expect_stalled_completions_trip(mode);
  }
}

// A per-call deadline on a healthy-but-slow pass (every pread delayed):
// the watchdog cancels at the deadline and the typed error carries it.
TEST_F(GovernorTest, DeadlineCancelsARunningPass) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  const std::uint64_t trips0 = metric("governor.deadline_trips");

  const std::uint64_t t0 = now_ns();
  {
    fault_plan p;
    p.seed = 91;
    p.latency_prob = 1.0;
    p.latency_us = 5000;  // 16 partitions / 2 I/O threads: >= 40ms of reads
    fault_scope scope(p);
    exec::materialize_opts opts;
    opts.deadline_ms = 20;
    dense_matrix y = x * 2.0 + 1.0;
    try {
      y.materialize(storage::in_mem, opts);
      FAIL() << "expected timeout_error";
    } catch (const timeout_error& e) {
      EXPECT_EQ(e.limit_ms(), 20u);
      EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
      EXPECT_GE(e.elapsed_ns(), 20u * 1000000u);
    }
  }
  EXPECT_LT(now_ns() - t0, 10ull * 1000000000ull);
  EXPECT_GE(metric("governor.deadline_trips"), trips0 + 1);
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);

  smat got = (x * 2.0 + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0);
}

// Deadline firing on a pass that already walked the degradation ladder: the
// degraded retry is cancelled cleanly, the steps stay on record, and the
// engine is healthy afterwards.
TEST_F(GovernorTest, DeadlineDuringDegradedPassCancelsCleanly) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 40000;  // forces depth degradation

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();

  fault_plan p;
  p.seed = 92;
  p.latency_prob = 1.0;
  p.latency_us = 5000;
  fault_scope scope(p);
  exec::materialize_opts opts;
  opts.deadline_ms = 25;
  dense_matrix y = x * 2.0 + 1.0;
  EXPECT_THROW(y.materialize(storage::in_mem, opts), timeout_error);

  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_GE(ps.degrade_steps, 1u) << "the pass degraded before the deadline";
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
  EXPECT_TRUE(exec::resource_governor::global().health().ok);
}

// ---------------------------------------------------------------------------
// Concurrent admission: no over-commit, no deadlock (TSan-gated)
// ---------------------------------------------------------------------------

TEST_F(GovernorTest, ConcurrentAdmissionNeverOvercommitsTheBudget) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();
  constexpr std::size_t kBudget = 10000;
  mutable_conf().mem_budget_bytes = kBudget;

  auto& gov = exec::resource_governor::global();
  const std::uint64_t admitted0 = metric("governor.admitted");

  // 6 threads x 40 blocking admissions against a budget that fits ~2 at a
  // time. Each holder charges a shadow accumulator while its reservation is
  // live; the governor's invariant makes the shadow never exceed the
  // budget. gtest assertions are not thread-safe, so violations are counted
  // and asserted after the join.
  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  std::atomic<std::size_t> in_use{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        exec::resource_governor::footprint fp;
        fp.bytes = 3000 + 1000 * static_cast<std::size_t>((t * 7 + i) % 5);
        exec::resource_governor::reservation r = gov.admit(
            static_cast<std::uint64_t>(t * kIters + i), fp,
            /*deadline_ns=*/0, /*deadline_ms=*/0);
        const std::size_t now_used =
            in_use.fetch_add(fp.bytes, std::memory_order_acq_rel) + fp.bytes;
        if (now_used > kBudget) violations.fetch_add(1);
        std::this_thread::yield();
        in_use.fetch_sub(fp.bytes, std::memory_order_acq_rel);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GE(metric("governor.admitted"),
            admitted0 + static_cast<std::uint64_t>(kThreads) * kIters);
  const auto health = gov.health();
  EXPECT_TRUE(health.ok);
  EXPECT_EQ(health.reserved_bytes, 0u);
  EXPECT_EQ(health.active_passes, 0u);

  // The budget is still live for real passes: a tight-budget materialize
  // degrades, completes exactly, and leaves the pool at baseline.
  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  mutable_conf().mem_budget_bytes = 40000;
  smat got = (x * 2.0 + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0);
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
}

// ---------------------------------------------------------------------------
// Observability: schedules, metrics, explain_analyze, health()
// ---------------------------------------------------------------------------

// The stall schedule is a pure function of (seed, site, per-site index):
// two identical runs inject the same number of completion stalls.
TEST_F(GovernorTest, StallScheduleIsDeterministic) {
  init_with();
  dense_matrix x = make_em_input();

  fault_plan p;
  p.seed = 93;
  p.stall_prob = 0.5;
  p.stall_us = 100;  // harmless delays: determinism is what's under test

  fault_injector::global().install(p);
  (void)agg(x, agg_id::sum).scalar();
  const std::size_t first = fault_injector::global().injected();

  fault_injector::global().install(p);  // re-install: reset the site counter
  (void)agg(x, agg_id::sum).scalar();
  const std::size_t second = fault_injector::global().injected();
  fault_injector::global().clear();

  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

// Degradation steps surface in explain_analyze() and in the governor's
// metrics.
TEST_F(GovernorTest, DegradationIsVisibleInExplainAnalyzeAndMetrics) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 40000;

  const std::string analysis = (x * 4.0 + 2.0).explain_analyze();
  EXPECT_NE(analysis.find("\"degrade\": [\"depth:8->4\""), std::string::npos)
      << analysis.substr(0, 400);

  const auto& reg = obs::metrics_registry::global();
  for (const char* name :
       {"governor.reserved_bytes", "governor.reserved_io",
        "governor.degrade_steps", "governor.active_passes"}) {
    bool found = false;
    (void)reg.value(name, &found);
    EXPECT_TRUE(found) << name;
  }
  EXPECT_GE(reg.value("governor.degrade_steps"), 1u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"governor.degrade_steps\""), std::string::npos);
}

// Degraded/tripped accounting: the begin/end pairs drive health()'s verdict
// and its reason directly.
TEST_F(GovernorTest, HealthzReflectsDegradedAndTrippedAccounting) {
  init_with();
  auto& gov = exec::resource_governor::global();
  ASSERT_TRUE(gov.health().ok);

  gov.note_degraded_begin();
  exec::resource_governor::health_snapshot h = gov.health();
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.degraded_passes, 1u);
  EXPECT_NE(h.reason.find("degraded"), std::string::npos) << h.reason;
  gov.note_degraded_end();

  gov.note_tripped_begin();
  h = gov.health();
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.tripped_passes, 1u);
  EXPECT_NE(h.reason.find("tripped"), std::string::npos) << h.reason;
  gov.note_tripped_end();

  h = gov.health();
  EXPECT_TRUE(h.ok);
  EXPECT_EQ(h.reason, "");
  EXPECT_EQ(h.degraded_passes, 0u);
  EXPECT_EQ(h.tripped_passes, 0u);
}

}  // namespace
}  // namespace flashr
