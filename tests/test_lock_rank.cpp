// Runtime lock-rank checker tests (common/thread_safety.h,
// common/lock_rank.cpp): a seeded rank inversion and a recursive lock must
// abort with their diagnostics, the gate must keep the checker silent when
// invariants are off, and — the real bar — a full engine pass in every
// execution mode plus a concurrent governor/metrics scrape must run clean
// with the checker enabled, proving the declared rank table matches the
// locks the engine actually takes.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/config.h"
#include "common/thread_safety.h"
#include "core/dense_matrix.h"
#include "core/governor.h"
#include "obs/metrics.h"

namespace flashr {
namespace {

TEST(LockRankDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex low LOCK_RANK(governor);
        mutex high LOCK_RANK(metrics_registry);
        mutex_lock outer(high);
        mutex_lock inner(low);  // 300 acquired under 700
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex a LOCK_RANK(buffer_pool);
        mutex b LOCK_RANK(buffer_pool);  // same rank: no order between them
        mutex_lock outer(a);
        mutex_lock inner(b);
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, RecursiveLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex m LOCK_RANK(governor);
        m.lock();
        m.lock();  // same mutex, same thread
      },
      "recursive lock");
}

TEST(LockRank, GateOffIsSilent) {
  // Without the invariant gate the checker must cost nothing and tolerate
  // any order (release builds run with it off). A FLASHR_CHECK_INVARIANTS
  // build forces the gate on, so there is no gate-off state to test.
  if (kInvariantBuild)
    GTEST_SKIP() << "invariants are compiled on: the gate cannot be off";
  mutex low LOCK_RANK(governor);
  mutex high LOCK_RANK(metrics_registry);
  {
    mutex_lock outer(high);
    mutex_lock inner(low);  // inverted, but unchecked
  }
  SUCCEED();
}

TEST(LockRank, IntrospectionTracksHeldRanks) {
  invariant_scope on;
  mutex low LOCK_RANK(governor);
  mutex high LOCK_RANK(metrics_registry);
  EXPECT_EQ(low.rank(), lock_rank::governor.value);
  EXPECT_EQ(high.rank(), lock_rank::metrics_registry.value);
  EXPECT_EQ(mutex{}.rank(), 0);  // unranked test scaffolding

  int held[16];
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
  {
    mutex_lock outer(low);
    mutex_lock inner(high);
    ASSERT_EQ(detail::held_ranks(held, 16), 2);
    EXPECT_EQ(held[0], lock_rank::governor.value);
    EXPECT_EQ(held[1], lock_rank::metrics_registry.value);
  }
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
}

/// Thread-local whose destructor takes a ranked lock during thread teardown,
/// after the checker has released the thread's registry slot.
struct late_locker {
  std::atomic<int>* step = nullptr;
  mutex* m = nullptr;
  ~late_locker() {
    if (step == nullptr) return;
    step->store(1);  // the released slot may be claimed now
    while (step->load() != 2) std::this_thread::yield();
    { mutex_lock lock(*m); }
    step->store(3);
  }
};

// A thread releases its registry slot in a thread_local destructor, but it
// can still take ranked locks afterwards: in later thread_local destructors
// and, on the main thread, in static destructors. Those locks must stay
// private to the thread. If they landed in the released slot, a thread
// that claimed the slot meanwhile would see them, and they would see its
// locks, so two unrelated threads would report false inversions.
TEST(LockRank, LocksAfterSlotReleaseStayPrivate) {
  invariant_scope on;
  mutex low LOCK_RANK(governor);
  mutex high LOCK_RANK(metrics_registry);
  std::atomic<int> step{0};
  std::thread exiting([&] {
    // Constructed before this thread's first ranked lock, so destroyed
    // after the checker's own thread_local has released the slot.
    thread_local late_locker late;
    late.step = &step;
    late.m = &low;
    mutex_lock lock(high);
  });
  std::thread claimer([&] {
    while (step.load() != 1) std::this_thread::yield();
    mutex_lock lock(high);  // first ranked lock: claims a free slot
    step.store(2);
    while (step.load() != 3) std::this_thread::yield();
  });
  exiting.join();
  claimer.join();
  EXPECT_EQ(step.load(), 3);
}

TEST(LockRank, TryLockParticipates) {
  invariant_scope on;
  mutex m LOCK_RANK(governor);
  ASSERT_TRUE(m.try_lock());
  int held[16];
  EXPECT_EQ(detail::held_ranks(held, 16), 1);
  EXPECT_EQ(held[0], lock_rank::governor.value);
  m.unlock();
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
}

// --- Whole-engine clean passes under the checker ---------------------------

class LockRankEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 128;
    init(o);
  }

  static smat weights() {
    smat w(4, 3);
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t i = 0; i < 4; ++i)
        w(i, j) = static_cast<double>(i + 1) * (j + 1);
    return w;
  }

  // One full pass: external-memory input so the prefetch pipeline, the
  // async-I/O queue, the buffer pool, the governor and the metrics layer
  // all take their locks while the rank checker watches.
  void run_pass() {
    dense_matrix x = dense_matrix::runif(600, 4, -1, 1, /*seed=*/11);
    x = conv_store(x, storage::ext_mem);
    smat got = matmul(x, dense_matrix::from_smat(weights())).to_smat();
    ASSERT_EQ(got.nrow(), 600u);
  }
};

TEST_F(LockRankEngineTest, CleanPassInEveryMode) {
  invariant_scope on;
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    mutable_conf().mode = m;
    run_pass();
  }
  mutable_conf().mode = exec_mode::cache_fuse;
}

TEST_F(LockRankEngineTest, ConcurrentGovernorAndScrape) {
  // The deepest rank chains in the tree meet here: the engine pass nests
  // pass locks -> governor -> prefetch window -> async queue -> pool ->
  // metrics/trace, while the scraper walks metrics -> governor probes.
  // With the checker on, any undeclared edge aborts.
  invariant_scope on;
  (void)exec::resource_governor::global();  // registers the governor probes
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = obs::metrics_registry::global().to_json();
      ASSERT_NE(json.find("\"governor.active_passes\""), std::string::npos);
    }
  });
  for (int i = 0; i < 3; ++i) run_pass();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
}

}  // namespace
}  // namespace flashr
