// EXPLAIN ANALYZE tests (src/obs/profile.*): per-node pass profiling
// attribution (kernel-time coverage of the pass wall time in every exec
// mode, plan-id agreement with explain(), bounded history ring, concurrent
// readers during materialization), log-level parsing, and trace counter
// events.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace flashr {
namespace {

options profile_options() {
  options o;
  o.em_dir = "/tmp/flashr_test_profile";
  o.num_threads = 4;
  o.io_part_rows = 1024;
  o.pcache_bytes = 4096;
  o.small_nrow_threshold = 16;
  return o;
}

/// Value of the first `"key": N` at or after `from`; fails the test when the
/// key is absent.
std::uint64_t find_u64(const std::string& json, const std::string& key,
                       std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Sum of every `"key": N` occurrence after `from` (e.g. all kernel_ns
/// entries of the totals section, which explain_analyze emits last).
std::uint64_t sum_u64(const std::string& json, const std::string& key,
                      std::size_t from) {
  const std::string needle = "\"" + key + "\": ";
  std::uint64_t total = 0;
  for (std::size_t pos = json.find(needle, from); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return total;
}

/// A compute-heavy DAG whose kernel time dominates scheduling overhead:
/// a chain of transcendental maps ending in a 1x1 sum sink.
dense_matrix heavy_chain(std::size_t n) {
  dense_matrix X = dense_matrix::runif(n, 4, 0.1, 1.0, 3);
  dense_matrix v = log(X + 1.0);
  v = exp(v * 0.5);
  v = sigmoid(v);
  v = sqrt(v + 0.25);
  v = log1p(v * v);
  return sum(v);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

// Sanitizer instrumentation inflates the engine's non-kernel bookkeeping
// (allocation, scheduling) far more than the kernels themselves, so the
// coverage lower bound cannot hold under tsan/asan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLASHR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLASHR_TEST_SANITIZED 1
#endif
#endif

// Acceptance gate: per-node kernel times must explain the pass wall time to
// within 15% in all three exec modes. One worker thread makes kernel-ns and
// wall-ns directly comparable (no parallel overlap).
TEST(ProfileAnalyze, KernelTimeCoversWallInAllModes) {
#ifdef FLASHR_TEST_SANITIZED
  constexpr double kMinCover = 0.40;
#else
  constexpr double kMinCover = 0.85;
#endif
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    options o = profile_options();
    o.num_threads = 1;
    o.mode = m;
    init(o);
    obs::profile_clear();

    const std::string json = heavy_chain(400000).explain_analyze();
    const std::uint64_t wall = find_u64(json, "wall_ns");
    ASSERT_GT(wall, 0u) << exec_mode_name(m);
    const std::size_t totals = json.find("\"totals\":");
    ASSERT_NE(totals, std::string::npos);
    // Kernel time plus chunk-copy time: output staging moves are profiled
    // separately (copy_ns) so the zero-copy path can prove itself, but both
    // are work the pass performed.
    const std::uint64_t kernel = sum_u64(json, "kernel_ns", totals) +
                                 sum_u64(json, "copy_ns", totals);
    const double cover =
        static_cast<double>(kernel) / static_cast<double>(wall);
    EXPECT_GE(cover, kMinCover) << "mode " << exec_mode_name(m) << ": kernel "
                                << kernel << " wall " << wall;
    EXPECT_LE(cover, 1.15) << "mode " << exec_mode_name(m) << ": kernel "
                           << kernel << " wall " << wall;
  }
}

// The ids explain_analyze attributes costs to ARE explain()'s ids: the plan
// section is byte-identical to explain(), and the totals array is indexed by
// those ids in order.
TEST(ProfileAnalyze, NodeIdsMatchExplain) {
  // Eager runs one sub-pass per node, each reading earlier results as
  // leaves; its costs must still land on the plan's ids.
  for (exec_mode m :
       {exec_mode::cache_fuse, exec_mode::mem_fuse, exec_mode::eager}) {
    SCOPED_TRACE(exec_mode_name(m));
    options o = profile_options();
    o.mode = m;
    init(o);
    obs::profile_clear();

    dense_matrix d = heavy_chain(50000);
    const std::string plan = d.explain();  // before: analyze collapses the DAG
    const std::string json = d.explain_analyze();
    EXPECT_NE(json.find("\"plan\": " + plan), std::string::npos)
        << "embedded plan differs from explain()";

    // Count the plan's nodes and check the totals cover ids 0..n-1 in order.
    std::size_t num_nodes = 0;
    for (std::size_t pos = plan.find("\"id\": "); pos != std::string::npos;
         pos = plan.find("\"id\": ", pos + 1))
      ++num_nodes;
    ASSERT_GT(num_nodes, 2u);
    const std::size_t totals = json.find("\"totals\":");
    ASSERT_NE(totals, std::string::npos);
    std::size_t at = totals;
    for (std::size_t id = 0; id < num_nodes; ++id) {
      const std::string needle = "{\"id\": " + std::to_string(id) + ",";
      at = json.find(needle, at);
      ASSERT_NE(at, std::string::npos) << "totals missing node id " << id;
      // The generated leaf (id 0) was generated, and every pending node ran
      // its kernel (or its sink's accumulate) under its explain id.
      EXPECT_GT(find_u64(json, "kernel_ns", at), 0u) << "node id " << id;
    }
    EXPECT_GT(find_u64(json, "rows", json.find("{\"id\": 0,", totals)), 0u);
    EXPECT_NE(json.find("\"sink\": true", totals), std::string::npos);

    // The annotated dot names every node and carries measured labels.
    obs::profile_clear();
    dense_matrix d2 = heavy_chain(50000);
    const std::string dot = d2.explain_analyze_dot();
    EXPECT_NE(dot.find("digraph flashr_explain_analyze"), std::string::npos);
    EXPECT_NE(dot.find("kernel "), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  }
}

// EM inputs must show up as I/O wait + bytes on the EM leaf.
TEST(ProfileAnalyze, EmLeafAccountsIoAndBytes) {
  options o = profile_options();
  o.mode = exec_mode::cache_fuse;
  init(o);
  obs::profile_clear();

  dense_matrix X = conv_store(dense_matrix::runif(20000, 4, 0, 1, 11),
                              storage::ext_mem);
  dense_matrix d = sum(sqrt(X + 1.0));
  const std::string json = d.explain_analyze();
  const std::size_t totals = json.find("\"totals\":");
  ASSERT_NE(totals, std::string::npos);
  const std::size_t leaf = json.find("\"leaf\": true", totals);
  ASSERT_NE(leaf, std::string::npos);
  EXPECT_GT(find_u64(json, "partitions", leaf), 0u);
  EXPECT_EQ(find_u64(json, "rows", leaf), 20000u);
  // Partition read buffers are full-partition sized even for the ragged
  // tail, so leaf bytes are at least the matrix's payload.
  EXPECT_GE(find_u64(json, "bytes", leaf), 20000u * 4u * 8u);
  EXPECT_GT(find_u64(json, "io_wait_ns", leaf), 0u);
}

TEST(ProfileHistory, RingIsBoundedAndOrdered) {
  options o = profile_options();
  o.obs_profile = true;
  o.obs_profile_history = 4;
  init(o);
  obs::profile_clear();

  for (int i = 0; i < 6; ++i) {
    dense_matrix X = dense_matrix::runif(4000, 3, 0, 1, 100 + i);
    (void)sum(X * 2.0).scalar();
  }
  const std::vector<obs::pass_profile> h = obs::profile_history();
  ASSERT_FALSE(h.empty());
  EXPECT_LE(h.size(), 4u);
  for (std::size_t i = 1; i < h.size(); ++i)
    EXPECT_GT(h[i].seq, h[i - 1].seq);
  EXPECT_EQ(h.back().seq, obs::profile_pass_seq());
  EXPECT_GE(obs::profile_pass_seq(), 6u);  // >= one pass per materialize
  for (const obs::pass_profile& p : h) {
    EXPECT_GT(p.wall_ns, 0u);
    EXPECT_FALSE(p.nodes.empty());
  }

  const std::string json = h.back().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"kernel_ns\": "), std::string::npos);

  obs::profile_clear();
  EXPECT_TRUE(obs::profile_history().empty());
  EXPECT_EQ(obs::profile_pass_seq(), 0u);
}

// Profiling off (the default): no pass is ever recorded.
TEST(ProfileHistory, DisabledRecordsNothing) {
  options o = profile_options();
  init(o);
  obs::profile_clear();
  dense_matrix X = dense_matrix::runif(4000, 3, 0, 1, 7);
  (void)sum(X * 2.0).scalar();
  EXPECT_TRUE(obs::profile_history().empty());
}

// TSan gate: reading the metrics, the pass history and the last call's
// stats while materializations (with profiling on) run must be race-free.
TEST(ProfileHistory, ConcurrentReadersDuringMaterialize) {
  options o = profile_options();
  o.obs_profile = true;
  o.obs_metrics = true;
  init(o);
  obs::profile_clear();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&stop, &scrapes] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!obs::metrics_registry::global().to_json().empty()) ++scrapes;
      for (const obs::pass_profile& p : obs::profile_history())
        (void)p.to_json();
      (void)exec::last_pass_stats().to_json();
    }
  });

  for (int i = 0; i < 3; ++i) {
    dense_matrix X = conv_store(dense_matrix::runif(8000, 4, 0, 1, 21 + i),
                                storage::ext_mem);
    (void)sum(exp(X * 0.5)).scalar();
  }
  (void)heavy_chain(20000).explain_analyze();

  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
}

// ---------------------------------------------------------------------------
// Log levels & trace counters
// ---------------------------------------------------------------------------

TEST(ObsLog, LevelFromName) {
  log_level lvl = log_level::warn;
  EXPECT_TRUE(log_level_from_name("none", &lvl));
  EXPECT_EQ(lvl, log_level::none);
  EXPECT_TRUE(log_level_from_name("warn", &lvl));
  EXPECT_EQ(lvl, log_level::warn);
  EXPECT_TRUE(log_level_from_name("info", &lvl));
  EXPECT_EQ(lvl, log_level::info);
  EXPECT_TRUE(log_level_from_name("debug", &lvl));
  EXPECT_EQ(lvl, log_level::debug);
  EXPECT_TRUE(log_level_from_name("0", &lvl));
  EXPECT_EQ(lvl, log_level::none);
  EXPECT_TRUE(log_level_from_name("3", &lvl));
  EXPECT_EQ(lvl, log_level::debug);

  lvl = log_level::info;
  EXPECT_FALSE(log_level_from_name("verbose", &lvl));
  EXPECT_FALSE(log_level_from_name("", &lvl));
  EXPECT_FALSE(log_level_from_name("4", &lvl));
  EXPECT_FALSE(log_level_from_name("-1", &lvl));
  EXPECT_EQ(lvl, log_level::info) << "failed parse must not clobber";
}

TEST(ObsTrace, CounterEventsEmitPhC) {
  options o = profile_options();
  o.obs_trace = true;
  init(o);
  obs::trace_clear();

  OBS_COUNTER("test.counter", 5);
  OBS_COUNTER("test.counter", 7);
  const std::string json = obs::trace_json(nullptr);
  const std::string needle =
      "{\"name\":\"test.counter\",\"cat\":\"flashr\",\"ph\":\"C\"";
  std::size_t hits = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    ++hits;
  EXPECT_EQ(hits, 2u);
  EXPECT_NE(json.find("\"args\":{\"v\":5}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":7}"), std::string::npos);
}

// The prefetch pipeline publishes its window occupancy as a counter track.
TEST(ObsTrace, PrefetchWindowCounterUnderEmWorkload) {
  options o = profile_options();
  o.obs_trace = true;
  o.mode = exec_mode::cache_fuse;
  init(o);
  obs::trace_clear();

  dense_matrix X = conv_store(dense_matrix::runif(20000, 4, 0, 1, 31),
                              storage::ext_mem);
  (void)sum(X * 2.0).scalar();
  const std::string json = obs::trace_json(nullptr);
  EXPECT_NE(json.find("{\"name\":\"prefetch.window\",\"cat\":\"flashr\","
                      "\"ph\":\"C\""),
            std::string::npos);
}

}  // namespace
}  // namespace flashr
