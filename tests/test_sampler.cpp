// Sampling-profiler tests (src/obs/sampler.*): zero-cost-off gating,
// folded-stack shape, wait-state attribution, the explain_analyze
// sampled-self-time join (coverage of measured kernel time on one thread),
// the sampler's metrics, and concurrent exports while sampled passes run
// (TSan gate).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"

namespace flashr {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLASHR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLASHR_TEST_SANITIZED 1
#endif
#endif

options sampler_options() {
  options o;
  o.em_dir = "/tmp/flashr_test_sampler";
  o.num_threads = 2;
  o.io_part_rows = 1024;
  o.pcache_bytes = 4096;
  o.small_nrow_threshold = 16;
  return o;
}

/// Leave the process exactly as a fresh test expects it: sampler stopped,
/// aggregates dropped.
void sampler_reset() {
  obs::sampler_stop();
  obs::sampler_clear();
}

/// Burn CPU until `ms` of wall time passed (keeps the thread on-CPU so
/// wall-clock samples land in state cpu).
void spin_ms(std::uint64_t ms) {
  const std::uint64_t t0 = now_ns();
  volatile double sink = 1.0;
  while (now_ns() - t0 < ms * 1000000ull) {
    for (int i = 0; i < 4096; ++i) sink = sink * 1.0000001 + 1e-9;
  }
}

/// Split folded text into non-empty lines.
std::vector<std::string> folded_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// "track;state;frames... count" — positive trailing count, >= 2 frames.
void expect_well_formed(const std::string& line) {
  const std::size_t sp = line.rfind(' ');
  ASSERT_NE(sp, std::string::npos) << line;
  ASSERT_LT(sp + 1, line.size()) << line;
  for (std::size_t i = sp + 1; i < line.size(); ++i)
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
  EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u) << line;
  const std::string head = line.substr(0, sp);
  EXPECT_NE(head.find(';'), std::string::npos)
      << "no track;state separator: " << line;
}

std::uint64_t find_u64(const std::string& json, const std::string& key,
                       std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

std::uint64_t sum_u64(const std::string& json, const std::string& key,
                      std::size_t from) {
  const std::string needle = "\"" + key + "\": ";
  std::uint64_t total = 0;
  for (std::size_t pos = json.find(needle, from); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return total;
}

// ---------------------------------------------------------------------------
// Core sampler
// ---------------------------------------------------------------------------

TEST(Sampler, OffByDefaultCostsNothing) {
  sampler_reset();
  EXPECT_FALSE(obs::sampler_on());
  // Scopes are inert while off: no context mutation, no samples.
  {
    obs::sample_node_scope node(7);
    obs::sample_pass_scope pass(obs::sampler_new_pass());
    obs::sample_wait_scope wait(obs::sample_state::io_wait);
    spin_ms(5);
  }
  const obs::sampler_counters c = obs::sampler_stats();
  EXPECT_EQ(c.hz, 0u);
  EXPECT_EQ(c.samples, 0u);
  EXPECT_TRUE(obs::folded_stacks().empty());
  EXPECT_TRUE(obs::sampler_pass_samples(0, nullptr).empty());
}

TEST(Sampler, CollectsWellFormedFoldedStacks) {
  sampler_reset();
  obs::sampler_start(997);
  ASSERT_TRUE(obs::sampler_on());
  spin_ms(300);
  obs::sampler_stop();
  EXPECT_FALSE(obs::sampler_on());

  const obs::sampler_counters c = obs::sampler_stats();
  EXPECT_GT(c.samples, 0u) << "no samples after 300ms at 997 Hz";

  const std::string folded = obs::folded_stacks();
  const std::vector<std::string> lines = folded_lines(folded);
  ASSERT_FALSE(lines.empty());
  bool saw_main_cpu = false;
  for (const std::string& line : lines) {
    expect_well_formed(line);
    if (line.rfind("main;cpu", 0) == 0) saw_main_cpu = true;
  }
  EXPECT_TRUE(saw_main_cpu)
      << "main thread spun on-CPU but no main;cpu stack:\n" << folded;
  sampler_reset();
}

TEST(Sampler, PassAndNodeAttribution) {
  sampler_reset();
  obs::sampler_start(997);
  const std::uint32_t pass = obs::sampler_new_pass();
  ASSERT_NE(pass, 0u);
  {
    obs::sample_pass_scope ps(pass);
    obs::sample_node_scope ns(5);
    spin_ms(250);
  }
  obs::sampler_stop();

  std::uint64_t period = 0;
  const std::vector<obs::node_samples> agg =
      obs::sampler_pass_samples(pass, &period);
  EXPECT_GT(period, 0u);
  std::uint64_t node5_cpu = 0;
  for (const obs::node_samples& e : agg) {
    EXPECT_EQ(e.pass, pass);
    if (e.node == 5) node5_cpu += e.cpu;
  }
  EXPECT_GT(node5_cpu, 0u) << "no cpu samples attributed to node 5";
  // A different pass token matches nothing.
  EXPECT_TRUE(obs::sampler_pass_samples(pass + 1, nullptr).empty());
  sampler_reset();
}

TEST(Sampler, WaitScopeSplitsOffCpu) {
  sampler_reset();
  obs::sampler_start(997);
  const std::uint32_t pass = obs::sampler_new_pass();
  {
    obs::sample_pass_scope ps(pass);
    obs::sample_wait_scope ws(obs::sample_state::io_wait);
    // Wall-clock timers keep firing while the thread sleeps — that is the
    // point: blocked time is sampled and attributed off-CPU.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  obs::sampler_stop();

  std::uint64_t io_wait = 0;
  for (const obs::node_samples& e : obs::sampler_pass_samples(pass, nullptr))
    io_wait += e.io_wait;
  EXPECT_GT(io_wait, 0u) << "sleep under sample_wait_scope took no io_wait "
                            "samples";
  const std::string folded = obs::folded_stacks();
  EXPECT_NE(folded.find(";io_wait;"), std::string::npos) << folded;
  sampler_reset();
}

TEST(Sampler, WriteFoldedRoundTrip) {
  sampler_reset();
  obs::sampler_start(997);
  spin_ms(150);
  obs::sampler_stop();

  const std::string path = "/tmp/flashr_test_sampler_folded.txt";
  const obs::folded_summary s = obs::write_folded(path);
  EXPECT_GT(s.lines, 0u);
  EXPECT_GT(s.samples, 0u);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::string text;
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(folded_lines(text).size(), s.lines);
  std::remove(path.c_str());
  sampler_reset();
}

// Acceptance gate: with one worker thread, per-node sampled self-time
// (cpu samples x period) must cover the measured kernel+copy time. Both
// are wall-clock measures of the same scopes, so the ratio is ~1 up to
// sampling noise.
TEST(Sampler, ExplainAnalyzeSampledSelfTimeCoverage) {
  sampler_reset();
  options o = sampler_options();
  o.num_threads = 1;
  o.obs_sample_hz = 1997;
  init(o);
  obs::profile_clear();

  dense_matrix X = dense_matrix::runif(500000, 4, 0.1, 1.0, 3);
  dense_matrix v = log(X + 1.0);
  v = exp(v * 0.5);
  v = sigmoid(v);
  v = sqrt(v + 0.25);
  v = log1p(v * v);
  const std::string json = sum(v).explain_analyze();

  init(sampler_options());  // hz back to 0 — stops the sampler
  const std::size_t totals = json.find("\"totals\":");
  ASSERT_NE(totals, std::string::npos);
  const std::uint64_t kernel = sum_u64(json, "kernel_ns", totals) +
                               sum_u64(json, "copy_ns", totals);
  const std::uint64_t sampled = sum_u64(json, "sampled_ns", totals);
  const std::uint64_t samples = sum_u64(json, "samples", totals);
  ASSERT_GT(kernel, 0u);
  EXPECT_GT(find_u64(json, "sample_period_ns"), 0u)
      << "pass JSON lacks the sampler join fields";
#ifdef FLASHR_TEST_SANITIZED
  // Sanitizer runtimes intercept signal delivery and skew both measures;
  // presence is enough there.
  EXPECT_GT(samples, 0u);
#else
  ASSERT_GT(samples, 20u) << json;
  const double cover =
      static_cast<double>(sampled) / static_cast<double>(kernel);
  EXPECT_GE(cover, 0.80) << "sampled " << sampled << " ns vs kernel "
                         << kernel << " ns\n" << json;
  EXPECT_LE(cover, 1.60) << "sampled self-time double-counted?\n" << json;
#endif
  sampler_reset();
}

TEST(Sampler, RestartAndClear) {
  sampler_reset();
  obs::sampler_start(499);
  EXPECT_EQ(obs::sampler_stats().hz, 499u);
  obs::sampler_start(997);  // re-arm at a new rate
  EXPECT_EQ(obs::sampler_stats().hz, 997u);
  spin_ms(100);
  obs::sampler_stop();
  EXPECT_GT(obs::sampler_stats().samples, 0u);
  obs::sampler_clear();
  EXPECT_EQ(obs::sampler_stats().samples, 0u);
  EXPECT_TRUE(obs::folded_stacks().empty());
}

// TSan gate: exporting folded stacks, per-node samples, metrics and the
// profile history while sampled materializations run must be race-free.
TEST(Sampler, ConcurrentExportWhileSampling) {
  sampler_reset();
  options o = sampler_options();
  o.obs_profile = true;
  o.obs_metrics = true;
  o.obs_sample_hz = 499;
  init(o);
  obs::profile_clear();

  std::atomic<bool> stop{false};
  std::atomic<int> exports{0};
  std::thread exporter([&stop, &exports] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::folded_stacks();
      (void)obs::sampler_pass_samples(0, nullptr);
      (void)obs::metrics_registry::global().to_json();
      (void)obs::profile_history();
      ++exports;
    }
  });

  for (int i = 0; i < 3; ++i) {
    dense_matrix X = dense_matrix::runif(60000, 4, 0.1, 1.0, 11 + i);
    (void)sum(exp(X * 0.5)).scalar();
  }

  stop.store(true);
  exporter.join();
  EXPECT_GT(exports.load(), 0);
  init(sampler_options());
  sampler_reset();
}

// The sampler's own counters are registry probes: they read the live
// sampler_stats(), and the registry's JSON carries them.
TEST(Sampler, CountersExported) {
  sampler_reset();
  obs::sampler_register_metrics();
  auto& reg = obs::metrics_registry::global();
  obs::sampler_start(997);
  spin_ms(100);
  obs::sampler_stop();
  const obs::sampler_counters c = obs::sampler_stats();
  EXPECT_GT(c.samples, 0u);
  bool found = false;
  EXPECT_EQ(reg.value("sampler.samples", &found), c.samples);
  EXPECT_TRUE(found);
  found = false;
  EXPECT_EQ(reg.value("sampler.drops", &found), c.dropped);
  EXPECT_TRUE(found);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"sampler.samples\""), std::string::npos);
  EXPECT_NE(json.find("\"sampler.drops\""), std::string::npos);
  sampler_reset();
}

}  // namespace
}  // namespace flashr
