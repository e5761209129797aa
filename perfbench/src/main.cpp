// Benchmark program: one process runs one workload as a closed loop of fits,
// checks every fit's output, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <logistic-im|cluster-im|etl-em> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--size full|tiny] [--perturb-fit <i>] [--em-dir <dir>]
//             [--out-dir <dir>]
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common.h"
#include "io/async_io.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace pb {

using namespace flashr;

namespace {

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  long perturb_fit = -1;
  std::string em_dir = ".bench_em";
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--perturb-fit <i>] [--em-dir <dir>] [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--size") a.tiny = v == "tiny";
    else if (k == "--perturb-fit") a.perturb_fit = std::stol(v);
    else if (k == "--em-dir") a.em_dir = v;
    else if (k == "--out-dir") a.out_dir = v;
    else usage("unknown option " + k);
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Engine knobs: shipped defaults except the threads and the I/O backend,
/// which the benchmark pins.
options engine_options(const args& a) {
  options o;
  o.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  o.io_backend = io_backend_kind::threads;
  o.em_dir = std::filesystem::absolute(a.em_dir).string();
  return o;
}

void print_knobs(const options& o) {
  std::printf(
      "knobs: num_threads=%d io_threads=%d io_backend=%s mode=%s "
      "io_part_rows=%zu pcache_bytes=%zu prefetch_depth=%d "
      "max_inflight_write_bytes=%zu mem_budget_bytes=%zu max_inflight_io=%zu "
      "stripes=%d direct_io=%d io_throttle_mbps=%g io_checksum=%s "
      "obs_profile_history=%zu em_dir=%s\n",
      o.num_threads, o.io_threads, io_backend_kind_name(o.io_backend),
      exec_mode_name(o.mode), o.io_part_rows, o.pcache_bytes, o.prefetch_depth,
      o.max_inflight_write_bytes, o.mem_budget_bytes, o.max_inflight_io,
      o.stripes, o.direct_io ? 1 : 0, o.io_throttle_mbps,
      checksum_policy_name(o.io_checksum), o.obs_profile_history,
      o.em_dir.c_str());
}

/// Provenance of the numbers: core count, RAM, the ISA features the
/// kernels could use, and the build (read from cpuid and sysconf).
void print_machine() {
  __builtin_cpu_init();
  std::printf(
      "machine: nproc=%u ram_gib=%.1f l3_mib=%.0f avx2=%d fma=%d avx512f=%d "
      "build=%s,no-march\n",
      std::thread::hardware_concurrency(),
      static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
          static_cast<double>(sysconf(_SC_PAGESIZE)) / 1073741824.0,
      static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1048576.0,
      __builtin_cpu_supports("avx2") ? 1 : 0,
      __builtin_cpu_supports("fma") ? 1 : 0,
      __builtin_cpu_supports("avx512f") ? 1 : 0, PERFBENCH_BUILD_TYPE);
}

/// Write the SAFS files in `dir` to disk (outside the timed set-up), so the
/// fits start with none of the input dirty in the page cache: otherwise its
/// writeback, and the kernel's throttling of writers behind it, lands in
/// whichever fits happen to run when it starts. Returns the seconds taken.
double flush_dir(const std::string& dir) {
  const double t0 = now_s();
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::close(fd);
  }
  return now_s() - t0;
}

struct io_snapshot {
  std::uint64_t read_bytes, read_ops, write_bytes, write_ops, retries;
  static io_snapshot take() {
    const io_stats& s = io_stats::global();
    return {s.read_bytes.load(), s.read_ops.load(), s.write_bytes.load(),
            s.write_ops.load(), s.retries.load()};
  }
};

std::uint64_t counter(const char* name) {
  return obs::metrics_registry::global().value(name);
}

/// One fit's measurements.
struct fit_record {
  double wall = 0, cpu = 0, peak_mib = 0;
  bool ok = false;
  std::string why;
};

/// Runs fits and checks them: the first fit against the workload's
/// reference, every later one bit for bit against the first.
class fit_runner {
 public:
  fit_runner(workload& wl, long perturb) : wl_(wl), perturb_(perturb) {}

  fit_record run(const fit_trace& tr) {
    fit_record r;
    buffer_pool& pool = buffer_pool::global();
    const std::size_t base = pool.outstanding_bytes();
    pool.reset_peak();
    const double c0 = cpu_s(), t0 = now_s();
    fit_output out;
    try {
      out = wl_.fit(tr);
      r.wall = now_s() - t0;
      r.cpu = cpu_s() - c0;
      r.peak_mib = static_cast<double>(pool.peak_bytes() - base) / 1048576.0;
      if (attempted_ == perturb_ && !out.values.empty())
        out.values[0] = std::nextafter(out.values[0], INFINITY);
      r.why = check(out);
    } catch (const std::exception& e) {
      r.wall = now_s() - t0;
      r.cpu = cpu_s() - c0;
      r.why = std::string("threw: ") + e.what();
    }
    wl_.end_fit();
    r.ok = r.why.empty();
    ++attempted_;
    if (!r.ok) {
      ++failed_;
      std::printf("fit %ld FAILED: %s\n", attempted_ - 1, r.why.c_str());
    }
    return r;
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  std::string check(const fit_output& out) {
    if (out.iterations != wl_.expected_iterations())
      return "ran " + std::to_string(out.iterations) + " iterations, want " +
             std::to_string(wl_.expected_iterations());
    if (!have_first_) {
      first_ = out.values;
      have_first_ = true;
      return wl_.check_reference(out);
    }
    if (out.values.size() != first_.size() ||
        std::memcmp(out.values.data(), first_.data(),
                    first_.size() * sizeof(double)) != 0)
      return "result is not bit-identical to the run's first fit";
    return "";
  }

  workload& wl_;
  long perturb_;
  long attempted_ = 0, failed_ = 0;
  bool have_first_ = false;
  std::vector<double> first_;
};

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// Aggregates of the traced fits.
struct trace_totals {
  int fits = 0;
  std::size_t passes = 0;
  std::vector<double> pass_ms;
  std::vector<double> host_s;
  std::vector<double> fit_s;
  double thread_s = 0, kernel_s = 0, copy_s = 0, wait_s = 0, pass_wall_s = 0;
  double chunks = 0;
  std::uint64_t read_bytes = 0, read_ops = 0, write_bytes = 0, write_ops = 0;
  std::uint64_t admission_waits = 0, degrade_steps = 0;
  std::uint64_t reads_issued = 0;
  double occupancy_sum = 0;
  std::size_t occupancy_n = 0;
  double stall_s = 0;
  std::size_t write_hwm = 0;
  bool truncated = false;
};

void traced_fit(fit_runner& runner, span_log& log,
                std::uint64_t run_span, trace_totals& tt) {
  const auto fit_no = static_cast<std::uint64_t>(runner.attempted()) + 1;
  io_backend& iob = async_io::global();
  obs::profile_clear();
  const io_snapshot io0 = io_snapshot::take();
  const auto thr0 = iob.throttle_stats();
  iob.reset_throttle_hwm();
  const std::uint64_t q0 = counter("governor.queue_waits");
  const std::uint64_t d0 = counter("governor.degrade_steps");
  const std::uint64_t seq0 = obs::profile_pass_seq();

  std::vector<pass_io> own;
  const std::uint64_t fit_span = log.begin("fit", "ml", run_span, fit_no);
  const fit_record r = runner.run(fit_trace{&log, fit_span, fit_no, &own});
  log.end(fit_span);

  const std::vector<obs::pass_profile> hist = obs::profile_history();
  if (obs::profile_pass_seq() - seq0 > hist.size()) tt.truncated = true;
  double pass_wall = 0;
  for (const auto& p : hist) {
    const double wall = static_cast<double>(p.wall_ns) * 1e-9;
    pass_wall += wall;
    tt.pass_ms.push_back(wall * 1e3);
    tt.thread_s += wall * p.threads;
    tt.wait_s += static_cast<double>(p.io_wait_ns) * 1e-9;
    std::uint64_t chunks = 0;
    for (const auto& n : p.nodes) {
      tt.kernel_s += static_cast<double>(n.kernel_ns) * 1e-9;
      tt.copy_s += static_cast<double>(n.copy_ns) * 1e-9;
      chunks = std::max(chunks, n.chunks);
    }
    tt.chunks += static_cast<double>(chunks);
    // Passes the workload issued itself already have their own spans.
    if (own.empty()) log.add("pass", "exec", fit_span, fit_no, wall);
  }
  tt.passes += hist.size();
  tt.pass_wall_s += pass_wall;
  tt.host_s.push_back(r.wall - pass_wall);
  tt.fit_s.push_back(r.wall);
  for (const pass_io& p : own) {
    tt.write_hwm = std::max<std::size_t>(tt.write_hwm, p.write_hwm);
    tt.reads_issued += p.reads_issued;
    if (p.reads_issued > 0) {
      tt.occupancy_sum += p.occupancy;
      ++tt.occupancy_n;
    }
  }
  const io_snapshot io1 = io_snapshot::take();
  tt.read_bytes += io1.read_bytes - io0.read_bytes;
  tt.read_ops += io1.read_ops - io0.read_ops;
  tt.write_bytes += io1.write_bytes - io0.write_bytes;
  tt.write_ops += io1.write_ops - io0.write_ops;
  const auto thr1 = iob.throttle_stats();
  tt.stall_s += static_cast<double>(thr1.stall_ns - thr0.stall_ns) * 1e-9;
  tt.write_hwm = std::max(tt.write_hwm, thr1.hwm_bytes);
  tt.admission_waits += counter("governor.queue_waits") - q0;
  tt.degrade_steps += counter("governor.degrade_steps") - d0;
  ++tt.fits;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const args& a) {
  std::unique_ptr<workload> wl = make_workload(a.workload, a.seed, a.tiny);
  if (!wl) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage("unknown workload '" + a.workload + "' (known:" + names + ")");
  }
  namespace fs = std::filesystem;
  fs::remove_all(a.em_dir);
  fs::create_directories(a.em_dir);
  const options opts = engine_options(a);
  span_log log;
  span_log* tlog = a.trace ? &log : nullptr;
  const std::uint64_t run_span = tlog ? log.begin("run", "bench", 0, 0) : 0;

  // ---- set-up: engine init + generation + store, several times ----
  const int setup_reps = a.tiny ? 1 : 3;
  std::vector<double> setup_times;
  double flush_s = 0;
  for (int i = 0; i < setup_reps; ++i) {
    wl->drop();
    buffer_pool::global().trim();
    shutdown();
    {
      scoped_span s(tlog, "setup", "matrix", run_span, 0);
      const double t0 = now_s();
      init(opts);
      wl->setup();
      setup_times.push_back(now_s() - t0);
    }
    flush_s += flush_dir(a.em_dir);
  }
  print_machine();
  print_knobs(conf());
  std::printf("workload %s: seed %llu, %.1f MiB %s, %d threads, closed loop\n",
              wl->name(), static_cast<unsigned long long>(a.seed),
              static_cast<double>(wl->data_bytes()) / 1048576.0,
              wl->where() == storage::in_mem ? "in memory" : "on SAFS files",
              conf().num_threads);
  std::printf("setup_s samples:");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf(" (SAFS files flushed to disk after each, %.3f s untimed)\n",
              flush_s);

  const double ref_s = [&] {
    scoped_span s(tlog, "reference", "baseline", run_span, 0);
    return wl->reference();
  }();
  std::printf("reference computed (%.3f s, outside the timed region)\n", ref_s);

  // ---- untraced fits for --seconds ----
  fit_runner runner(*wl, a.perturb_fit);
  const io_snapshot io_run0 = io_snapshot::take();
  std::vector<fit_record> fits;
  const double t_end = now_s() + a.seconds;
  const std::size_t min_fits = a.tiny ? 2 : 1;
  while (fits.size() < min_fits || now_s() < t_end)
    fits.push_back(runner.run(fit_trace{}));
  std::vector<double> wall, cpu, peak;
  for (const auto& f : fits) {
    wall.push_back(f.wall);
    cpu.push_back(f.cpu);
    peak.push_back(f.peak_mib);
  }
  std::printf("fits: %zu, wall s:", fits.size());
  for (double w : wall) std::printf(" %.3f", w);
  std::printf("\n");
  const double fit_s = median(wall);
  const int threads = conf().num_threads;

  std::vector<metric> metrics;
  if (!a.trace) {
    const double fail_frac = static_cast<double>(runner.failed()) /
                             static_cast<double>(runner.attempted());
    metrics = {
        {"fit_s", fit_s, "s"},
        {"fit_cpu_s", median(cpu), "s"},
        {"peak_mem_mb", median(peak), "MiB"},
        {"setup_s", median(setup_times), "s"},
        {"ok_frac", 1.0 - fail_frac, "frac"},
    };
    std::printf("fail_frac %.6g (%ld of %ld fits)\n", fail_frac,
                runner.failed(), runner.attempted());
  } else {
    // ---- traced fits: spans + the engine's per-pass profiles ----
    trace_totals tt;
    obs::set_profile_enabled(true);
    for (int i = 0; i < 2; ++i) traced_fit(runner, log, run_span, tt);
    obs::set_profile_enabled(false);
    if (tt.truncated)
      std::printf("warning: the profile history ring dropped passes\n");

    // ---- one fit on one thread ----
    mutable_conf().num_threads = 1;
    const fit_record one = runner.run(fit_trace{});
    mutable_conf().num_threads = threads;

    const double rs_s = [&] {
      scoped_span s(tlog, "rowstream", "baseline", run_span, 0);
      return wl->rowstream_fit_s();
    }();
    const double retries = static_cast<double>(io_snapshot::take().retries -
                                               io_run0.retries);
    const shapes sh = wl->probe_shapes();
    wl->drop();
    const std::vector<probe_result> probes =
        run_probes(sh, wl->where(), tlog, run_span);

    const double fits_n = tt.fits;
    const double thread_s = std::max(tt.thread_s, 1e-12);
    const double pass_wall = std::max(tt.pass_wall_s, 1e-12);
    const double kernel = tt.kernel_s / thread_s, copy = tt.copy_s / thread_s,
                 wait = tt.wait_s / thread_s;
    const double passes_per_fit = static_cast<double>(tt.passes) / fits_n;
    metrics = {
        {"ml.passes_per_fit", passes_per_fit, "count"},
        {"ml.host_s", median(tt.host_s), "s"},
        {"exec.pass_ms_p50", quantile(tt.pass_ms, 0.5), "ms"},
        {"exec.pass_ms_p90", quantile(tt.pass_ms, 0.9), "ms"},
        {"exec.kernel_frac", kernel, "frac"},
        {"exec.copy_frac", copy, "frac"},
        {"exec.other_frac", 1.0 - kernel - copy - wait, "frac"},
        {"exec.chunks_per_pass",
         tt.passes ? tt.chunks / static_cast<double>(tt.passes) : 0.0,
         "count"},
        {"governor.admission_waits",
         static_cast<double>(tt.admission_waits) / fits_n, "count"},
        {"governor.degrade_steps",
         static_cast<double>(tt.degrade_steps) / fits_n, "count"},
        {"prefetch.read_wait_frac", wait, "frac"},
        {"prefetch.occupancy",
         tt.occupancy_n ? tt.occupancy_sum / static_cast<double>(tt.occupancy_n)
                        : 0.0,
         "partitions"},
        {"prefetch.reads_issued", static_cast<double>(tt.reads_issued) / fits_n,
         "count"},
        {"io.read_gbps", static_cast<double>(tt.read_bytes) / pass_wall / 1e9,
         "GB/s"},
        {"io.write_gbps", static_cast<double>(tt.write_bytes) / pass_wall / 1e9,
         "GB/s"},
        {"io.bytes_per_read_kb",
         tt.read_ops ? static_cast<double>(tt.read_bytes) /
                           static_cast<double>(tt.read_ops) / 1024.0
                     : 0.0,
         "KiB"},
        {"io.bytes_per_write_kb",
         tt.write_ops ? static_cast<double>(tt.write_bytes) /
                            static_cast<double>(tt.write_ops) / 1024.0
                      : 0.0,
         "KiB"},
        {"io.write_stall_frac", tt.stall_s / pass_wall, "frac"},
        {"io.write_inflight_hwm_mb",
         static_cast<double>(tt.write_hwm) / 1048576.0, "MiB"},
        {"io.retries", retries, "count"},
    };
    for (const probe_result& p : probes)
      metrics.push_back({p.name, p.value, p.unit});
    metrics.push_back({"blas.gflop_per_fit",
                       sh.gflop_fixed + sh.gflop_per_pass * passes_per_fit,
                       "GFLOP"});
    metrics.push_back(
        {"parallel.cpu_util", median(cpu) / (fit_s * threads), "frac"});
    metrics.push_back({"parallel.speedup_4t", one.wall / fit_s, "x"});
    metrics.push_back({"baseline.rowstream_fit_s", rs_s, "s"});
    metrics.push_back({"baseline.flashr_over_rowstream", fit_s / rs_s, "x"});
    metrics.push_back(
        {"trace.overhead_frac", median(tt.fit_s) / fit_s - 1.0, "frac"});
    metrics.push_back({"fail_frac",
                       static_cast<double>(runner.failed()) /
                           static_cast<double>(runner.attempted()),
                       "frac"});
    log.end(run_span);

    std::printf("self time by layer (s):");
    for (const auto& [layer, s] : log.self_time_by_layer())
      std::printf(" %s=%.3f", layer.c_str(), s);
    std::printf("\n");
    fs::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::ofstream(path) << log.to_json() << "\n";
    std::printf("spans written to %s\n", path.c_str());
  }
  wl.reset();
  fs::remove_all(a.em_dir);

  for (const metric& m : metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string js = "{\"correct\": ";
  js += runner.failed() == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(runner.attempted());
  js += ", \"failed\": " + std::to_string(runner.failed());
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) js += ", ";
    js += "\"" + metrics[i].name + "\": {\"value\": " +
          json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
          "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}

}  // namespace

// ---- span_log out-of-line members ----

std::vector<std::pair<std::string, double>> span_log::self_time_by_layer()
    const {
  std::vector<double> child(spans_.size() + 1, 0.0);
  for (const span& s : spans_)
    if (s.parent) child[s.parent] += s.dur;
  std::map<std::string, double> by;
  for (const span& s : spans_) by[s.layer] += s.dur - child[s.id];
  return {by.begin(), by.end()};
}

std::string span_log::to_json() const {
  std::string js = "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (i) js += ",";
    js += "\n {\"id\": " + std::to_string(s.id) +
          ", \"parent\": " + std::to_string(s.parent) +
          ", \"fit\": " + std::to_string(s.fit) + ", \"name\": \"" + s.name +
          "\", \"layer\": \"" + s.layer + "\", \"t0_s\": " +
          (s.t0 < 0 ? std::string("null") : json_number(s.t0)) +
          ", \"dur_s\": " + json_number(s.dur) + "}";
  }
  js += "],\n \"self_s\": {";
  bool first = true;
  for (const auto& [layer, s] : self_time_by_layer()) {
    js += (first ? "\"" : ", \"") + layer + "\": " + json_number(s);
    first = false;
  }
  js += "}}";
  return js;
}

}  // namespace pb

int main(int argc, char** argv) {
  const pb::args a = pb::parse(argc, argv);
  try {
    return pb::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(a.em_dir);
    return 1;
  }
}
