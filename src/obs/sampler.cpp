// Continuous sampling profiler — see sampler.h for the architecture.
//
// Split of responsibilities:
//   * SIGPROF handler (async-signal-safe, FLASHR_SIGNAL_SAFE-verified):
//     reads thread-local state only, walks the frame-pointer chain within
//     the stack bounds captured at attach time, and publishes one record
//     into the owning thread's SPSC ring. Ring-full drops the NEWEST
//     sample (one counter bump) — the opposite of the trace ring's
//     overwrite-oldest, because a profile must never lose the steady state
//     to a burst.
//   * attach/detach (normal context): stack bounds via pthread_getattr_np
//     (allocates — must never run in the handler), per-thread POSIX timer
//     (timer_create + SIGEV_THREAD_ID), slot reuse so repeated thread-pool
//     rebuilds across a long test run cannot exhaust the registry.
//   * collector thread: drains every ring ~20x/s under the sampler mutex
//     (rank 770) and folds records into (stack, state)- and
//     (pass, node, state)-keyed aggregates.
//   * export (normal context): symbolization (dladdr + __cxa_demangle,
//     cached per pc) happens only here, far from any signal.
#include "obs/sampler.h"

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <map>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "common/thread_safety.h"
#include "obs/metrics.h"

// SIGEV_THREAD_ID (timer signals delivered to one specific thread) is
// Linux-specific; glibc spells the sigevent field through a union and only
// names it under _GNU_SOURCE.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace flashr::obs {

namespace detail {
std::atomic<std::uint32_t> g_sample_hz{0};
thread_local sample_tls_ctx t_sample_ctx;
}  // namespace detail

namespace {

constexpr int kMaxFrames = 28;     ///< deep enough for exec -> kernel chains
constexpr int kMaxThreads = 256;   ///< attached-thread registry slots
constexpr std::uint64_t kRingCap = 256;  ///< per-thread pending samples
static_assert((kRingCap & (kRingCap - 1)) == 0, "ring capacity: power of 2");

/// One sample as written by the signal handler.
struct samp_rec {
  std::uint32_t pass = 0;     ///< sampler_new_pass() token; 0 = none
  std::int32_t node = -1;     ///< executor plan-node id; -1 = none
  std::uint16_t state = 0;    ///< sample_state
  std::uint16_t nframes = 0;
  std::uintptr_t pcs[kMaxFrames] = {};  ///< leaf first
};

/// SPSC ring: producer = the SIGPROF handler on the owning thread,
/// consumer = the collector (or detach/export paths) under the sampler
/// mutex. Slots are plain memory ordered by the release/acquire pair on
/// head (publish) and tail (reclaim).
struct samp_ring {
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};  ///< ring-full (newest dropped)
  samp_rec slots[kRingCap];
};

/// Registry slot for one attached thread. Registration fields are guarded
/// by the sampler mutex; `ring` is an atomic pointer because the handler
/// reads it with no lock.
struct samp_thread {
  std::atomic<samp_ring*> ring{nullptr};
  char track[32] = {};                 ///< thread name ("worker-3", "io-0")
  std::uintptr_t stack_lo = 0;         ///< [lo, hi) bounds for the walk
  std::uintptr_t stack_hi = 0;
  pid_t tid = 0;
  timer_t timer{};
  bool timer_created = false;
  bool used = false;                   ///< slot owned by a live thread
  std::uint64_t drained_dropped = 0;   ///< drop count already accounted
};

/// One folded stack's aggregate.
struct stack_agg {
  std::string track;
  std::uint8_t state = 0;
  std::vector<std::uintptr_t> pcs;  ///< leaf first
  std::uint64_t count = 0;
};

struct sampler_state {
  mutex samp_mtx LOCK_RANK(sampler);
  samp_thread threads[kMaxThreads];
  /// Folded aggregates keyed by (state, track, raw pcs) packed into a
  /// string — parsed back never; the value carries the display fields.
  std::unordered_map<std::string, stack_agg> stacks GUARDED_BY(samp_mtx);
  /// (pass, node) -> [cpu, io_wait, lock_wait] sample counts.
  std::map<std::pair<std::uint32_t, std::int32_t>,
           std::array<std::uint64_t, 3>> nodes GUARDED_BY(samp_mtx);
  std::unordered_map<std::uintptr_t, std::string> symcache GUARDED_BY(samp_mtx);
  std::thread collector;
  bool collector_running GUARDED_BY(samp_mtx) = false;
  std::atomic<bool> collector_stop{false};
  std::atomic<std::uint64_t> period_ns{0};
  std::atomic<std::uint64_t> samples_total{0};
  std::atomic<std::uint64_t> dropped_total{0};
  std::atomic<std::uint32_t> pass_seq{0};
};

/// Leaked singleton: TLS detach guards run at arbitrary thread-exit times,
/// including after static destructors on the main thread would have run.
sampler_state& S() {
  static sampler_state* s = new sampler_state;
  return *s;
}

/// The handler's view of "this thread's slot". Plain pointer (constant
/// initialization — no TLS guard in the signal path).
thread_local samp_thread* t_samp = nullptr;

void sampler_thread_detach();

/// Arms the detach-on-thread-exit hook once odr-used by attach.
struct samp_detach_guard {
  bool armed = false;
  ~samp_detach_guard() {
    if (armed) sampler_thread_detach();
  }
};
thread_local samp_detach_guard t_samp_guard;

/// Frame-pointer chain walk, bounded by the stack extent captured at
/// attach. Requires -fno-omit-frame-pointer (set project-wide); frames
/// from foreign code without frame pointers just terminate the walk early.
/// no_sanitize("address"): the walk dereferences this thread's own live
/// stack, which ASan fakestack/redzone bookkeeping may otherwise flag.
FLASHR_SIGNAL_SAFE
#if defined(__clang__) || defined(__GNUC__)
__attribute__((no_sanitize_address))
#endif
std::uint16_t
walk_stack(void* ucv, std::uintptr_t lo, std::uintptr_t hi,
           std::uintptr_t* pcs, int max) noexcept {
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucv);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucv);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)ucv;
  pc = reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
#endif
  int n = 0;
  if (pc > 4096 && n < max) pcs[n++] = pc;
  constexpr std::uintptr_t kWord = sizeof(std::uintptr_t);
  while (n < max && fp >= lo && fp + 2 * kWord <= hi &&
         (fp & (kWord - 1)) == 0) {
    const std::uintptr_t* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret <= 4096) break;
    pcs[n++] = ret;
    if (next_fp <= fp) break;  // chain must walk strictly toward the base
    fp = next_fp;
  }
  return static_cast<std::uint16_t>(n);
}

/// The SIGPROF handler. Reads only thread-local and per-thread SPSC state;
/// no locks, no allocation, no library I/O — verified by the analyzer's
/// FLASHR_SIGNAL_SAFE rules.
FLASHR_SIGNAL_SAFE
void samp_on_signal(int, siginfo_t*, void* ucv) noexcept {
  const int saved_errno = errno;
  samp_thread* st = t_samp;
  if (st != nullptr &&
      detail::g_sample_hz.load(std::memory_order_relaxed) != 0) {
    samp_ring* ring = st->ring.load(std::memory_order_acquire);
    if (ring != nullptr) {
      const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
      const std::uint64_t t = ring->tail.load(std::memory_order_acquire);
      if (h - t >= kRingCap) {
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        samp_rec& r = ring->slots[h & (kRingCap - 1)];
        r.pass = detail::t_sample_ctx.pass.load(std::memory_order_relaxed);
        r.node = detail::t_sample_ctx.node.load(std::memory_order_relaxed);
        r.state = detail::t_sample_ctx.state.load(std::memory_order_relaxed);
        r.nframes =
            walk_stack(ucv, st->stack_lo, st->stack_hi, r.pcs, kMaxFrames);
        ring->head.store(h + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

void install_handler_once() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = samp_on_signal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

void copy_track(char (&dst)[32], const char* src) {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < sizeof(dst); ++i) dst[i] = src[i];
  dst[i] = '\0';
}

/// Create (once) and arm this slot's per-thread timer at `hz`. First fire
/// is staggered by a tid-derived offset so attached threads do not sample
/// in lockstep.
bool arm_timer_locked(samp_thread& st, int hz) {
  if (!st.timer_created) {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = st.tid;
    if (::timer_create(CLOCK_MONOTONIC, &sev, &st.timer) != 0) return false;
    st.timer_created = true;
  }
  const long period = 1'000'000'000L / hz;
  struct itimerspec its;
  its.it_interval.tv_sec = period / 1'000'000'000L;
  its.it_interval.tv_nsec = period % 1'000'000'000L;
  const long off = period / 4 + (st.tid % 64) * (period / 64) + 1;
  its.it_value.tv_sec = off / 1'000'000'000L;
  its.it_value.tv_nsec = off % 1'000'000'000L;
  return ::timer_settime(st.timer, 0, &its, nullptr) == 0;
}

/// Fold one drained record into the aggregates (sampler mutex held).
void fold_locked(sampler_state& s, const char* track, const samp_rec& r) {
  std::string key;
  key.reserve(2 + sizeof(((samp_thread*)nullptr)->track) +
              r.nframes * sizeof(std::uintptr_t));
  key.push_back(static_cast<char>(r.state));
  key.append(track);
  key.push_back('\0');
  key.append(reinterpret_cast<const char*>(r.pcs),
             r.nframes * sizeof(std::uintptr_t));
  auto [it, fresh] = s.stacks.try_emplace(std::move(key));
  stack_agg& a = it->second;
  if (fresh) {
    a.track = track;
    a.state = static_cast<std::uint8_t>(r.state);
    a.pcs.assign(r.pcs, r.pcs + r.nframes);
  }
  a.count += 1;
  auto& n = s.nodes[{r.pass, r.node}];
  n[r.state < 3 ? r.state : 0] += 1;
  s.samples_total.fetch_add(1, std::memory_order_relaxed);
}

/// Drain one thread's ring into the aggregates (sampler mutex held).
void drain_ring_locked(sampler_state& s, samp_thread& st) {
  samp_ring* ring = st.ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t h = ring->head.load(std::memory_order_acquire);
  std::uint64_t t = ring->tail.load(std::memory_order_relaxed);
  for (; t != h; ++t)
    fold_locked(s, st.track, ring->slots[t & (kRingCap - 1)]);
  ring->tail.store(h, std::memory_order_release);
  const std::uint64_t d = ring->dropped.load(std::memory_order_relaxed);
  if (d > st.drained_dropped) {
    s.dropped_total.fetch_add(d - st.drained_dropped,
                              std::memory_order_relaxed);
    st.drained_dropped = d;
  }
}

void drain_all_locked(sampler_state& s) {
  for (auto& st : s.threads)
    if (st.used) drain_ring_locked(s, st);
}

void collector_main() {
  auto& s = S();
  while (!s.collector_stop.load(std::memory_order_relaxed)) {
    {
      mutex_lock lock(s.samp_mtx);
      drain_all_locked(s);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  mutex_lock lock(s.samp_mtx);
  drain_all_locked(s);
}

/// Best symbol for `pc`, cached (sampler mutex held). Demangled names are
/// stripped of their argument list and return type and squeezed into one
/// folded-format token (no spaces or semicolons).
const std::string& sym_locked(sampler_state& s, std::uintptr_t pc) {
  auto it = s.symcache.find(pc);
  if (it != s.symcache.end()) return it->second;
  std::string name;
  Dl_info info;
  if (::dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* dem =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
    const std::size_t paren = name.find('(');
    if (paren != std::string::npos) name.resize(paren);
    // Drop a leading return type ("void flashr::..."), but not the spaces
    // inside template arguments that precede the function name itself.
    const std::size_t sp = name.rfind(' ');
    if (sp != std::string::npos && sp + 1 < name.size() &&
        name.find('<') > sp)
      name.erase(0, sp + 1);
    for (char& c : name)
      if (c == ' ' || c == ';' || c == '\t') c = '_';
    if (name.empty()) name = "?";
  } else {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<std::size_t>(pc));
    name = buf;
  }
  return s.symcache.emplace(pc, std::move(name)).first->second;
}

/// One folded line (no trailing newline): track;state;outer;...;inner.
std::string folded_frames_locked(sampler_state& s, const stack_agg& a) {
  std::string line = a.track.empty() ? "thread" : a.track;
  line += ';';
  line += sample_state_name(static_cast<sample_state>(a.state));
  for (std::size_t i = a.pcs.size(); i > 0; --i) {
    line += ';';
    line += sym_locked(s, a.pcs[i - 1]);
  }
  return line;
}

void sampler_thread_detach() {
  samp_thread* st = t_samp;
  if (st == nullptr) return;
  auto& s = S();
  mutex_lock lock(s.samp_mtx);
  if (st->timer_created) {
    ::timer_delete(st->timer);
    st->timer_created = false;
  }
  t_samp = nullptr;  // a queued SIGPROF past this point records nothing
  drain_ring_locked(s, *st);
  st->used = false;  // ring is retained for the next thread to reuse
}

}  // namespace

void sampler_thread_attach(const char* track) {
  if (track == nullptr) return;
  auto& s = S();
  if (t_samp != nullptr) {  // already attached: rename only
    mutex_lock lock(s.samp_mtx);
    copy_track(t_samp->track, track);
    return;
  }
  // Touch the sampling TLS from normal context so the first SIGPROF on
  // this thread never pays a TLS materialization inside the handler.
  (void)detail::t_sample_ctx.state.load(std::memory_order_relaxed);
  // Stack bounds for the handler's walk; pthread_getattr_np allocates,
  // which is exactly why it happens here and never in the handler.
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  pthread_attr_t attr;
  if (::pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (::pthread_attr_getstack(&attr, &base, &size) == 0) {
      lo = reinterpret_cast<std::uintptr_t>(base);
      hi = lo + size;
    }
    ::pthread_attr_destroy(&attr);
  }
  mutex_lock lock(s.samp_mtx);
  samp_thread* st = nullptr;
  for (auto& cand : s.threads)
    if (!cand.used) {
      st = &cand;
      break;
    }
  if (st == nullptr) return;  // registry full: this thread goes unsampled
  drain_ring_locked(s, *st);  // stray records from the slot's previous owner
  st->used = true;
  copy_track(st->track, track);
  st->stack_lo = lo;
  st->stack_hi = hi;
  st->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  st->drained_dropped = 0;
  if (samp_ring* ring = st->ring.load(std::memory_order_relaxed)) {
    ring->head.store(0, std::memory_order_relaxed);
    ring->tail.store(0, std::memory_order_relaxed);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  t_samp = st;
  t_samp_guard.armed = true;
  const int hz =
      static_cast<int>(detail::g_sample_hz.load(std::memory_order_relaxed));
  if (hz > 0) {
    if (st->ring.load(std::memory_order_relaxed) == nullptr)
      st->ring.store(new samp_ring, std::memory_order_release);
    arm_timer_locked(*st, hz);
  }
}

void sampler_start(int hz) {
  if (hz <= 0) return;
  auto& s = S();
  install_handler_once();
  if (t_samp == nullptr) sampler_thread_attach("main");
  std::thread spawn;
  {
    mutex_lock lock(s.samp_mtx);
    s.period_ns.store(1'000'000'000ULL / static_cast<std::uint64_t>(hz),
                      std::memory_order_relaxed);
    detail::g_sample_hz.store(static_cast<std::uint32_t>(hz),
                              std::memory_order_relaxed);
    for (auto& st : s.threads) {
      if (!st.used) continue;
      if (st.ring.load(std::memory_order_relaxed) == nullptr)
        st.ring.store(new samp_ring, std::memory_order_release);
      if (!arm_timer_locked(st, hz))
        FLASHR_WARN("sampler: failed to arm timer for %s (tid %d)",
                    st.track, static_cast<int>(st.tid));
    }
    if (!s.collector_running) {
      s.collector_stop.store(false, std::memory_order_relaxed);
      s.collector = std::thread(collector_main);
      s.collector_running = true;
    }
  }
}

void sampler_stop() {
  auto& s = S();
  std::thread joiner;
  {
    mutex_lock lock(s.samp_mtx);
    if (detail::g_sample_hz.load(std::memory_order_relaxed) == 0 &&
        !s.collector_running)
      return;
    detail::g_sample_hz.store(0, std::memory_order_relaxed);
    struct itimerspec zero;
    std::memset(&zero, 0, sizeof(zero));
    for (auto& st : s.threads)
      if (st.used && st.timer_created)
        ::timer_settime(st.timer, 0, &zero, nullptr);
    if (s.collector_running) {
      s.collector_stop.store(true, std::memory_order_relaxed);
      joiner = std::move(s.collector);
      s.collector_running = false;
    }
  }
  if (joiner.joinable()) joiner.join();
  mutex_lock lock(s.samp_mtx);
  drain_all_locked(s);
}

void sampler_clear() {
  auto& s = S();
  mutex_lock lock(s.samp_mtx);
  for (auto& st : s.threads) {
    if (samp_ring* ring = st.ring.load(std::memory_order_relaxed)) {
      ring->tail.store(ring->head.load(std::memory_order_acquire),
                       std::memory_order_release);
      st.drained_dropped = ring->dropped.load(std::memory_order_relaxed);
    }
  }
  s.stacks.clear();
  s.nodes.clear();
  s.samples_total.store(0, std::memory_order_relaxed);
  s.dropped_total.store(0, std::memory_order_relaxed);
}

sampler_counters sampler_stats() {
  auto& s = S();
  sampler_counters c;
  c.samples = s.samples_total.load(std::memory_order_relaxed);
  c.dropped = s.dropped_total.load(std::memory_order_relaxed);
  c.hz = detail::g_sample_hz.load(std::memory_order_relaxed);
  return c;
}

std::uint32_t sampler_new_pass() {
  auto& s = S();
  std::uint32_t p = s.pass_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (p == 0) p = s.pass_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  return p;
}

std::vector<node_samples> sampler_pass_samples(std::uint32_t pass,
                                               std::uint64_t* period_ns) {
  auto& s = S();
  mutex_lock lock(s.samp_mtx);
  drain_all_locked(s);  // include samples taken milliseconds ago
  if (period_ns != nullptr)
    *period_ns = s.period_ns.load(std::memory_order_relaxed);
  std::vector<node_samples> out;
  for (const auto& [key, counts] : s.nodes) {
    if (pass != 0 && key.first != pass) continue;
    node_samples ns;
    ns.pass = key.first;
    ns.node = key.second;
    ns.cpu = counts[0];
    ns.io_wait = counts[1];
    ns.lock_wait = counts[2];
    out.push_back(ns);
  }
  return out;
}

std::string folded_stacks() {
  auto& s = S();
  mutex_lock lock(s.samp_mtx);
  drain_all_locked(s);
  // Distinct pc sets can symbolize to the same frame chain (pcs land at
  // different offsets within one function), so counts are merged by
  // rendered line — a folded file must not repeat a stack. std::map keeps
  // the output sorted.
  std::map<std::string, std::uint64_t> merged;
  for (const auto& [key, agg] : s.stacks) {
    if (agg.count == 0) continue;
    merged[folded_frames_locked(s, agg)] += agg.count;
  }
  std::string out;
  for (const auto& [line, count] : merged) {
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

folded_summary write_folded(const std::string& path) {
  const std::string body = folded_stacks();
  folded_summary sum;
  const sampler_counters c = sampler_stats();
  sum.samples = c.samples;
  sum.dropped = c.dropped;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    FLASHR_WARN("sampler: cannot write folded stacks to %s", path.c_str());
    return sum;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  for (char ch : body)
    if (ch == '\n') sum.lines += 1;
  FLASHR_INFO("sampler: wrote %zu folded stacks (%llu samples, %llu dropped) "
              "to %s",
              sum.lines, static_cast<unsigned long long>(sum.samples),
              static_cast<unsigned long long>(sum.dropped), path.c_str());
  return sum;
}

void sampler_register_metrics() {
  auto& reg = metrics_registry::global();
  reg.register_probe("sampler.samples",
                     [] { return sampler_stats().samples; });
  reg.register_probe("sampler.drops", [] { return sampler_stats().dropped; });
}

}  // namespace flashr::obs
