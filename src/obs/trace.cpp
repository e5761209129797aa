#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "obs/sampler.h"

namespace flashr::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

namespace {

/// One 32-byte record: {ts_ns, name pointer, kind, arg}. The words are
/// relaxed atomics so a concurrent flush reading a slot the writer is
/// overwriting is a benign (and discarded — see trace_json) race, not UB.
struct trace_slot {
  std::atomic<std::uint64_t> w[4];
};
static_assert(sizeof(trace_slot) == 32, "trace records are 32 bytes");

struct trace_ring {
  explicit trace_ring(std::size_t cap) : slots(cap), mask(cap - 1) {}

  std::vector<trace_slot> slots;  // capacity fixed at registration
  const std::uint64_t mask;
  /// Monotonic record count; the writer stores slot words first, then
  /// publishes with a release store here. slots[i & mask] holds record i.
  std::atomic<std::uint64_t> head{0};
  int tid = 0;
  std::string name;  // thread label; written via registry lock or owner
};

struct trace_registry {
  mutex trace_mtx LOCK_RANK(trace_registry);
  std::vector<std::shared_ptr<trace_ring>> rings GUARDED_BY(trace_mtx);
  int next_tid GUARDED_BY(trace_mtx) = 1;
  /// Bumped by trace_clear(); threads re-register when their cached epoch
  /// is stale, so cleared rings are never written again.
  std::atomic<std::uint64_t> epoch{1};
  /// Dropped counts of rings discarded by trace_clear() (kept so
  /// trace_dropped() never goes backwards within an epoch... it resets).
};

trace_registry& registry() {
  static trace_registry* r = new trace_registry();  // leaked: rings must
  return *r;                                        // outlive exiting threads
}

struct tls_ring {
  std::shared_ptr<trace_ring> ring;
  std::uint64_t epoch = 0;
  std::string pending_name;  // set_thread_name before first event
};

thread_local tls_ring t_ring;

trace_ring& local_ring() {
  trace_registry& reg = registry();
  const std::uint64_t e = reg.epoch.load(std::memory_order_relaxed);
  if (t_ring.epoch != e) {
    std::size_t cap = conf().obs_ring_events;
    if (cap < 16) cap = 16;
    auto ring = std::make_shared<trace_ring>(cap);
    mutex_lock lock(reg.trace_mtx);
    ring->tid = reg.next_tid++;
    if (!t_ring.pending_name.empty()) ring->name = t_ring.pending_name;
    reg.rings.push_back(ring);
    t_ring.ring = std::move(ring);
    t_ring.epoch = e;
  }
  return *t_ring.ring;
}

std::uint64_t ring_dropped(const trace_ring& r, std::uint64_t head) {
  const std::uint64_t cap = r.mask + 1;
  return head > cap ? head - cap : 0;
}

/// Decoded record used by the flush path.
struct event_rec {
  std::uint64_t ts = 0;
  const char* name = nullptr;
  event_kind kind = event_kind::instant;
  std::uint64_t arg = 0;
};

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
}

void append_event(std::string& out, const event_rec& ev, int tid) {
  const char* ph = ev.kind == event_kind::begin     ? "B"
                   : ev.kind == event_kind::end     ? "E"
                   : ev.kind == event_kind::counter ? "C"
                                                    : "i";
  char buf[160];
  out += "{\"name\":\"";
  append_escaped(out, ev.name == nullptr ? "?" : ev.name);
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"flashr\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f",
                ph, tid, static_cast<double>(ev.ts) / 1e3);
  out += buf;
  if (ev.kind == event_kind::instant) out += ",\"s\":\"t\"";
  if (ev.kind != event_kind::end) {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"v\":%" PRIu64 "}", ev.arg);
    out += buf;
  }
  out += "}";
}

/// Steady-state record path: four relaxed stores and one release publish
/// into a ring that already exists. Lock-free and allocation-free, so it
/// is safe from any context, including async-I/O completions — and the
/// analyzer holds it to that.
void record_slot(trace_slot* slots, std::uint64_t mask,
                 std::atomic<std::uint64_t>& head, event_kind kind,
                 const char* name, std::uint64_t arg) FLASHR_NONBLOCKING;

void record_slot(trace_slot* slots, std::uint64_t mask,
                 std::atomic<std::uint64_t>& head, event_kind kind,
                 const char* name, std::uint64_t arg) {
  const std::uint64_t i = head.load(std::memory_order_relaxed);
  trace_slot& s = slots[i & mask];
  s.w[0].store(now_ns(), std::memory_order_relaxed);
  s.w[1].store(reinterpret_cast<std::uintptr_t>(name),
               std::memory_order_relaxed);
  s.w[2].store(static_cast<std::uint64_t>(kind), std::memory_order_relaxed);
  s.w[3].store(arg, std::memory_order_relaxed);
  head.store(i + 1, std::memory_order_release);
}

}  // namespace

// Blocking-exempt rationale: the slow path (local_ring) registers this
// thread's ring — one allocation plus the registry lock, once per thread
// per epoch. Threads that enter nonblocking contexts (the I/O service
// threads) pre-register via ensure_thread_ring() at startup, so in steady
// state emit() from a completion is record_slot() alone.
FLASHR_BLOCKING_EXEMPT(
    "once-per-thread ring registration; I/O threads pre-register via "
    "ensure_thread_ring")
void emit(event_kind kind, const char* name, std::uint64_t arg) {
  if (!trace_on()) return;
  trace_ring& r = local_ring();
  record_slot(r.slots.data(), r.mask, r.head, kind, name, arg);
}

void ensure_thread_ring() {
  if (trace_on()) (void)local_ring();
}

void set_thread_name(const char* name) {
  t_ring.pending_name = name;
  if (t_ring.ring) {
    mutex_lock lock(registry().trace_mtx);
    t_ring.ring->name = name;
  }
  // Every named engine thread is also a sampler track; the sampler copies
  // the name and records this thread's stack bounds for its stack walk.
  sampler_thread_attach(name);
}

std::string trace_json(trace_summary* summary) {
  trace_summary sum;
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit_line = [&](const std::string& line) {
    if (!first) out += ",\n";
    out += line;
    first = false;
  };

  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  for (const auto& ring : reg.rings) {
    const std::uint64_t cap = ring->mask + 1;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t lo = head > cap ? head - cap : 0;

    // Snapshot the live region, then re-read the head: any slot a still-
    // running writer may have overwritten during the copy (index < head2 -
    // cap) is discarded rather than interpreted as a torn record.
    std::vector<event_rec> evs;
    evs.reserve(static_cast<std::size_t>(head - lo));
    for (std::uint64_t i = lo; i < head; ++i) {
      const trace_slot& s = ring->slots[i & ring->mask];
      event_rec ev;
      ev.ts = s.w[0].load(std::memory_order_relaxed);
      ev.name = reinterpret_cast<const char*>(
          static_cast<std::uintptr_t>(s.w[1].load(std::memory_order_relaxed)));
      ev.kind = static_cast<event_kind>(s.w[2].load(std::memory_order_relaxed));
      ev.arg = s.w[3].load(std::memory_order_relaxed);
      evs.push_back(ev);
    }
    const std::uint64_t head2 = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo2 = head2 > cap ? head2 - cap : 0;
    std::size_t skip = lo2 > lo ? static_cast<std::size_t>(lo2 - lo) : 0;
    if (skip > evs.size()) skip = evs.size();

    // Thread metadata first, so Perfetto labels the track.
    {
      std::string name = ring->name.empty()
                             ? "thread-" + std::to_string(ring->tid)
                             : ring->name;
      std::string line = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                         "\"tid\":" + std::to_string(ring->tid) +
                         ",\"args\":{\"name\":\"";
      append_escaped(line, name.c_str());
      line += "\"}}";
      emit_line(line);
    }

    // Re-pair spans: drop ends whose begin was overwritten, close spans
    // still open at flush, so the JSON is always balanced.
    std::vector<const event_rec*> open;
    std::uint64_t last_ts = 0;
    std::string line;
    for (std::size_t i = skip; i < evs.size(); ++i) {
      const event_rec& ev = evs[i];
      last_ts = ev.ts;
      if (ev.kind == event_kind::end) {
        if (open.empty()) continue;  // begin lost to ring wrap
        open.pop_back();
      } else if (ev.kind == event_kind::begin) {
        open.push_back(&ev);
      }
      line.clear();
      append_event(line, ev, ring->tid);
      emit_line(line);
      ++sum.events;
    }
    for (std::size_t i = open.size(); i > 0; --i) {
      event_rec ev = *open[i - 1];
      ev.kind = event_kind::end;
      ev.ts = last_ts;
      line.clear();
      append_event(line, ev, ring->tid);
      emit_line(line);
      ++sum.events;
    }

    sum.dropped += ring_dropped(*ring, head2) + skip;
    ++sum.threads;
  }

  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "\n],\"otherData\":{\"dropped\":%zu,\"threads\":%zu}}\n",
                sum.dropped, sum.threads);
  out += tail;
  if (summary != nullptr) *summary = sum;
  return out;
}

trace_summary write_trace(const std::string& path) {
  trace_summary sum;
  const std::string json = trace_json(&sum);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    FLASHR_WARN("obs: cannot write trace to %s", path.c_str());
    return trace_summary{};
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return sum;
}

void trace_clear() {
  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  reg.rings.clear();
  reg.next_tid = 1;
  reg.epoch.fetch_add(1, std::memory_order_relaxed);
}

std::size_t trace_dropped() {
  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  std::size_t dropped = 0;
  for (const auto& ring : reg.rings)
    dropped += ring_dropped(*ring, ring->head.load(std::memory_order_acquire));
  return dropped;
}

}  // namespace flashr::obs
