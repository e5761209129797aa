// Runtime half of the lock-rank hierarchy (see thread_safety.h for the
// table and the rule). Each thread keeps a small stack of the ranked
// flashr::mutexes it holds, in acquisition order; acquiring a mutex whose
// rank is not strictly greater than everything held is a latent deadlock
// and aborts immediately with both lock names.
//
// The stack is a plain thread_local that only its own thread reads or
// writes, so the checker's fast path is allocation- and lock-free (it runs
// inside mutex::lock, including from async-I/O completion contexts). It is
// trivially destructible and constant-initialized, so it stays usable for
// the whole thread teardown, including locks taken by later thread_local
// destructors and, on the main thread, by static destructors. Depth 16 is
// 4x the deepest chain the engine can form (watchdog -> prefetch window is
// 2; the metrics path peaks at 3).

#include "common/thread_safety.h"

#include <cstdio>

#include "common/error.h"

namespace flashr::detail {

namespace {

constexpr int kMaxHeld = 16;

struct rank_stack {
  int depth;
  const void* m[kMaxHeld];
  const lock_rank::rank_t* rank[kMaxHeld];
};

thread_local rank_stack t_held{};

}  // namespace

void rank_check(const void* m, const lock_rank::rank_t& r) {
  const rank_stack& s = t_held;
  for (int i = 0; i < s.depth; ++i) {
    const lock_rank::rank_t* held = s.rank[i];
    if (s.m[i] == m) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "recursive lock of '%s' (rank %d) on the same thread",
                    r.name, r.value);
      assert_fail("lock rank order", "thread_safety.h", 0, msg);
    }
    if (held->value >= r.value) {
      char msg[160];
      std::snprintf(
          msg, sizeof(msg),
          "lock rank inversion: acquiring '%s' (rank %d) while holding "
          "'%s' (rank %d); ranks must strictly increase",
          r.name, r.value, held->name, held->value);
      assert_fail("lock rank order", "thread_safety.h", 0, msg);
    }
  }
}

void rank_note(const void* m, const lock_rank::rank_t& r) {
  rank_stack& s = t_held;
  if (s.depth >= kMaxHeld) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "held-lock stack overflow (%d ranked locks) at '%s'",
                  s.depth, r.name);
    assert_fail("lock rank depth", "thread_safety.h", 0, msg);
  }
  s.m[s.depth] = m;
  s.rank[s.depth] = &r;
  ++s.depth;
}

void rank_forget(const void* m) noexcept {
  rank_stack& s = t_held;
  // Last occurrence, scanned from the top: unlocks are LIFO in practice,
  // and a mutex locked while the gate was off is simply absent (no-op).
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.m[i] != m) continue;
    for (int j = i; j + 1 < s.depth; ++j) {
      s.m[j] = s.m[j + 1];
      s.rank[j] = s.rank[j + 1];
    }
    --s.depth;
    return;
  }
}

int held_ranks(int* out, int max) noexcept {
  const rank_stack& s = t_held;
  const int n = s.depth < max ? s.depth : max;
  for (int i = 0; i < n; ++i) out[i] = s.rank[i]->value;
  return s.depth;
}

}  // namespace flashr::detail
