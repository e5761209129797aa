// Recycled, size-classed memory buffers.
//
// FlashR (§3.2.1) stores in-memory matrices in fixed-size chunks shared among
// all matrices so memory can be recycled cheaply, and (§3.5.1) recycles the
// buffers of Pcache partitions so the output of the next operation is written
// into memory that is already in CPU cache. Both behaviours are provided by
// this pool: allocations are rounded to power-of-two size classes, freed
// buffers go on per-class free lists, and a later allocation of the same
// class reuses the most recently freed buffer (LIFO, for cache warmth).
//
// The pool also tracks current and peak outstanding bytes, which backs the
// "peak memory" column of Table 6.
//
// When the invariant validator is enabled (common/check.h) the pool
// additionally tracks every live buffer and poisons returned memory, so a
// double return, a return of memory the pool never handed out (refcount
// underflow) and a write into a returned buffer each abort with a
// diagnostic instead of corrupting a later pass.
//
// Alignment contract: every buffer the pool hands out is kBufferAlign
// (4 KiB) aligned, as O_DIRECT requires.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/align.h"
#include "common/thread_safety.h"

namespace flashr {

class buffer_pool;
struct pool_debug;

/// RAII handle for a pooled buffer. Movable, not copyable; returns the
/// buffer to its pool on destruction.
class pool_buffer {
 public:
  pool_buffer() = default;
  pool_buffer(pool_buffer&& o) noexcept { *this = std::move(o); }
  pool_buffer& operator=(pool_buffer&& o) noexcept;
  pool_buffer(const pool_buffer&) = delete;
  pool_buffer& operator=(const pool_buffer&) = delete;
  ~pool_buffer() { release(); }

  char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool valid() const noexcept { return data_ != nullptr; }

  /// Return the buffer to the pool now. Runs from async-I/O completion
  /// contexts (a write request's buffer, a cancelled window slot), so it
  /// must never block — see buffer_pool::put.
  void release() noexcept FLASHR_NONBLOCKING;

 private:
  friend class buffer_pool;
  friend struct pool_debug;
  pool_buffer(buffer_pool* pool, char* data, std::size_t size, int cls,
              bool tracked)
      : pool_(pool), data_(data), size_(size), class_(cls),
        tracked_(tracked) {}

  buffer_pool* pool_ = nullptr;
  char* data_ = nullptr;
  std::size_t size_ = 0;
  int class_ = -1;
  /// Whether the invariant validator was active when this buffer was handed
  /// out (so put() only checks buffers it actually registered).
  bool tracked_ = false;
};

/// Refcounted share of a pooled buffer. The zero-copy read path hands the
/// same EM read buffer to a Pcache chunk alias AND an in-flight partition
/// write, so ownership must outlive whichever consumer finishes last; the
/// last lease returns the buffer to its pool. Copies are cheap (one relaxed
/// fetch_add); destruction may run on an I/O completion thread, where the
/// underlying pool return is nonblocking by contract.
class pool_lease {
 public:
  pool_lease() = default;
  /// Take ownership of `b`; an invalid buffer yields an invalid lease.
  explicit pool_lease(pool_buffer&& b) {
    if (b.valid()) c_ = new ctrl{std::move(b), {1}};
  }
  pool_lease(const pool_lease& o) noexcept : c_(o.c_) { retain(); }
  pool_lease(pool_lease&& o) noexcept : c_(o.c_) { o.c_ = nullptr; }
  pool_lease& operator=(const pool_lease& o) noexcept {
    if (this != &o) {
      reset();
      c_ = o.c_;
      retain();
    }
    return *this;
  }
  pool_lease& operator=(pool_lease&& o) noexcept {
    if (this != &o) {
      reset();
      c_ = o.c_;
      o.c_ = nullptr;
    }
    return *this;
  }
  ~pool_lease() { reset(); }

  char* data() const noexcept { return c_ ? c_->buf.data() : nullptr; }
  std::size_t size() const noexcept { return c_ ? c_->buf.size() : 0; }
  bool valid() const noexcept { return c_ != nullptr; }
  /// Shares outstanding on the same buffer (tests).
  int use_count() const noexcept {
    return c_ ? c_->refs.load(std::memory_order_relaxed) : 0;
  }

  /// Drop this share; the last share returns the buffer to the pool.
  void reset() noexcept {
    if (c_ != nullptr &&
        c_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete c_;
    c_ = nullptr;
  }

 private:
  struct ctrl {
    pool_buffer buf;
    std::atomic<int> refs;
  };
  void retain() noexcept {
    if (c_) c_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  ctrl* c_ = nullptr;
};

class buffer_pool {
 public:
  buffer_pool() = default;
  ~buffer_pool();
  buffer_pool(const buffer_pool&) = delete;
  buffer_pool& operator=(const buffer_pool&) = delete;

  /// Get a buffer of at least `bytes` bytes (rounded to the size class).
  pool_buffer get(std::size_t bytes);

  /// Bytes currently handed out (not on free lists).
  std::size_t outstanding_bytes() const { return outstanding_.load(); }

  /// Buffers currently handed out. The cancellation tests assert this
  /// returns to its pre-pass value after an aborted pass (no leaked
  /// pool_buffer, whether owned by a worker, a staged output, or an
  /// in-flight write request).
  std::size_t outstanding_count() const { return outstanding_count_.load(); }

  /// High-water mark of outstanding bytes since construction or the last
  /// reset_peak().
  std::size_t peak_bytes() const { return peak_.load(); }

  void reset_peak() { peak_.store(outstanding_.load()); }

  /// Free all cached (idle) buffers back to the OS.
  void trim();

  /// Number of buffers currently cached on free lists (for tests).
  std::size_t cached_count() const;

  /// Bytes a request of `bytes` occupies: its power-of-two size class.
  static std::size_t class_size(std::size_t bytes) {
    return std::size_t{1} << (class_of(bytes) + kMinClassLog2);
  }

  /// Process-wide pool shared by the engine.
  static buffer_pool& global();

 private:
  friend class pool_buffer;
  /// Invariant-seeding test seams (core/validate.h).
  friend struct pool_debug;

  /// Runs from async-I/O completion contexts via pool_buffer::release, so
  /// it must never block: the pool mutex is nonblocking-safe (O(1),
  /// alloc-free critical sections) and the analyzer verifies the body.
  void put(char* data, std::size_t size, int cls, bool tracked) noexcept
      FLASHR_NONBLOCKING;
  /// Lifecycle bookkeeping for one returning buffer; aborts on double
  /// return / underflow and poisons the memory. Lock-held core of put().
  void track_return_locked(char* data, std::size_t size, int cls,
                           bool tracked) noexcept REQUIRES(pool_mtx_);

  static constexpr int kMinClassLog2 = 9;   // 512 B
  static constexpr int kMaxClassLog2 = 31;  // 2 GiB
  static int class_of(std::size_t bytes);

  mutable mutex pool_mtx_ LOCK_RANK(buffer_pool);
  std::vector<char*> free_lists_[kMaxClassLog2 - kMinClassLog2 + 1]
      GUARDED_BY(pool_mtx_);
  /// Buffers currently handed out while the validator was active.
  std::unordered_set<const char*> live_ GUARDED_BY(pool_mtx_);
  /// Buffers poisoned on return and not yet re-issued; verified on reuse.
  std::unordered_set<const char*> poisoned_ GUARDED_BY(pool_mtx_);
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> outstanding_count_{0};
  std::atomic<std::size_t> peak_{0};
};

}  // namespace flashr
