// Asynchronous I/O service (§3.2.1, §3.3).
//
// FlashR reads I/O partitions asynchronously: the executor's prefetch
// pipeline keeps a window of partition reads in flight and computes on
// partitions as they complete; writes of materialized partitions are likewise
// issued asynchronously so compute never stalls on the SSDs. The service is
// a small pool of dedicated I/O threads draining a FIFO of requests against
// safs_files with positional reads and writes. Reads either complete a
// future the compute thread waits on (synchronous consumers: import, tests,
// depth-0 mode) or invoke a completion callback on the I/O thread (the
// prefetch pipeline's completion-order dispatch); writes carry their
// buffer's ownership and are tracked so a pass can drain them before
// finishing.
//
// Write-behind is bounded by a byte budget: submit_write blocks while the
// in-flight write volume exceeds conf().max_inflight_write_bytes, and the
// I/O thread that finishes a write releases its bytes. complete_write() is
// nonblocking: its mutex rank (io_write_budget) is nonblocking-safe and the
// analyzer verifies the body. The queue and stop flag are
// GUARDED_BY(io_mtx_); the FLASHR_THREAD_SAFETY build proves no path
// touches them unlocked.
//
// async_io::global() is how the engine reaches the process-wide service.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"

namespace flashr {

class io_backend {
 public:
  /// Invoked on an I/O thread when a notify-read completes; the argument is
  /// null on success, the I/O error otherwise. Must not block on I/O.
  using completion_fn = std::function<void(std::exception_ptr)>;

  explicit io_backend(int num_threads);
  ~io_backend();
  io_backend(const io_backend&) = delete;
  io_backend& operator=(const io_backend&) = delete;

  /// Read [offset, offset+len) of `file` into `buf` (caller keeps ownership
  /// and must keep it alive until the future resolves). The future rethrows
  /// any I/O error.
  std::future<void> submit_read(std::shared_ptr<const safs_file> file,
                                std::size_t offset, std::size_t len,
                                char* buf);

  /// Like submit_read, but instead of completing a future, `done` is invoked
  /// on the I/O thread once the data landed (or the read failed). The caller
  /// must keep `buf` alive until `done` runs.
  void submit_read_notify(std::shared_ptr<const safs_file> file,
                          std::size_t offset, std::size_t len, char* buf,
                          completion_fn done);

  /// Write [offset, offset+len) of `file` from `buf`. Ownership of `buf`
  /// moves to the request; the buffer returns to its pool when the write
  /// completes. Errors are deferred and rethrown by the next drain_writes().
  /// Blocks while the in-flight write volume exceeds
  /// conf().max_inflight_write_bytes (a single over-budget write is always
  /// admitted once nothing is in flight, so the bound never deadlocks).
  void submit_write(std::shared_ptr<safs_file> file, std::size_t offset,
                    std::size_t len, pool_buffer buf);

  /// Lease variant for the zero-copy write path: the request holds one
  /// share of the buffer (another may still alias it as a Pcache chunk);
  /// the I/O thread drops its share on completion.
  void submit_write(std::shared_ptr<safs_file> file, std::size_t offset,
                    std::size_t len, pool_lease buf);

  /// Wait until all submitted writes have completed; rethrows the first
  /// deferred write error if any.
  void drain_writes();

  /// Writes submitted but not yet completed. Unlike drain_writes(), polling
  /// this does NOT consume a deferred write error — tests use it to wait
  /// for a failing write to finish while keeping the error observable.
  int pending_writes() const;

  /// Write-behind bound accounting (exec snapshots these around a pass).
  struct write_throttle_stats {
    std::size_t stalls = 0;          ///< submit_write calls that blocked
    std::uint64_t stall_ns = 0;      ///< total time spent blocked
    std::size_t hwm_bytes = 0;       ///< in-flight write bytes high-water mark
  };
  write_throttle_stats throttle_stats() const;
  /// Reset the high-water mark to the current in-flight volume (start of a
  /// pass); stall counters are cumulative and diffed by the caller.
  void reset_throttle_hwm();

  /// Timestamp (flashr::now_ns) of the most recent completed I/O request,
  /// read or write; 0 until the first completion. The hung-I/O watchdog
  /// (core/governor.h) compares this against a stalled pass's own
  /// completion clock to distinguish "the SSDs stopped answering" from
  /// "only this pass is starved".
  std::uint64_t last_completion_ns() const {
    return last_completion_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct request {
    std::shared_ptr<const safs_file> rfile;
    std::shared_ptr<safs_file> wfile;
    std::size_t offset = 0;
    std::size_t len = 0;
    char* rbuf = nullptr;
    pool_buffer wbuf;
    pool_lease wlease;  ///< zero-copy writes share the buffer via a lease
    std::promise<void> done;
    completion_fn notify;
    bool is_write = false;
  };

  void io_loop();
  void enqueue(request req);
  void enqueue_write(request req);

  /// Admit one write of `len` bytes under the byte budget: blocks while the
  /// budget is exhausted, then charges it and bumps the pending count.
  void admit_write(std::size_t len);

  /// Account one finished write: record its deferred error (first wins),
  /// release its byte budget and wake drainers/throttled submitters. Runs
  /// on an I/O thread between requests, so it must never block or allocate
  /// (the analyzer verifies that; the budget mutex rank is nonblocking-safe).
  void complete_write(std::size_t len, std::exception_ptr err)
      FLASHR_NONBLOCKING;

  /// Stamp the watchdog's completion clock (any finished read or write).
  void stamp_completion() FLASHR_NONBLOCKING;

  std::vector<std::thread> threads_;
  mutable mutex io_mtx_ LOCK_RANK(async_queue);
  cond_var cv_;
  std::deque<request> queue_ GUARDED_BY(io_mtx_);
  bool stop_ GUARDED_BY(io_mtx_) = false;

  mutable mutex budget_mtx_ LOCK_RANK(io_write_budget);
  cond_var cv_drained_;
  /// Signalled when in-flight write bytes drop (throttled submitters wait).
  cond_var cv_write_budget_;
  int pending_writes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t inflight_write_bytes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t write_hwm_bytes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t throttle_stalls_ GUARDED_BY(budget_mtx_) = 0;
  std::uint64_t throttle_stall_ns_ GUARDED_BY(budget_mtx_) = 0;
  std::exception_ptr write_error_ GUARDED_BY(budget_mtx_);
  std::atomic<std::uint64_t> last_completion_ns_{0};
};

/// Process-wide access to the I/O service.
struct async_io {
  /// The live service, rebuilt (after draining the old one's writes) when
  /// conf().io_threads changes.
  static io_backend& global();
};

}  // namespace flashr
