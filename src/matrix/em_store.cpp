#include "matrix/em_store.h"

#include <unistd.h>

#include <atomic>
#include <cstring>

#include "common/config.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/thread_safety.h"
#include "io/async_io.h"

namespace flashr {

namespace {
std::string next_em_name() {
  // Temp names embed the pid: concurrent processes sharing an em_dir (e.g.
  // parallel test runs) must not O_TRUNC each other's backing files.
  static std::atomic<std::uint64_t> counter{0};
  return "fm" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}
}  // namespace

em_store::em_store(part_geom geom, scalar_type type,
                   std::shared_ptr<safs_file> file)
    : em_readable(geom, type),
      file_(std::move(file)),
      has_crc_(geom.num_parts()) {}

em_store::ptr em_store::create(std::size_t nrow, std::size_t ncol,
                               scalar_type type, std::size_t part_rows) {
  if (part_rows == 0) part_rows = conf().io_part_rows;
  FLASHR_CHECK(ncol > 0, "matrix must have at least one column");
  part_geom geom{nrow, ncol, part_rows};
  const std::size_t bytes = geom.num_parts() * geom.full_part_bytes(type);
  // Sidecar slots are allocated unconditionally (one u32 per partition, one
  // tiny buffered file) so the checksum policy can be flipped between
  // passes without recreating matrices.
  auto file = safs_file::create(next_em_name(), bytes, stripe_placement::hash,
                                geom.num_parts());
  return ptr(new em_store(geom, type, std::move(file)));
}

void em_store::record_checksum(std::size_t pidx, const char* buf) {
  if (conf().io_checksum == checksum_policy::off) return;
  file_->write_checksum(pidx, crc32(buf, geom_.part_bytes(pidx, type_)));
  has_crc_[pidx].store(1, std::memory_order_release);
}

void em_store::verify_part(std::size_t pidx, char* buf) const {
  const checksum_policy policy = conf().io_checksum;
  if (policy == checksum_policy::off) return;
  if (has_crc_[pidx].load(std::memory_order_acquire) == 0) return;
  const std::size_t len = geom_.part_bytes(pidx, type_);
  const std::uint32_t want = file_->read_checksum(pidx);
  if (crc32(buf, len) == want) return;
  auto& stats = io_stats::global();
  if (policy == checksum_policy::repair) {
    // One repair attempt: re-read the partition synchronously. Transient
    // corruption (a dropped read, an injected premature EOF) heals here;
    // on-disk corruption does not and escalates below.
    file_->read(part_offset(pidx), len, buf);
    if (crc32(buf, len) == want) {
      stats.checksum_repairs.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  stats.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  throw io_error("partition checksum mismatch", file_->name(),
                 part_offset(pidx), len, 0);
}

std::future<void> em_store::read_part_async(std::size_t pidx,
                                            char* buf) const {
  auto fut = async_io::global().submit_read(file_, part_offset(pidx),
                                            geom_.part_bytes(pidx, type_), buf);
  if (conf().io_checksum == checksum_policy::off ||
      has_crc_[pidx].load(std::memory_order_acquire) == 0)
    return fut;
  // Deferred completion: the waiter's get() verifies once the data arrived.
  auto self = std::static_pointer_cast<const em_store>(shared_from_this());
  return std::async(std::launch::deferred,
                    [self, pidx, buf, f = std::move(fut)]() mutable {
                      f.get();
                      self->verify_part(pidx, buf);
                    });
}

void em_store::read_part_notify(std::size_t pidx, char* buf,
                                read_callback done) const {
  const std::size_t off = part_offset(pidx);
  const std::size_t len = geom_.part_bytes(pidx, type_);
  if (conf().io_checksum == checksum_policy::off ||
      has_crc_[pidx].load(std::memory_order_acquire) == 0) {
    async_io::global().submit_read_notify(file_, off, len, buf,
                                          std::move(done));
    return;
  }
  // Verify on the I/O thread before notifying, so completion-order
  // consumers see exactly the same checksum guarantees as future waiters.
  // A repair re-read is a direct synchronous pread, not a queued request,
  // so running it here cannot deadlock the I/O service.
  auto self = std::static_pointer_cast<const em_store>(shared_from_this());
  async_io::global().submit_read_notify(
      file_, off, len, buf,
      [self, pidx, buf, done = std::move(done)](std::exception_ptr err) {
        if (!err) {
          try {
            self->verify_part(pidx, buf);
          } catch (...) {
            err = std::current_exception();
          }
        }
        done(err);
      });
}

em_col_view::ptr em_col_view::create(std::shared_ptr<const em_store> base,
                                     std::vector<std::size_t> cols) {
  FLASHR_CHECK(!cols.empty(), "column view of nothing");
  for (std::size_t c : cols)
    FLASHR_CHECK_SHAPE(c < base->ncol(), "column view: index out of range");
  part_geom geom{base->nrow(), cols.size(), base->geom().part_rows};
  return ptr(new em_col_view(geom, std::move(base), std::move(cols)));
}

std::future<void> em_col_view::read_part_async(std::size_t pidx,
                                               char* buf) const {
  // One asynchronous read per selected column: within a partition, columns
  // are contiguous file ranges at stride rows_in_part. Column reads bypass
  // the per-partition checksum (a whole-partition CRC cannot validate a
  // byte subrange); full-partition reads remain the verified path.
  const std::size_t rows = geom_.rows_in_part(pidx);
  const std::size_t col_bytes = rows * elem_size();
  const std::size_t base_off = base_->part_offset(pidx);
  const std::size_t base_rows = base_->geom().rows_in_part(pidx);
  auto futures = std::make_shared<std::vector<std::future<void>>>();
  futures->reserve(cols_.size());
  for (std::size_t j = 0; j < cols_.size(); ++j)
    futures->push_back(async_io::global().submit_read(
        base_->file(), base_off + cols_[j] * base_rows * elem_size(),
        col_bytes, buf + j * col_bytes));
  // Deferred completion: the waiter's get() drains the per-column reads.
  return std::async(std::launch::deferred, [futures] {
    for (auto& f : *futures) f.get();
  });
}

namespace {

/// Join of the per-column notify-reads of one em_col_view partition read:
/// `done` fires once when the last column lands, first error wins.
struct col_join_state {
  mutex join_mtx LOCK_RANK(io_join);
  std::size_t remaining GUARDED_BY(join_mtx) = 0;
  std::exception_ptr error GUARDED_BY(join_mtx);
  em_readable::read_callback done;
};

/// Async-I/O completion for one column read. Runs on an I/O service thread
/// between completions, so it must never block: only the nonblocking-safe
/// join mutex is taken, and `done` (the prefetch pipeline's own completion,
/// verified separately) is invoked after it is released.
void on_col_read_complete(const std::shared_ptr<col_join_state>& join,
                          std::exception_ptr err) FLASHR_NONBLOCKING;

void on_col_read_complete(const std::shared_ptr<col_join_state>& join,
                          std::exception_ptr err) {
  bool last = false;
  std::exception_ptr first;
  {
    mutex_lock lock(join->join_mtx);
    if (err && !join->error) join->error = err;
    last = --join->remaining == 0;
    if (last) first = join->error;
  }
  if (last) join->done(first);
}

}  // namespace

void em_col_view::read_part_notify(std::size_t pidx, char* buf,
                                   read_callback done) const {
  // One notify-read per selected column (same layout as read_part_async).
  const std::size_t rows = geom_.rows_in_part(pidx);
  const std::size_t col_bytes = rows * elem_size();
  const std::size_t base_off = base_->part_offset(pidx);
  const std::size_t base_rows = base_->geom().rows_in_part(pidx);
  auto join = std::make_shared<col_join_state>();
  join->remaining = cols_.size();
  join->done = std::move(done);
  for (std::size_t j = 0; j < cols_.size(); ++j)
    async_io::global().submit_read_notify(
        base_->file(), base_off + cols_[j] * base_rows * elem_size(),
        col_bytes, buf + j * col_bytes, [join](std::exception_ptr err) {
          on_col_read_complete(join, std::move(err));
        });
}

void em_store::write_part_async(std::size_t pidx, pool_buffer buf) {
  FLASHR_ASSERT(buf.size() >= geom_.part_bytes(pidx, type_),
                "write buffer too small");
  record_checksum(pidx, buf.data());
  async_io::global().submit_write(file_, part_offset(pidx),
                                  geom_.part_bytes(pidx, type_),
                                  std::move(buf));
}

void em_store::write_part_async(std::size_t pidx, pool_lease buf) {
  FLASHR_ASSERT(buf.size() >= geom_.part_bytes(pidx, type_),
                "write buffer too small");
  record_checksum(pidx, buf.data());
  async_io::global().submit_write(file_, part_offset(pidx),
                                  geom_.part_bytes(pidx, type_),
                                  std::move(buf));
}

void em_store::write_part(std::size_t pidx, const char* buf) {
  const std::size_t len = geom_.part_bytes(pidx, type_);
  record_checksum(pidx, buf);
  io_throttle::global().acquire(len);
  file_->write(part_offset(pidx), len, buf);
  auto& stats = io_stats::global();
  stats.write_ops.fetch_add(1, std::memory_order_relaxed);
  stats.write_bytes.fetch_add(len, std::memory_order_relaxed);
}

void em_store::drain_writes() { async_io::global().drain_writes(); }

}  // namespace flashr
