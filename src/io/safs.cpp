#include "io/safs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/align.h"
#include "common/config.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/timer.h"
#include "io/fault.h"
#include "obs/metrics.h"

namespace flashr {

io_stats& io_stats::global() {
  static io_stats stats;
  // Expose every field through the obs metrics registry as read-through
  // probes: these atomics stay the single source of truth.
  static const bool probes_registered = [] {
    auto& reg = obs::metrics_registry::global();
    auto probe = [&reg](const char* name,
                        const std::atomic<std::size_t>& field) {
      reg.register_probe(name, [f = &field] {
        return static_cast<std::uint64_t>(f->load(std::memory_order_relaxed));
      });
    };
    probe("io.read_ops", stats.read_ops);
    probe("io.read_bytes", stats.read_bytes);
    probe("io.write_ops", stats.write_ops);
    probe("io.write_bytes", stats.write_bytes);
    probe("io.retries", stats.retries);
    probe("io.injected_faults", stats.injected_faults);
    probe("io.checksum_failures", stats.checksum_failures);
    probe("io.checksum_repairs", stats.checksum_repairs);
    return true;
  }();
  (void)probes_registered;
  return stats;
}

namespace {

/// Errnos worth retrying: the SSD (or injector) may succeed on the next
/// attempt. Everything else escalates immediately.
bool transient_errno(int e) {
  return e == EAGAIN || e == EWOULDBLOCK || e == EIO;
}

/// Deterministic jitter in [0.5, 1.0] of the nominal delay decorrelates
/// concurrent retriers without Date-style global state.
void backoff_sleep(int attempt, std::uint64_t salt) {
  const options& o = conf();
  if (o.io_retry_backoff_us <= 0) return;
  std::int64_t us = static_cast<std::int64_t>(o.io_retry_backoff_us);
  if (attempt > 1) {
    const int shift = attempt - 1 > 20 ? 20 : attempt - 1;
    us <<= shift;
  }
  if (us > o.io_retry_backoff_cap_us) us = o.io_retry_backoff_cap_us;
  if (us <= 0) return;
  const double jitter =
      0.5 + 0.5 * counter_uniform(0x6a17be5a11ce5eedULL ^ salt,
                                  static_cast<std::uint64_t>(attempt));
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<std::int64_t>(static_cast<double>(us) * jitter)));
}

/// Run one positional syscall with the retry policy: EINTR retries
/// immediately and unboundedly (it is not a device failure), transient
/// errnos retry up to conf().io_max_retries with jittered backoff, then the
/// error escalates as a typed io_error carrying file/offset/len/errno.
template <typename Io>
ssize_t retry_io(Io&& io, const char* what, const std::string& path,
                 std::size_t offset, std::size_t len) {
  auto& stats = io_stats::global();
  int attempt = 0;
  for (;;) {
    const ssize_t n = io();
    if (n >= 0) return n;
    const int e = errno;
    if (e == EINTR) {
      stats.retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (transient_errno(e) && attempt < conf().io_max_retries) {
      ++attempt;
      stats.retries.fetch_add(1, std::memory_order_relaxed);
      backoff_sleep(attempt, static_cast<std::uint64_t>(offset) ^
                                 (static_cast<std::uint64_t>(len) << 32));
      continue;
    }
    throw io_error(std::string(what) + " failed beyond retry budget", path,
                   offset, len, e);
  }
}

}  // namespace

std::shared_ptr<safs_file> safs_file::create(const std::string& name,
                                             std::size_t bytes,
                                             stripe_placement placement,
                                             std::size_t checksum_slots) {
  return std::shared_ptr<safs_file>(
      new safs_file(name, bytes, placement, checksum_slots));
}

safs_file::safs_file(std::string name, std::size_t bytes,
                     stripe_placement placement, std::size_t checksum_slots)
    : name_(std::move(name)),
      size_(bytes),
      unit_(conf().stripe_unit),
      placement_(placement) {
  const int stripes = conf().stripes;
  const std::size_t num_units = (bytes + unit_ - 1) / unit_;

  // Build the unit -> (file, slot) map. Hash placement follows the paper:
  // a hash spreads units over devices so partial-column access still uses
  // the whole array. Slots are dense per file so backing files stay compact.
  unit_file_.resize(num_units);
  unit_slot_.resize(num_units);
  std::vector<std::uint64_t> next_slot(static_cast<std::size_t>(stripes), 0);
  for (std::size_t u = 0; u < num_units; ++u) {
    const std::uint32_t f =
        placement_ == stripe_placement::hash
            ? static_cast<std::uint32_t>(mix64(u) %
                                         static_cast<std::uint64_t>(stripes))
            : static_cast<std::uint32_t>(u % static_cast<std::size_t>(stripes));
    unit_file_[u] = f;
    unit_slot_[u] = next_slot[f]++;
  }

  fds_.reserve(static_cast<std::size_t>(stripes));
  paths_.reserve(static_cast<std::size_t>(stripes));
  int open_flags = O_RDWR | O_CREAT | O_TRUNC;
  bool direct = conf().direct_io;
  for (int s = 0; s < stripes; ++s) {
    std::string path =
        conf().em_dir + "/" + name_ + ".stripe" + std::to_string(s);
    int fd = -1;
    if (direct) {
      fd = ::open(path.c_str(), open_flags | O_DIRECT, 0644);
      if (fd < 0) {
        // Filesystem refuses O_DIRECT (tmpfs, overlayfs): fall back for all
        // stripes and remember so we do not retry per file.
        direct = false;
        FLASHR_WARN("O_DIRECT unavailable for %s; using buffered I/O",
                    path.c_str());
      }
    }
    if (fd < 0) fd = ::open(path.c_str(), open_flags, 0644);
    if (fd < 0) throw_io_error("cannot create SAFS stripe file " + path);
    fds_.push_back(fd);
    paths_.push_back(std::move(path));
  }

  if (checksum_slots > 0) {
    // The sidecar is always buffered: 4-byte slots would violate O_DIRECT
    // alignment, and its writes are tiny and rare (one per partition flush).
    crc_path_ = conf().em_dir + "/" + name_ + ".crc";
    crc_fd_ = ::open(crc_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (crc_fd_ < 0)
      throw_io_error("cannot create checksum sidecar " + crc_path_);
    checksum_slots_ = checksum_slots;
  }
}

safs_file::~safs_file() {
  for (int fd : fds_) ::close(fd);
  for (const auto& path : paths_) ::unlink(path.c_str());
  if (crc_fd_ >= 0) {
    ::close(crc_fd_);
    ::unlink(crc_path_.c_str());
  }
}

std::vector<safs_file::segment> safs_file::map_range(std::size_t offset,
                                                     std::size_t len) const {
  FLASHR_ASSERT(offset + len <= ((size_ + unit_ - 1) / unit_) * unit_,
                "SAFS access out of range: " + name_);
  std::vector<segment> segs;
  std::size_t pos = offset;
  const std::size_t end = offset + len;
  while (pos < end) {
    const std::size_t u = pos / unit_;
    const std::size_t in_unit = pos % unit_;
    const std::size_t take = std::min(end - pos, unit_ - in_unit);
    segs.push_back(segment{static_cast<int>(unit_file_[u]),
                           unit_slot_[u] * unit_ + in_unit, take});
    pos += take;
  }
  return segs;
}

void safs_file::read(std::size_t offset, std::size_t len, char* buf) const {
  std::size_t done = 0;
  for (const segment& seg : map_range(offset, len)) {
    const int fd = fds_[static_cast<std::size_t>(seg.file)];
    const std::string& path = paths_[static_cast<std::size_t>(seg.file)];
    std::size_t got = 0;
    while (got < seg.len) {
      const ssize_t n = retry_io(
          [&] {
            return fault_pread(fd, buf + done + got, seg.len - got,
                               static_cast<off_t>(seg.file_off + got));
          },
          "pread", path, seg.file_off + got, seg.len - got);
      if (n == 0) {
        // Reading a hole past what has been written: zero-fill. EM stores
        // only read partitions they wrote, but padding in the last partition
        // may be untouched. (An injected premature EOF lands here too — the
        // corruption case checksum_policy::verify/repair detects.)
        std::fill(buf + done + got, buf + done + seg.len, 0);
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    done += seg.len;
  }
}

void safs_file::write(std::size_t offset, std::size_t len, const char* buf) {
  std::size_t done = 0;
  for (const segment& seg : map_range(offset, len)) {
    const int fd = fds_[static_cast<std::size_t>(seg.file)];
    const std::string& path = paths_[static_cast<std::size_t>(seg.file)];
    std::size_t put = 0;
    while (put < seg.len) {
      const ssize_t n = retry_io(
          [&] {
            return fault_pwrite(fd, buf + done + put, seg.len - put,
                                static_cast<off_t>(seg.file_off + put));
          },
          "pwrite", path, seg.file_off + put, seg.len - put);
      if (n == 0)
        throw io_error("pwrite made no progress", path, seg.file_off + put,
                       seg.len - put, 0);
      put += static_cast<std::size_t>(n);
    }
    done += seg.len;
  }
}

void safs_file::write_checksum(std::size_t slot, std::uint32_t crc) {
  FLASHR_ASSERT(crc_fd_ >= 0 && slot < checksum_slots_,
                "checksum sidecar not enabled: " + name_);
  const off_t off = static_cast<off_t>(slot * sizeof(crc));
  const char* p = reinterpret_cast<const char*>(&crc);
  std::size_t put = 0;
  while (put < sizeof(crc)) {
    const ssize_t n = ::pwrite(crc_fd_, p + put, sizeof(crc) - put,
                               off + static_cast<off_t>(put));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw io_error("sidecar pwrite failed", crc_path_, slot * sizeof(crc),
                     sizeof(crc), errno);
    }
    if (n == 0)
      throw io_error("sidecar pwrite made no progress", crc_path_,
                     slot * sizeof(crc), sizeof(crc), 0);
    put += static_cast<std::size_t>(n);
  }
}

std::uint32_t safs_file::read_checksum(std::size_t slot) const {
  FLASHR_ASSERT(crc_fd_ >= 0 && slot < checksum_slots_,
                "checksum sidecar not enabled: " + name_);
  std::uint32_t crc = 0;
  const off_t off = static_cast<off_t>(slot * sizeof(crc));
  char* p = reinterpret_cast<char*>(&crc);
  std::size_t got = 0;
  while (got < sizeof(crc)) {
    const ssize_t n = ::pread(crc_fd_, p + got, sizeof(crc) - got,
                              off + static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw io_error("sidecar pread failed", crc_path_, slot * sizeof(crc),
                     sizeof(crc), errno);
    }
    if (n == 0)
      throw io_error("sidecar slot never written", crc_path_,
                     slot * sizeof(crc), sizeof(crc), 0);
    got += static_cast<std::size_t>(n);
  }
  return crc;
}

void io_throttle::acquire(std::size_t bytes) {
  const double mbps = conf().io_throttle_mbps;
  if (mbps <= 0.0 || bytes == 0) return;
  const std::int64_t now_ns = static_cast<std::int64_t>(flashr::now_ns());
  const std::int64_t cost_ns = static_cast<std::int64_t>(
      static_cast<double>(bytes) / (mbps * 1e6) * 1e9);
  // Reserve a slot on the shared timeline, then sleep until it arrives.
  std::int64_t prev = next_free_ns_.load(std::memory_order_relaxed);
  std::int64_t start;
  do {
    start = std::max(prev, now_ns);
  } while (!next_free_ns_.compare_exchange_weak(prev, start + cost_ns,
                                                std::memory_order_relaxed));
  const std::int64_t wake_ns = start + cost_ns;
  if (wake_ns > now_ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake_ns - now_ns));
}

io_throttle& io_throttle::global() {
  static io_throttle throttle;
  return throttle;
}

}  // namespace flashr
