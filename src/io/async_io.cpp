#include "io/async_io.h"

#include <cstdio>
#include <mutex>

#include "common/config.h"
#include "common/timer.h"
#include "io/fault.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr {

namespace {
obs::histogram& read_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.read_us");
  return h;
}
obs::histogram& write_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.write_us");
  return h;
}
obs::histogram& throttle_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.write_throttle_us");
  return h;
}
}  // namespace

io_backend::io_backend(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    threads_.emplace_back([this, i] {
      char name[16];
      std::snprintf(name, sizeof(name), "io-%d", i);
      obs::set_thread_name(name);
      // Completion callbacks may trace; registering the ring here keeps
      // emit()'s once-per-thread slow path out of the nonblocking context.
      obs::ensure_thread_ring();
      io_loop();
    });
}

io_backend::~io_backend() {
  {
    mutex_lock lock(io_mtx_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> io_backend::submit_read(
    std::shared_ptr<const safs_file> file, std::size_t offset,
    std::size_t len, char* buf) {
  request req;
  req.rfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.rbuf = buf;
  std::future<void> fut = req.done.get_future();
  enqueue(std::move(req));
  return fut;
}

void io_backend::submit_read_notify(
    std::shared_ptr<const safs_file> file, std::size_t offset,
    std::size_t len, char* buf, completion_fn done) {
  request req;
  req.rfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.rbuf = buf;
  req.notify = std::move(done);
  enqueue(std::move(req));
}

void io_backend::enqueue(request req) {
  {
    mutex_lock lock(io_mtx_);
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
}

void io_backend::enqueue_write(request req) {
  // Admit under the byte budget BEFORE queueing (blocks here while over
  // budget), so the queue never holds unadmitted write bytes.
  admit_write(req.len);
  enqueue(std::move(req));
}

void io_backend::submit_write(std::shared_ptr<safs_file> file,
                              std::size_t offset, std::size_t len,
                              pool_buffer buf) {
  request req;
  req.wfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.wbuf = std::move(buf);
  req.is_write = true;
  enqueue_write(std::move(req));
}

void io_backend::submit_write(std::shared_ptr<safs_file> file,
                              std::size_t offset, std::size_t len,
                              pool_lease buf) {
  request req;
  req.wfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.wlease = std::move(buf);
  req.is_write = true;
  enqueue_write(std::move(req));
}

void io_backend::admit_write(std::size_t len) {
  const std::size_t budget = conf().max_inflight_write_bytes;
  mutex_lock lock(budget_mtx_);
  // Bounded write-behind: admit the write only when it fits the budget.
  // An oversized write is admitted once nothing else is in flight, so the
  // bound cannot deadlock; the effective high-water mark is then
  // max(budget, largest single write).
  if (budget != 0 && inflight_write_bytes_ != 0 &&
      inflight_write_bytes_ + len > budget) {
    OBS_SPAN_ARG("io.write_throttle", len);
    // Sampling profiler: time stalled on the write budget is I/O wait.
    obs::sample_wait_scope sample_scope(obs::sample_state::io_wait);
    ++throttle_stalls_;
    const std::uint64_t t0 = now_ns();
    while (inflight_write_bytes_ != 0 && inflight_write_bytes_ + len > budget)
      cv_write_budget_.wait(lock);
    const std::uint64_t stalled = now_ns() - t0;
    throttle_stall_ns_ += stalled;
    if (obs::metrics_on()) throttle_hist().record(stalled / 1000);
  }
  inflight_write_bytes_ += len;
  if (inflight_write_bytes_ > write_hwm_bytes_)
    write_hwm_bytes_ = inflight_write_bytes_;
  ++pending_writes_;
}

void io_backend::complete_write(std::size_t len, std::exception_ptr err) {
  mutex_lock lock(budget_mtx_);
  if (err && !write_error_) write_error_ = std::move(err);
  inflight_write_bytes_ -= len;
  cv_write_budget_.notify_all();
  if (--pending_writes_ == 0) cv_drained_.notify_all();
}

void io_backend::stamp_completion() {
  last_completion_ns_.store(now_ns(), std::memory_order_relaxed);
}

void io_backend::drain_writes() {
  mutex_lock lock(budget_mtx_);
  while (pending_writes_ != 0) cv_drained_.wait(lock);
  if (write_error_) {
    auto err = write_error_;
    write_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

int io_backend::pending_writes() const {
  mutex_lock lock(budget_mtx_);
  return pending_writes_;
}

io_backend::write_throttle_stats io_backend::throttle_stats() const {
  mutex_lock lock(budget_mtx_);
  write_throttle_stats s;
  s.stalls = throttle_stalls_;
  s.stall_ns = throttle_stall_ns_;
  s.hwm_bytes = write_hwm_bytes_;
  return s;
}

void io_backend::reset_throttle_hwm() {
  mutex_lock lock(budget_mtx_);
  write_hwm_bytes_ = inflight_write_bytes_;
}

void io_backend::io_loop() {
  for (;;) {
    request req;
    {
      mutex_lock lock(io_mtx_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    io_throttle::global().acquire(req.len);
    auto& stats = io_stats::global();
    if (req.is_write) {
      std::exception_ptr err;
      {
        OBS_SPAN_ARG("io.write", req.len);
        const std::uint64_t t0 = obs::metrics_on() ? now_ns() : 0;
        const char* src =
            req.wlease.valid() ? req.wlease.data() : req.wbuf.data();
        try {
          req.wfile->write(req.offset, req.len, src);
          stats.write_ops.fetch_add(1, std::memory_order_relaxed);
          stats.write_bytes.fetch_add(req.len, std::memory_order_relaxed);
        } catch (...) {
          err = std::current_exception();
        }
        if (t0 != 0) write_hist().record((now_ns() - t0) / 1000);
      }
      // Drop the buffer and the file before signalling: once drained, a
      // writer may destroy its store, and the last reference to the file
      // (whose destructor unlinks it) must not outlive the drain.
      req.wbuf.release();
      req.wlease.reset();
      req.wfile.reset();
      stamp_completion();
      complete_write(req.len, std::move(err));
    } else {
      std::exception_ptr err;
      {
        OBS_SPAN_ARG("io.read", req.len);
        const std::uint64_t t0 = obs::metrics_on() ? now_ns() : 0;
        try {
          req.rfile->read(req.offset, req.len, req.rbuf);
          stats.read_ops.fetch_add(1, std::memory_order_relaxed);
          stats.read_bytes.fetch_add(req.len, std::memory_order_relaxed);
        } catch (...) {
          err = std::current_exception();
        }
        if (t0 != 0) read_hist().record((now_ns() - t0) / 1000);
      }
      // Stall injection sits between "data landed" and "completion
      // delivered": the read already happened (and was counted), but the
      // consumer does not hear about it until the injected delay elapses —
      // exactly the shape of an SSD whose completions stop arriving.
      fault_completion_stall();
      stamp_completion();
      req.rfile.reset();  // likewise: not pinned past the completion
      if (req.notify) {
        // Completion-order dispatch: hand the result to the prefetch
        // pipeline on this thread, then drop the closure immediately so any
        // buffers it references are not pinned past the notification.
        completion_fn notify = std::move(req.notify);
        notify(err);
      } else if (err) {
        req.done.set_exception(err);
      } else {
        req.done.set_value();
      }
    }
  }
}

io_backend& async_io::global() {
  static std::mutex mutex;
  static std::unique_ptr<io_backend> service;
  static int built_threads = 0;
  std::lock_guard<std::mutex> lock(mutex);
  const int want = conf().io_threads;
  if (service && built_threads != want) {
    // Rebuild safely: drain pending writes on the old service and surface
    // any deferred write error instead of silently dropping it with the
    // object. If drain throws, the service is already detached — the next
    // call builds a fresh one.
    auto old = std::move(service);
    old->drain_writes();
  }
  if (!service) {
    service = std::make_unique<io_backend>(want);
    built_threads = want;
  }
  return *service;
}

}  // namespace flashr
