#include "common/error.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flashr {

namespace {
std::string describe(const std::string& what, const std::string& path,
                     std::size_t offset, std::size_t len, int err) {
  std::string s = what;
  s += " (file=" + path;
  s += " offset=" + std::to_string(offset);
  s += " len=" + std::to_string(len);
  if (err != 0) {
    s += " errno=" + std::to_string(err);
    s += " ";
    s += std::strerror(err);
  }
  s += ")";
  return s;
}
}  // namespace

io_error::io_error(const std::string& what, std::string path,
                   std::size_t offset, std::size_t len, int err)
    : error(describe(what, path, offset, len, err)),
      path_(std::move(path)),
      offset_(offset),
      len_(len),
      err_(err) {}

namespace {
std::string describe_timeout(const std::string& what, std::uint64_t pass_id,
                             std::uint64_t elapsed_ns, std::uint64_t limit_ms) {
  std::string s = what;
  s += " (pass=" + std::to_string(pass_id);
  s += " elapsed_ms=" + std::to_string(elapsed_ns / 1000000);
  s += " limit_ms=" + std::to_string(limit_ms);
  s += ")";
  return s;
}

std::string describe_overload(const std::string& what, std::uint64_t pass_id,
                              std::uint64_t requested, std::uint64_t budget) {
  std::string s = what;
  s += " (pass=" + std::to_string(pass_id);
  s += " requested=" + std::to_string(requested);
  s += " budget=" + std::to_string(budget);
  s += ")";
  return s;
}
}  // namespace

timeout_error::timeout_error(const std::string& what, std::uint64_t pass_id,
                             std::uint64_t elapsed_ns, std::uint64_t limit_ms)
    : error(describe_timeout(what, pass_id, elapsed_ns, limit_ms)),
      pass_id_(pass_id),
      elapsed_ns_(elapsed_ns),
      limit_ms_(limit_ms) {}

overload_error::overload_error(const std::string& what, std::uint64_t pass_id,
                               std::uint64_t requested, std::uint64_t budget)
    : error(describe_overload(what, pass_id, requested, budget)),
      pass_id_(pass_id),
      requested_(requested),
      budget_(budget) {}

bool is_transient(const std::exception_ptr& e) noexcept {
  if (!e) return false;
  try {
    std::rethrow_exception(e);
  } catch (const error& err) {
    return err.transient();
  } catch (...) {
    return false;
  }
}

void throw_error(const std::string& msg) { throw error(msg); }
void throw_io_error(const std::string& msg) { throw io_error(msg); }
void throw_io_error_at(const std::string& msg, std::string path,
                       std::size_t offset, std::size_t len, int err) {
  throw io_error(msg, std::move(path), offset, len, err);
}
void throw_shape_error(const std::string& msg) { throw shape_error(msg); }

namespace detail {

void assert_fail(const char* expr, const char* file, int line,
                 const std::string& msg) {
  std::fprintf(stderr, "flashr assertion failed: %s at %s:%d: %s\n", expr,
               file, line, msg.c_str());
  std::abort();
}

}  // namespace detail
}  // namespace flashr
