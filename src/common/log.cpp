#include "common/log.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/timer.h"

namespace flashr {

namespace {
std::atomic<int> g_level{static_cast<int>(log_level::warn)};
std::atomic<int> g_format{static_cast<int>(log_format::text)};
std::mutex g_mutex;
log_sink g_sink;  // guarded by g_mutex; empty = default stderr sink

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void default_sink(log_level lvl, const char* msg) {
  if (static_cast<log_format>(g_format.load(std::memory_order_relaxed)) ==
      log_format::json) {
    std::string line = "{\"ts_ns\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, now_ns());
    line += buf;
    line += ",\"level\":\"";
    line += log_level_name(lvl);
    line += "\",\"msg\":\"";
    append_json_escaped(line, msg);
    line += "\"}\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
  } else {
    const char* tag = lvl == log_level::warn   ? "W"
                      : lvl == log_level::info ? "I"
                                               : "D";
    std::fprintf(stderr, "[flashr %s] %s\n", tag, msg);
  }
}

}  // namespace

void set_log_level(log_level lvl) { g_level.store(static_cast<int>(lvl)); }

log_level get_log_level() { return static_cast<log_level>(g_level.load()); }

const char* log_level_name(log_level lvl) {
  switch (lvl) {
    case log_level::none: return "none";
    case log_level::warn: return "warn";
    case log_level::info: return "info";
    case log_level::debug: return "debug";
  }
  return "?";
}

bool log_level_from_name(const char* name, log_level* out) {
  if (name == nullptr || out == nullptr) return false;
  const std::string_view s(name);
  for (int i = static_cast<int>(log_level::none);
       i <= static_cast<int>(log_level::debug); ++i) {
    const auto lvl = static_cast<log_level>(i);
    if (s == log_level_name(lvl)) {
      *out = lvl;
      return true;
    }
  }
  if (s.size() == 1 && s[0] >= '0' && s[0] <= '3') {
    *out = static_cast<log_level>(s[0] - '0');
    return true;
  }
  return false;
}

void set_log_format(log_format f) { g_format.store(static_cast<int>(f)); }

log_format get_log_format() {
  return static_cast<log_format>(g_format.load());
}

void set_log_sink(log_sink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void log_msg(log_level lvl, const char* fmt, ...) {
  if (static_cast<int>(lvl) > g_level.load(std::memory_order_relaxed)) return;
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink)
    g_sink(lvl, msg);
  else
    default_sink(lvl, msg);
}

}  // namespace flashr
