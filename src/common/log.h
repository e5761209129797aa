// Minimal leveled logger. Quiet by default; benchmarks and examples raise the
// level to info to narrate progress. Thread-safe via a single mutex — logging
// is never on a hot path.
//
// Output is pluggable: the default sink printf-formats to stderr; a custom
// sink (set_log_sink) receives every formatted message, and
// set_log_format(log_format::json) switches the default sink to one JSON
// object per line ({"ts_ns":..., "level":"warn", "msg":"..."}), for log
// collectors that want structured records.
#pragma once

#include <cstdarg>
#include <functional>

namespace flashr {

enum class log_level : int { none = 0, warn = 1, info = 2, debug = 3 };

void set_log_level(log_level lvl);
log_level get_log_level();

const char* log_level_name(log_level lvl);

/// Parse a level name ("none"/"warn"/"info"/"debug", or "0".."3") into
/// `*out`. Returns false (leaving `*out` untouched) on anything else. Used
/// by init() for the FLASHR_LOG_LEVEL environment variable.
bool log_level_from_name(const char* name, log_level* out);

/// Shape of the built-in stderr sink's output.
enum class log_format : int {
  text = 0,  ///< "[flashr W] message"
  json = 1,  ///< {"ts_ns":...,"level":"warn","msg":"message"} per line
};

void set_log_format(log_format f);
log_format get_log_format();

/// Receives every emitted record, already printf-formatted. Called under the
/// logger mutex (records never interleave); must not log re-entrantly.
/// Pass nullptr to restore the default stderr sink.
using log_sink = std::function<void(log_level, const char* msg)>;
void set_log_sink(log_sink sink);

void log_msg(log_level lvl, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace flashr

#define FLASHR_WARN(...) ::flashr::log_msg(::flashr::log_level::warn, __VA_ARGS__)
#define FLASHR_INFO(...) ::flashr::log_msg(::flashr::log_level::info, __VA_ARGS__)
#define FLASHR_DEBUG(...) ::flashr::log_msg(::flashr::log_level::debug, __VA_ARGS__)
