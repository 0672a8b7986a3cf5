// Telemetry reporting: per-run snapshots, a process-wide registry with
// JSON export, the chrome://tracing exporter, and the RAII trace::Session
// that ties counters + trace to one measured region.  The "walk" and
// "sched" objects of the JSON and the registry totals walk each counter
// record's fields() (stats.hpp), so no counter is named here.
//
// All file output goes through io::atomic_write_file so a crash mid-export
// never leaves a truncated JSON behind.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/atomic_file.hpp"
#include "support/timer.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/trace.hpp"

namespace pochoir::telemetry {

/// Everything measured for one labelled region (a bench config, an example
/// run, a pochoirc-generated Run call): wall time plus walk and scheduler
/// counter deltas.
struct RunTelemetry {
  std::string label;
  double seconds = 0.0;
  WalkCounters walk;
  SchedulerCounters sched;

  [[nodiscard]] std::uint64_t points() const { return walk.points_total(); }
  [[nodiscard]] double points_per_s() const {
    return seconds > 0.0 ? static_cast<double>(points()) / seconds : 0.0;
  }
};

namespace detail {

inline void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += "?";  // control chars never appear in our labels; stay valid
      continue;
    }
    out.push_back(c);
  }
}

inline std::string json_value(std::uint64_t count) {
  return std::to_string(count);
}

template <std::size_t N>
inline std::string json_value(const std::array<std::uint64_t, N>& hist) {
  // Trim to the last non-zero bucket so small runs stay readable.
  std::size_t last = 0;
  for (std::size_t i = 0; i < N; ++i) {
    if (hist[i] != 0) last = i + 1;
  }
  std::string out = "[";
  for (std::size_t i = 0; i < last; ++i) {
    if (i != 0) out += ",";
    out += std::to_string(hist[i]);
  }
  out += "]";
  return out;
}

/// Appends the counters of record `r` as "name": value members, in the
/// order of R::fields.
template <typename R>
void append_counters(std::string& out, const R& r) {
  const char* sep = "";
  R::fields([&](const char* name, auto counter) {
    out += sep;
    out += "\"";
    out += name;
    out += "\": ";
    out += json_value(r.*counter);
    sep = ", ";
  });
}

}  // namespace detail

/// Serializes one RunTelemetry as a JSON object.  With include_label=false
/// the caller is embedding it under its own key (e.g. a bench row's
/// "telemetry" field).
inline std::string to_json(const RunTelemetry& t, bool include_label = true) {
  std::string out = "{";
  if (include_label) {
    out += "\"label\": \"";
    detail::json_escape_into(out, t.label);
    out += "\", ";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t.seconds);
  out += "\"seconds\": ";
  out += buf;
  std::snprintf(buf, sizeof(buf), "%.1f", t.points_per_s());
  out += ", \"points\": " + std::to_string(t.points());
  out += ", \"points_per_s\": ";
  out += buf;
  out += ", \"walk\": {";
  detail::append_counters(out, t.walk);
  out += "}, \"sched\": {";
  detail::append_counters(out, t.sched);
  std::snprintf(buf, sizeof(buf), "%.4f", t.sched.steal_ratio());
  out += ", \"steal_ratio\": ";
  out += buf;
  out += "}}";
  return out;
}

/// Process-wide accumulation of finished sessions, exportable as one JSON
/// snapshot (POCHOIR_TELEMETRY_JSON or an explicit export_json call).
class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void record(RunTelemetry t) {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(std::move(t));
  }

  [[nodiscard]] std::vector<RunTelemetry> sessions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_;
  }

  /// Writes {"schema": ..., "sessions": [...], totals} atomically.
  bool export_json(const std::string& path) const {
    const std::vector<RunTelemetry> sessions = this->sessions();
    RunTelemetry totals;
    totals.label = "totals";
    for (const RunTelemetry& t : sessions) {
      totals.seconds += t.seconds;
      totals.walk += t.walk;
      totals.sched += t.sched;
    }
    const auto result = io::atomic_write_file(path, [&](std::FILE* f) {
      std::fputs("{\"schema\": \"pochoir-telemetry-v1\", \"sessions\": [",
                 f);
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        if (i != 0) std::fputs(", ", f);
        std::fputs(to_json(sessions[i]).c_str(), f);
      }
      std::fputs("], \"totals\": ", f);
      std::fputs(to_json(totals).c_str(), f);
      std::fputs("}\n", f);
      return std::ferror(f) == 0;
    });
    return result.ok;
  }

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::vector<RunTelemetry> sessions_;
};

}  // namespace pochoir::telemetry

namespace pochoir::trace {

/// Exports everything recorded so far as a chrome://tracing / Perfetto
/// "traceEvents" JSON array of complete ("ph":"X") events.  Timestamps are
/// microseconds relative to the earliest recorded span.
inline bool write_chrome_trace(const std::string& path) {
  const std::vector<ThreadLog> logs = Tracer::instance().drain_copy();
  std::uint64_t epoch_ns = ~0ULL;
  for (const ThreadLog& log : logs) {
    for (const Event& ev : log.events) {
      if (ev.begin_ns < epoch_ns) epoch_ns = ev.begin_ns;
    }
  }
  if (epoch_ns == ~0ULL) epoch_ns = 0;
  const auto result = io::atomic_write_file(path, [&](std::FILE* f) {
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", f);
    bool first = true;
    for (const ThreadLog& log : logs) {
      for (const Event& ev : log.events) {
        if (!first) std::fputs(",\n", f);
        first = false;
        const double ts_us =
            static_cast<double>(ev.begin_ns - epoch_ns) * 1e-3;
        const double dur_us =
            static_cast<double>(ev.end_ns - ev.begin_ns) * 1e-3;
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"pochoir\", \"ph\": \"X\","
                     " \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                     ev.name, log.tid, ts_us, dur_us);
        if (ev.arg >= 0) {
          std::fprintf(f, ", \"args\": {\"v\": %lld}",
                       static_cast<long long>(ev.arg));
        }
        std::fputs("}", f);
      }
      if (log.dropped != 0) {
        if (!first) std::fputs(",\n", f);
        first = false;
        std::fprintf(f,
                     "{\"name\": \"dropped %llu events\", \"cat\": "
                     "\"pochoir\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": 0, \"dur\": 0}",
                     static_cast<unsigned long long>(log.dropped), log.tid);
      }
    }
    std::fputs("]}\n", f);
    return std::ferror(f) == 0;
  });
  return result.ok;
}

/// RAII measured region: snapshots walk + scheduler counters on entry,
/// returns the deltas from finish() (called on destruction if not before),
/// and records them into the telemetry Registry when counters were on for
/// the session or POCHOIR_TELEMETRY_JSON asks for an export.
///
/// Environment hooks (evaluated by the first Session that sees them):
///   POCHOIR_TRACE=out.json        activate tracing; write the Chrome trace
///                                 when the owning session finishes
///   POCHOIR_TELEMETRY_JSON=p.json export the registry snapshot on finish
///
/// `force_enable` turns counters on for this session even without
/// POCHOIR_TELEMETRY (used by benches that always want a telemetry block);
/// the previous flag state is restored on finish.
class Session {
 public:
  explicit Session(std::string label, bool force_enable = false)
      : label_(std::move(label)) {
    const char* trace_path = std::getenv("POCHOIR_TRACE");
    if (trace_path != nullptr && trace_path[0] != '\0' &&
        std::string(trace_path) != "off" && !Tracer::instance().active()) {
      trace_path_ = trace_path;
      owns_trace_ = true;
      Tracer::instance().set_active(true);
    }
    prev_enabled_ = telemetry::enabled();
    if (force_enable || owns_trace_) telemetry::set_enabled(true);
    begin_ns_ = now_ns();
    walk0_ = telemetry::walk_stats().snapshot();
    sched0_ = rt::Scheduler::counters_now();
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    if (!finished_) finish();
  }

  /// Ends the measured region and returns its telemetry.  Idempotent; the
  /// destructor calls it if the caller did not.
  telemetry::RunTelemetry finish() {
    if (finished_) return result_;
    finished_ = true;
    result_.label = label_;
    result_.seconds = static_cast<double>(now_ns() - begin_ns_) * 1e-9;
    result_.walk = telemetry::walk_stats().snapshot() - walk0_;
    result_.sched = rt::Scheduler::counters_now() - sched0_;
    // The Registry keeps every session it records for the whole process, so
    // only sessions that counted or are exported go there.
    const char* snap = std::getenv("POCHOIR_TELEMETRY_JSON");
    const bool exported = snap != nullptr && snap[0] != '\0';
    if (telemetry::enabled() || exported) {
      telemetry::Registry::instance().record(result_);
    }
    if (owns_trace_) {
      write_chrome_trace(trace_path_);
      Tracer::instance().set_active(false);
    }
    if (exported) telemetry::Registry::instance().export_json(snap);
    telemetry::set_enabled(prev_enabled_);
    return result_;
  }

 private:
  std::string label_;
  std::string trace_path_;
  bool owns_trace_ = false;
  bool prev_enabled_ = false;
  bool finished_ = false;
  std::uint64_t begin_ns_ = 0;
  telemetry::WalkCounters walk0_;
  telemetry::SchedulerCounters sched0_;
  telemetry::RunTelemetry result_;
};

}  // namespace pochoir::trace
