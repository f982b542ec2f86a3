#pragma once
// Span tracer: per-thread ring buffers of completed spans with typed
// arguments (kernel name, grid/block dims, species, element count), exported
// as Chrome trace-event JSON (load in chrome://tracing or Perfetto) and as a
// collapsed self-time tree. The spans are the profiler's events: a
// ScopedEvent (util/profiler.h) that begins while tracing() is on writes one
// record here when it ends, through detail::record_span. A span is written if
// and only if tracing was on when its event began; it still completes when
// disable() comes before its end, and clear() discards completed records
// only.
//
// Cost model: tracing off adds one relaxed flag load to an event's own clock
// reads; tracing on adds one write into the thread's ring (an uncontended
// lock; the registry mutex is touched only when a thread's buffer is first
// created). bench_trace_overhead measures both, and the end-to-end slowdown
// of a traced relaxation step (< 2% target).
//
// Ring semantics: each thread owns a fixed-capacity buffer of *completed*
// spans; when it wraps, the oldest records are overwritten and a drop count
// is kept, so a long run keeps the most recent window — which is the window
// a trace viewer wants. Nesting is reconstructed at export time from the
// recorded (thread, depth, t0, t1), so overwriting old records never
// corrupts the tree.
//
// Enabling: LANDAU_TRACE=path.json in the environment (parsed on first
// Tracer use; the trace is written at process exit), -landau_trace in the
// examples, or programmatically:
//
//   obs::Tracer::instance().enable();
//   ... run ...
//   obs::Tracer::instance().write_chrome_trace("trace.json");
//   std::puts(obs::Tracer::instance().self_time_report().c_str());

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/annotations.h"
#include "obs/json.h"

namespace landau::obs {

/// One span argument: a static-storage key with an int or double value.
/// Keys must be string literals (or otherwise outlive the tracer) — the hot
/// path stores the pointer, never copies.
struct TraceArg {
  const char* key = nullptr;
  std::int64_t i = 0;
  double d = 0.0;
  bool is_double = false;

  TraceArg() = default;
  TraceArg(const char* k, int v) : key(k), i(v) {}
  TraceArg(const char* k, long v) : key(k), i(v) {}
  TraceArg(const char* k, long long v) : key(k), i(v) {}
  TraceArg(const char* k, unsigned v) : key(k), i(static_cast<std::int64_t>(v)) {}
  TraceArg(const char* k, std::size_t v) : key(k), i(static_cast<std::int64_t>(v)) {}
  TraceArg(const char* k, double v) : key(k), d(v), is_double(true) {}
};

inline constexpr int kMaxTraceArgs = 4;

/// One completed span as stored in a thread's ring buffer.
struct SpanRecord {
  const char* name = nullptr; // profiler-interned event name
  std::int64_t t0_ns = 0, t1_ns = 0;
  std::int32_t tid = 0;
  std::int32_t depth = 0; // traced events enclosing it on its thread (0 = top level)
  std::int32_t n_args = 0;
  TraceArg args[kMaxTraceArgs];
};

/// Aggregated node of the collapsed self-time tree (merged across threads by
/// span-name path).
struct SpanTreeNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0; // total minus the time covered by child spans
  std::vector<SpanTreeNode> children;
};

namespace detail {
extern std::atomic<bool> g_trace_active;

/// Append one completed span to the calling thread's ring. Profiler::end
/// calls it for every event that began with tracing on; `name` and the
/// argument keys must outlive the tracer.
void record_span(const char* name, std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1, int depth, const TraceArg* args,
                 int n_args);
} // namespace detail

/// Whether an event beginning now becomes a span: one relaxed load.
inline bool tracing() { return detail::g_trace_active.load(std::memory_order_relaxed); }

class LANDAU_HOST_ONLY Tracer {
public:
  /// First access parses LANDAU_TRACE (non-empty value = output path,
  /// enables tracing and registers an at-exit Chrome-trace write).
  static Tracer& instance();

  void enable();
  void disable();
  bool enabled() const { return tracing(); }

  /// Output path configured via LANDAU_TRACE / set_path ("" = none).
  const std::string& path() const { return path_; }
  void set_path(std::string path) { path_ = std::move(path); }

  /// Per-thread ring capacity for buffers created *after* the call.
  void set_ring_capacity(std::size_t spans);
  std::size_t ring_capacity() const { return ring_capacity_.load(std::memory_order_relaxed); }

  /// All completed spans currently held in the ring buffers, in t0 order.
  std::vector<SpanRecord> snapshot() const;
  /// Spans overwritten by ring wrap-around since the last clear().
  std::int64_t dropped() const;
  /// Discard all completed spans (buffers stay registered); an event still
  /// open writes its span when it ends.
  void clear();

  /// Merge the recorded spans into one self-time tree (threads merged by
  /// name path, children sorted by total time descending).
  SpanTreeNode build_tree() const;
  /// Indented text rendering of build_tree() — the hierarchical view the
  /// flat Profiler::report() cannot provide across threads.
  std::string self_time_report() const;

  /// Chrome trace-event JSON (an array of "X" complete events); loads in
  /// chrome://tracing and Perfetto. Returns the document for tests.
  JsonValue chrome_trace() const;
  void write_chrome_trace(const std::string& path) const;

private:
  Tracer();
  Tracer(const Tracer&) = delete;

  std::string path_;
  std::atomic<std::size_t> ring_capacity_{1u << 15};
};

} // namespace landau::obs
