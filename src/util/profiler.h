#pragma once
// Event profiler modeled on PetscLogEvent: named events accumulate wall-clock
// time and call counts; RAII ScopedEvent handles begin/end. The
// component-time benches (Table VII) read their numbers from here.
//
// Thread-safety: events may begin/end on any thread; accumulation is atomic.
// Event slots never move, so end()/add()/add_work() read them without the
// lock while event_id() registers names on other threads.
//
// snapshot()/report() are *flat* per-event aggregates: events from different
// threads accumulate into one slot, so this class never claims a hierarchy.
// A ScopedEvent is also the trace span (contract in obs/trace.h): each thread
// keeps one stack of open events, and obs::Tracer rebuilds the parent/child
// tree from the spans they write.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace landau {

/// Accumulated statistics for one named event.
struct EventStats {
  std::string name;
  std::int64_t count = 0;
  double seconds = 0.0;
  std::int64_t flops = 0;      // work attributed via add_work()
  std::int64_t dram_bytes = 0; // memory traffic attributed via add_work()
};

/// Global registry of profiling events.
class Profiler {
public:
  static Profiler& instance();

  /// Get-or-create the id of a named event. Ids are stable for process life;
  /// looking up a known name allocates nothing.
  int event_id(std::string_view name);

  /// Open an event on the calling thread. The arguments are kept only when
  /// tracing is on (at most obs::kMaxTraceArgs; keys must be literals).
  void begin(int id, std::initializer_list<obs::TraceArg> args = {});
  void end(int id);

  /// Add externally-measured time (used by the schedule simulator).
  void add(int id, double seconds, std::int64_t count = 1);

  /// Attribute flop/DRAM work to an event (each kernel launch, linear solve
  /// and pack adds its own here, so phase totals carry work, not just time).
  /// Allocation-free: callers cache the id from event_id().
  void add_work(int id, std::int64_t flops, std::int64_t dram_bytes = 0);

  /// Snapshot of all events (sorted by accumulated time, descending).
  std::vector<EventStats> snapshot() const;

  /// Accumulated statistics of one event by name (zeros if never seen).
  EventStats stats(std::string_view name) const;
  double seconds(std::string_view name) const { return stats(name).seconds; }
  std::int64_t count(std::string_view name) const { return stats(name).count; }

  /// Zero all accumulators (ids remain valid). Used between bench phases.
  void reset();

  /// Render a report table.
  std::string report() const;

private:
  Profiler() = default;

  struct Slot {
    std::string name; // interned: span records point at it for process life
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> nanos{0};
    std::atomic<std::int64_t> flops{0};
    std::atomic<std::int64_t> dram_bytes{0};
  };

  static constexpr int kChunkSlots = 64;
  static constexpr int kMaxChunks = 1024;

  /// Unlocked: a chunk pointer is written once, before any id inside it is
  /// handed out, and never changes afterwards.
  Slot& slot(int id) const { return chunks_[id / kChunkSlots][id % kChunkSlots]; }
  const Slot* find(std::string_view name) const; // caller holds mutex_
  static EventStats stats_of(const Slot& s);

  mutable std::mutex mutex_;
  std::map<std::string, int, std::less<>> ids_;
  int n_slots_ = 0;
  std::array<std::unique_ptr<Slot[]>, kMaxChunks> chunks_;
};

/// RAII begin/end of one event, and the one span type of the tracer.
class ScopedEvent {
public:
  explicit ScopedEvent(int id, std::initializer_list<obs::TraceArg> args = {}) : id_(id) {
    Profiler::instance().begin(id_, args);
  }
  explicit ScopedEvent(std::string_view name, std::initializer_list<obs::TraceArg> args = {})
      : ScopedEvent(Profiler::instance().event_id(name), args) {}
  ~ScopedEvent() { Profiler::instance().end(id_); }
  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;

private:
  int id_;
};

/// Simple stopwatch for ad-hoc timing.
class Stopwatch {
public:
  Stopwatch() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

} // namespace landau
