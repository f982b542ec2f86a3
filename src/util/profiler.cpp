#include "util/profiler.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.h"

namespace landau {
namespace {

using clock = std::chrono::steady_clock;

/// One open event on this thread; `traced` events keep their span arguments.
struct Frame {
  int id = -1;
  bool traced = false; // tracing was on at begin: end writes one span
  std::int32_t n_args = 0;
  obs::TraceArg args[obs::kMaxTraceArgs];
  clock::time_point start;
};

/// This thread's open events: frames[0, depth). Frames are reused, so a
/// begin writes only the fields it needs.
struct EventStack {
  std::vector<Frame> frames;
  std::size_t depth = 0;
};
thread_local EventStack tls_stack;

} // namespace

Profiler& Profiler::instance() {
  // Leaked so the interned event names stay valid in the span tracer's
  // at-exit trace writer, which can run after static destructors.
  static Profiler* p = new Profiler;
  return *p;
}

const Profiler::Slot* Profiler::find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? nullptr : &slot(it->second);
}

int Profiler::event_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = n_slots_;
  LANDAU_ASSERT(id < kChunkSlots * kMaxChunks,
                "profiler: more than " << kChunkSlots * kMaxChunks << " events");
  auto& chunk = chunks_[static_cast<std::size_t>(id / kChunkSlots)];
  if (!chunk) chunk = std::make_unique<Slot[]>(kChunkSlots);
  slot(id).name = std::string(name);
  ids_.emplace(std::string(name), id);
  ++n_slots_;
  return id;
}

void Profiler::begin(int id, std::initializer_list<obs::TraceArg> args) {
  EventStack& st = tls_stack;
  if (st.depth == st.frames.size()) st.frames.emplace_back();
  Frame& f = st.frames[st.depth++];
  f.id = id;
  f.traced = obs::tracing();
  f.n_args = 0;
  if (f.traced)
    for (const obs::TraceArg& a : args) {
      if (f.n_args == obs::kMaxTraceArgs) break;
      f.args[f.n_args++] = a;
    }
  f.start = clock::now();
}

void Profiler::end(int id) {
  const auto now = clock::now();
  // Unwind to the matching begin; mismatches indicate a bug but we stay
  // robust. Every popped frame that began traced writes its span.
  EventStack& st = tls_stack;
  while (st.depth > 0) {
    const Frame& f = st.frames[--st.depth];
    if (f.traced) {
      int depth = 0;
      for (std::size_t i = 0; i < st.depth; ++i) depth += st.frames[i].traced;
      obs::detail::record_span(slot(f.id).name.c_str(), f.start, now, depth, f.args, f.n_args);
    }
    if (f.id == id) {
      Slot& s = slot(id);
      s.nanos.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(now - f.start).count(),
                        std::memory_order_relaxed);
      s.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void Profiler::add(int id, double seconds, std::int64_t count) {
  slot(id).nanos.fetch_add(static_cast<std::int64_t>(seconds * 1e9), std::memory_order_relaxed);
  slot(id).count.fetch_add(count, std::memory_order_relaxed);
}

void Profiler::add_work(int id, std::int64_t flops, std::int64_t dram_bytes) {
  slot(id).flops.fetch_add(flops, std::memory_order_relaxed);
  slot(id).dram_bytes.fetch_add(dram_bytes, std::memory_order_relaxed);
}

EventStats Profiler::stats_of(const Slot& s) {
  EventStats es;
  es.name = s.name;
  es.count = s.count.load(std::memory_order_relaxed);
  es.seconds = 1e-9 * static_cast<double>(s.nanos.load(std::memory_order_relaxed));
  es.flops = s.flops.load(std::memory_order_relaxed);
  es.dram_bytes = s.dram_bytes.load(std::memory_order_relaxed);
  return es;
}

std::vector<EventStats> Profiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EventStats> out;
  out.reserve(static_cast<std::size_t>(n_slots_));
  for (int id = 0; id < n_slots_; ++id) out.push_back(stats_of(slot(id)));
  std::sort(out.begin(), out.end(),
            [](const EventStats& a, const EventStats& b) { return a.seconds > b.seconds; });
  return out;
}

EventStats Profiler::stats(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* s = find(name);
  return s ? stats_of(*s) : EventStats{std::string(name)};
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int id = 0; id < n_slots_; ++id) {
    Slot& s = slot(id);
    s.count.store(0, std::memory_order_relaxed);
    s.nanos.store(0, std::memory_order_relaxed);
    s.flops.store(0, std::memory_order_relaxed);
    s.dram_bytes.store(0, std::memory_order_relaxed);
  }
}

std::string Profiler::report() const {
  auto stats = snapshot();
  std::ostringstream os;
  os << std::left << std::setw(32) << "event" << std::right << std::setw(12) << "count"
     << std::setw(14) << "seconds" << std::setw(12) << "Mflops" << std::setw(12) << "MB"
     << "\n";
  for (const auto& s : stats) {
    if (s.count == 0 && s.flops == 0) continue;
    os << std::left << std::setw(32) << s.name << std::right << std::setw(12) << s.count
       << std::setw(14) << std::fixed << std::setprecision(6) << s.seconds << std::setw(12)
       << std::setprecision(1) << 1e-6 * static_cast<double>(s.flops) << std::setw(12)
       << std::setprecision(1) << 1e-6 * static_cast<double>(s.dram_bytes) << "\n";
  }
  return os.str();
}

} // namespace landau
