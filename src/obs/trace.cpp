#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/error.h"
#include "util/logging.h"

namespace landau::obs {

namespace detail {
std::atomic<bool> g_trace_active{false};
} // namespace detail

namespace {

using clock = std::chrono::steady_clock;

/// Process-relative nanoseconds (epoch = first tracer touch).
std::int64_t since_epoch_ns(clock::time_point t) {
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

/// Completed-span ring of one thread. The owning thread writes under mu_;
/// snapshot() reads under the same lock — uncontended in steady state, so the
/// enabled hot path stays two clock reads plus one cheap lock.
struct ThreadBuffer {
  explicit ThreadBuffer(std::int32_t tid, std::size_t capacity) : tid_(tid) {
    ring_.resize(capacity);
  }

  void push(const SpanRecord& rec) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_[head_] = rec;
    head_ = (head_ + 1) % ring_.size();
    ++written_;
  }

  void collect(std::vector<SpanRecord>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t live = std::min<std::uint64_t>(written_, ring_.size());
    // Oldest surviving record sits at head_ when the ring has wrapped.
    std::size_t i = written_ > ring_.size() ? head_ : 0;
    for (std::uint64_t k = 0; k < live; ++k) {
      out.push_back(ring_[i]);
      i = (i + 1) % ring_.size();
    }
  }

  std::int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_ > ring_.size() ? static_cast<std::int64_t>(written_ - ring_.size()) : 0;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    head_ = 0;
    written_ = 0;
  }

  std::int32_t tid() const { return tid_; }

private:
  mutable std::mutex mu_;
  std::int32_t tid_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t written_ = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::int32_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry; // leaked: threads may record at exit
  return *r;
}

/// The calling thread's ring, created on first use; shared with the registry
/// so records survive thread exit.
ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    buffer = std::make_shared<ThreadBuffer>(reg.next_tid++, Tracer::instance().ring_capacity());
    reg.buffers.push_back(buffer);
  }
  return *buffer;
}

void write_trace_at_exit() {
  auto& t = Tracer::instance();
  if (t.enabled() && !t.path().empty()) {
    t.write_chrome_trace(t.path());
    std::fprintf(stderr, "%s", t.self_time_report().c_str());
  }
}

} // namespace

Tracer::Tracer() {
  since_epoch_ns(clock::now()); // pin the timestamp epoch before any span
  if (const char* env = std::getenv("LANDAU_TRACE"); env && *env) {
    path_ = env;
    enable();
  }
  std::atexit(write_trace_at_exit);
}

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer; // leaked: usable from other static dtors
  return *t;
}

namespace {
// Eager construction at load: Profiler::begin tests the global flag without
// ever touching instance(), so without this a binary that never calls
// instance() explicitly would leave LANDAU_TRACE unparsed and the env path
// dead.
const bool g_tracer_env_parsed = (Tracer::instance(), true);
} // namespace

void Tracer::enable() { detail::g_trace_active.store(true, std::memory_order_relaxed); }

void Tracer::disable() { detail::g_trace_active.store(false, std::memory_order_relaxed); }

void Tracer::set_ring_capacity(std::size_t spans) {
  ring_capacity_.store(std::max<std::size_t>(spans, 16), std::memory_order_relaxed);
}

void detail::record_span(const char* name, clock::time_point t0, clock::time_point t1, int depth,
                         const TraceArg* args, int n_args) {
  ThreadBuffer& buffer = thread_buffer();
  SpanRecord rec;
  rec.name = name;
  rec.t0_ns = since_epoch_ns(t0);
  rec.t1_ns = since_epoch_ns(t1);
  rec.tid = buffer.tid();
  rec.depth = depth;
  rec.n_args = n_args;
  std::copy(args, args + n_args, rec.args);
  buffer.push(rec);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    buffers = reg.buffers;
  }
  std::vector<SpanRecord> out;
  for (const auto& b : buffers) b->collect(out);
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.t1_ns > b.t1_ns;
  });
  return out;
}

std::int64_t Tracer::dropped() const {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::int64_t n = 0;
  for (const auto& b : reg.buffers) n += b->dropped();
  return n;
}

void Tracer::clear() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& b : reg.buffers) b->clear();
}

// ---------------------------------------------------------------------------
// Self-time tree
// ---------------------------------------------------------------------------

namespace {

/// Index-linked aggregation arena (SpanTreeNode's child vector would
/// invalidate pointers while the open-span stack still holds them).
struct BuildNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  std::vector<std::size_t> children;
};

std::size_t child_of(std::vector<BuildNode>& arena, std::size_t parent, const char* name) {
  for (std::size_t c : arena[parent].children)
    if (arena[c].name == name) return c;
  arena.push_back(BuildNode{name, 0, 0, 0, {}});
  arena[parent].children.push_back(arena.size() - 1);
  return arena.size() - 1;
}

SpanTreeNode convert(const std::vector<BuildNode>& arena, std::size_t i) {
  const BuildNode& b = arena[i];
  SpanTreeNode node;
  node.name = b.name;
  node.count = b.count;
  node.total_ns = b.total_ns;
  node.self_ns = std::max<std::int64_t>(0, b.total_ns - b.child_ns);
  node.children.reserve(b.children.size());
  for (std::size_t c : b.children) node.children.push_back(convert(arena, c));
  std::sort(node.children.begin(), node.children.end(),
            [](const SpanTreeNode& a, const SpanTreeNode& b2) { return a.total_ns > b2.total_ns; });
  return node;
}

void render(const SpanTreeNode& node, int depth, std::ostringstream& os) {
  std::string label(static_cast<std::size_t>(2 * depth), ' ');
  label += node.name;
  if (label.size() > 42) label.resize(42);
  os << std::left << std::setw(44) << label << std::right << std::setw(10) << node.count
     << std::setw(14) << std::fixed << std::setprecision(6) << 1e-9 * static_cast<double>(node.total_ns)
     << std::setw(14) << 1e-9 * static_cast<double>(node.self_ns) << "\n";
  for (const auto& c : node.children) render(c, depth + 1, os);
}

} // namespace

SpanTreeNode Tracer::build_tree() const {
  const auto records = snapshot();
  std::vector<BuildNode> arena;
  arena.push_back(BuildNode{"<root>", 0, 0, 0, {}});

  // Group by thread, reconstruct each thread's nesting by time containment,
  // and merge the paths of every thread into one tree.
  std::map<std::int32_t, std::vector<SpanRecord>> by_tid;
  for (const auto& r : records) by_tid[r.tid].push_back(r);
  for (auto& [tid, recs] : by_tid) {
    (void)tid;
    // snapshot() order (t0 asc, t1 desc) makes parents precede children.
    std::vector<std::pair<std::int64_t, std::size_t>> open; // (t1, arena index)
    for (const auto& r : recs) {
      while (!open.empty() && open.back().first <= r.t0_ns) open.pop_back();
      const std::size_t parent = open.empty() ? 0 : open.back().second;
      const std::size_t node = child_of(arena, parent, r.name);
      arena[node].count += 1;
      arena[node].total_ns += r.t1_ns - r.t0_ns;
      arena[parent].child_ns += r.t1_ns - r.t0_ns;
      open.emplace_back(r.t1_ns, node);
    }
  }
  for (std::size_t c : arena[0].children) arena[0].total_ns += arena[c].total_ns;
  return convert(arena, 0);
}

std::string Tracer::self_time_report() const {
  const SpanTreeNode root = build_tree();
  std::ostringstream os;
  os << "span self-time tree (" << dropped() << " span(s) dropped by ring wrap)\n";
  os << std::left << std::setw(44) << "span" << std::right << std::setw(10) << "count"
     << std::setw(14) << "total s" << std::setw(14) << "self s" << "\n";
  for (const auto& c : root.children) render(c, 0, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

JsonValue Tracer::chrome_trace() const {
  // The bare-array form of the trace-event format; chrome://tracing and
  // Perfetto both load it. Timestamps and durations are microseconds.
  JsonValue events = JsonValue::array();
  for (const auto& r : snapshot()) {
    JsonValue e = JsonValue::object();
    e.set("name", r.name);
    e.set("cat", "landau");
    e.set("ph", "X");
    e.set("ts", static_cast<double>(r.t0_ns) * 1e-3);
    e.set("dur", static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3);
    e.set("pid", 1);
    e.set("tid", r.tid);
    if (r.n_args > 0) {
      JsonValue args = JsonValue::object();
      for (int i = 0; i < r.n_args; ++i) {
        const TraceArg& a = r.args[i];
        if (a.is_double)
          args.set(a.key, a.d);
        else
          args.set(a.key, static_cast<long long>(a.i));
      }
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  return events;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    LANDAU_WARN("tracer: cannot open trace output '" << path << "'");
    return;
  }
  os << chrome_trace().dump() << "\n";
  LANDAU_INFO("tracer: wrote Chrome trace to '" << path << "'");
}

} // namespace landau::obs
