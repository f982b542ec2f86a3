#include "exec/check.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/error.h"
#include "util/logging.h"

namespace landau::exec::check {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

namespace {

void parse_env(CheckOptions& o) {
  const char* env = std::getenv("LANDAU_CHECK_DEVICE");
  if (!env || !*env) return;
  std::string s(env);
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(',', start);
    const std::string tok =
        s.substr(start, end == std::string::npos ? std::string::npos : end - start);
    if (tok == "0" || tok == "off" || tok == "no") {
      o.enabled = false;
    } else if (tok == "1" || tok == "on" || tok == "yes" || tok.empty()) {
      o.enabled = true;
    } else if (tok == "strict") {
      o.enabled = o.strict = true;
    } else if (tok == "shuffle") {
      o.enabled = o.shuffle = true;
    } else {
      LANDAU_WARN("LANDAU_CHECK_DEVICE: ignoring unknown token '" << tok << "'");
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
}

} // namespace

CheckOptions& options() {
  static CheckOptions opts = [] {
    CheckOptions o;
    parse_env(o);
    return o;
  }();
  return opts;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

void describe_access(std::ostream& os, int block, int phase, int thread) {
  os << "block " << block << ", phase " << phase;
  if (thread == kUniformThread)
    os << ", uniform code";
  else
    os << ", thread " << thread;
}

} // namespace

std::string Report::str() const {
  std::ostringstream os;
  os << "device-check [" << kernel << "] " << category << ": " << buffer << "[" << index << "] (";
  describe_access(os, block, phase, thread);
  os << ")";
  if (prev_block != -2 && (category == kIntraBlockRace || category == kInterBlockRace)) {
    os << " conflicts with earlier access (";
    describe_access(os, prev_block, prev_phase, prev_thread);
    os << ")";
  }
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

// ---------------------------------------------------------------------------
// ShadowBuffer
// ---------------------------------------------------------------------------

ShadowBuffer::ShadowBuffer(KernelSession* session, std::string name, Space space,
                           const void* base, std::size_t words, std::size_t word_bytes, bool f64,
                           bool writable, bool initialized, int owner_block)
    : session_(session), name_(std::move(name)), space_(space), base_(base), words_(words),
      word_bytes_(word_bytes), f64_(f64), writable_(writable), initialized_(initialized),
      owner_block_(owner_block) {
  shadow_.resize(words_);
  if (initialized_)
    for (auto& w : shadow_) w.init = 1;
}

void ShadowBuffer::record(std::size_t index, Kind kind, const ThreadCtx& who) {
  // One lock per session: checked mode trades throughput for exact shadow
  // state; the clean path never reaches here. report() assumes this lock.
  std::lock_guard<std::mutex> lock(session_->mu_);
  ShadowWord& w = shadow_[index];
  const bool concurrent = session_->concurrent_;
  const char* detail = "";

  // Register isolation: a thread owns exactly its own slot; uniform code may
  // read (a broadcast) but never write a specific thread's register.
  if (space_ == Space::Register) {
    const bool bad = who.thread == kUniformThread
                         ? kind != Kind::Read
                         : index != static_cast<std::size_t>(who.thread);
    if (bad)
      session_->report(this, kRegisterIsolation, index, who, -2, -1, -3,
                       "registers are per-thread; use shfl_xor_sum_x to exchange values");
  }

  if (kind == Kind::Read) {
    if (!w.init)
      session_->report(this, kUninitRead, index, who, -2, -1, -3,
                       space_ == Space::Shared
                           ? "shared memory is uninitialized at allocation on hardware"
                           : "read of never-written device memory");
    if (w.w_kind != 0) {
      if (w.w_block == who.block) {
        if (who.thread != kUniformThread && w.w_thread != kUniformThread &&
            w.w_phase == who.phase && w.w_thread != who.thread)
          session_->report(this, kIntraBlockRace, index, who, w.w_block, w.w_phase, w.w_thread,
                           "read and write in the same phase without a sync between them");
      } else if (concurrent && space_ == Space::Global) {
        session_->report(this, kInterBlockRace, index, who, w.w_block, w.w_phase, w.w_thread,
                         w.w_kind == 2 ? "plain read of a word another block updates atomically"
                                       : "plain read of a word another block writes");
      }
    }
    w.r_block = who.block;
    w.r_phase = who.phase;
    w.r_thread = who.thread;
    return;
  }

  // Write or Atomic.
  const std::uint8_t new_kind = kind == Kind::Atomic ? 2 : 1;
  if (w.w_kind != 0) {
    const bool both_atomic = new_kind == 2 && w.w_kind == 2;
    if (w.w_block == who.block) {
      if (who.thread != kUniformThread && w.w_thread != kUniformThread &&
          w.w_phase == who.phase && w.w_thread != who.thread && !both_atomic)
        session_->report(this, kIntraBlockRace, index, who, w.w_block, w.w_phase, w.w_thread,
                         "two threads write the same word in the same phase");
    } else if (concurrent && space_ == Space::Global && !both_atomic) {
      detail = new_kind == 1 && w.w_kind == 1
                   ? "non-atomic writes from two blocks (atomicAdd required, \xc2\xa7III-F)"
                   : "atomic and plain writes from two blocks";
      session_->report(this, kInterBlockRace, index, who, w.w_block, w.w_phase, w.w_thread,
                       detail);
    }
  }
  if (w.r_block != -2) {
    if (w.r_block == who.block) {
      if (who.thread != kUniformThread && w.r_thread != kUniformThread &&
          w.r_phase == who.phase && w.r_thread != who.thread)
        session_->report(this, kIntraBlockRace, index, who, w.r_block, w.r_phase, w.r_thread,
                         "write after another thread's read in the same phase");
    } else if (concurrent && space_ == Space::Global) {
      session_->report(this, kInterBlockRace, index, who, w.r_block, w.r_phase, w.r_thread,
                       "write of a word another block reads");
    }
  }
  w.init = 1;
  w.w_block = who.block;
  w.w_phase = who.phase;
  w.w_thread = who.thread;
  w.w_kind = new_kind;
}

void ShadowBuffer::record_oob(std::size_t index, const ThreadCtx& who) {
  std::lock_guard<std::mutex> lock(session_->mu_);
  std::ostringstream os;
  os << "index " << index << " out of range [0," << words_ << ")";
  session_->report(this, kOutOfBounds, index, who, -2, -1, -3, os.str());
}

// ---------------------------------------------------------------------------
// KernelSession
// ---------------------------------------------------------------------------

KernelSession::KernelSession(std::string kernel, bool concurrent_blocks)
    : kernel_(std::move(kernel)), concurrent_(concurrent_blocks) {}

KernelSession::~KernelSession() = default;

ShadowBuffer* KernelSession::add_buffer(std::string name, Space space, const void* base,
                                        std::size_t words, std::size_t word_bytes, bool f64,
                                        bool writable, bool initialized, int owner_block) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ShadowBuffer>(this, std::move(name), space, base, words,
                                                    word_bytes, f64, writable, initialized,
                                                    owner_block));
  return buffers_.back().get();
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

} // namespace

void KernelSession::report(const ShadowBuffer* buf, const char* category, std::size_t index,
                           const ThreadCtx& who, int prev_block, int prev_phase, int prev_thread,
                           std::string detail) {
  // Dedup by (buffer identity, category, word): one report per distinct
  // defect keeps a racy kernel from flooding the log.
  const std::uint64_t key =
      mix64(reinterpret_cast<std::uintptr_t>(buf) ^ mix64(index) ^
            mix64(reinterpret_cast<std::uintptr_t>(static_cast<const void*>(category))));
  for (std::uint64_t k : dedup_)
    if (k == key) return;
  if (static_cast<int>(reports_.size()) >= options().max_reports_per_kernel) {
    if (!saturated_) {
      saturated_ = true;
      LANDAU_WARN("device-check [" << kernel_ << "]: report cap reached ("
                                   << options().max_reports_per_kernel
                                   << "), suppressing further reports for this launch");
    }
    return;
  }
  dedup_.push_back(key);
  Report r;
  r.kernel = kernel_;
  r.buffer = buf->name_;
  r.category = category;
  r.index = index;
  r.block = who.block;
  r.phase = who.phase;
  r.thread = who.thread;
  r.prev_block = prev_block;
  r.prev_phase = prev_phase;
  r.prev_thread = prev_thread;
  r.detail = std::move(detail);
  LANDAU_WARN(r.str());
  reports_.push_back(std::move(r));
}

std::size_t KernelSession::n_reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_.size();
}

std::vector<Report> KernelSession::take_reports() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Report> out;
  out.swap(reports_);
  return out;
}

void KernelSession::save_preimages() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    if (!b->writable_ || b->space_ != Space::Global) continue;
    const auto* p = static_cast<const std::byte*>(b->base_);
    b->preimage_.assign(p, p + b->words_ * b->word_bytes_);
  }
}

void KernelSession::snapshot_results() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    if (b->preimage_.empty()) continue;
    const auto* p = static_cast<const std::byte*>(b->base_);
    b->result_.assign(p, p + b->words_ * b->word_bytes_);
  }
}

void KernelSession::restore_preimages() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    if (b->preimage_.empty()) continue;
    std::memcpy(const_cast<void*>(b->base_), b->preimage_.data(), b->preimage_.size());
  }
}

void KernelSession::reset_shadow() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    for (auto& w : b->shadow_) w = ShadowWord{};
    if (b->initialized_)
      for (auto& w : b->shadow_) w.init = 1;
  }
}

void KernelSession::diff_schedules() {
  const double tol = options().shuffle_tol;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    if (b->result_.empty()) continue;
    const auto* now = static_cast<const std::byte*>(b->base_);
    std::size_t mismatches = 0;
    std::size_t first = 0;
    double worst = 0.0;
    if (b->f64_) {
      const auto* a = reinterpret_cast<const double*>(now);
      const auto* r = reinterpret_cast<const double*>(b->result_.data());
      for (std::size_t i = 0; i < b->words_; ++i) {
        const double scale = std::max({std::abs(a[i]), std::abs(r[i]), 1.0});
        const double rel = std::abs(a[i] - r[i]) / scale;
        if (rel > tol) {
          if (mismatches == 0) first = i;
          ++mismatches;
          worst = std::max(worst, rel);
        }
      }
    } else if (std::memcmp(now, b->result_.data(), b->result_.size()) != 0) {
      for (std::size_t i = 0; i < b->result_.size(); ++i)
        if (now[i] != b->result_[i]) {
          first = i / b->word_bytes_;
          mismatches = 1;
          break;
        }
    }
    if (mismatches > 0) {
      ThreadCtx who; // schedule diff has no single accessing block
      who.block = -1;
      who.phase = -1;
      std::ostringstream os;
      os << "block-schedule shuffle changed " << mismatches << " of " << b->words_ << " words";
      if (b->f64_) os << " (worst relative difference " << worst << ")";
      os << "; kernel output depends on block execution order";
      report(b.get(), kOrderDependent, first, who, -2, -1, -3, os.str());
    }
    // Restore the natural-order results so checked runs stay deterministic.
    std::memcpy(const_cast<void*>(b->base_), b->result_.data(), b->result_.size());
  }
}

// ---------------------------------------------------------------------------
// KernelScope
// ---------------------------------------------------------------------------

KernelScope::KernelScope(const char* kernel, bool concurrent_blocks) {
  if (options().enabled) session_ = std::make_unique<KernelSession>(kernel, concurrent_blocks);
}

KernelScope::~KernelScope() {
  if (!finished_) flush();
}

void KernelScope::flush() {
  finished_ = true;
  if (!session_) return;
  auto reports = session_->take_reports();
  if (!reports.empty())
    LANDAU_WARN("device-check [" << session_->kernel() << "]: " << reports.size()
                                 << " report(s)");
  DeviceChecker::instance().add(std::move(reports));
}

void KernelScope::finish() {
  if (!session_) {
    finished_ = true;
    return;
  }
  const std::size_t n = session_->n_reports();
  std::string first;
  if (n > 0 && options().strict) {
    auto reports = session_->take_reports();
    first = reports.front().str();
    DeviceChecker::instance().add(std::move(reports));
    finished_ = true;
    LANDAU_THROW("device-check strict mode: " << n << " report(s) in kernel '"
                                              << session_->kernel() << "'; first: " << first);
  }
  flush();
}

// ---------------------------------------------------------------------------
// DeviceChecker
// ---------------------------------------------------------------------------

DeviceChecker& DeviceChecker::instance() {
  static DeviceChecker checker;
  return checker;
}

void DeviceChecker::add(std::vector<Report> reports) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ += static_cast<long>(reports.size());
  constexpr std::size_t kMaxKept = 4096;
  for (auto& r : reports)
    if (reports_.size() < kMaxKept) reports_.push_back(std::move(r));
}

std::vector<Report> DeviceChecker::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

long DeviceChecker::count(const std::string& category) const {
  std::lock_guard<std::mutex> lock(mu_);
  long n = 0;
  for (const auto& r : reports_)
    if (r.category == category) ++n;
  return n;
}

long DeviceChecker::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void DeviceChecker::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  reports_.clear();
  total_ = 0;
}

// ---------------------------------------------------------------------------
// ScheduleShuffler
// ---------------------------------------------------------------------------

std::uint64_t ScheduleShuffler::next() {
  // splitmix64: deterministic, seedable, no <random> state size concerns.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> ScheduleShuffler::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = next() % i;
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

} // namespace landau::exec::check
