// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened only by benchmark code, around each call into a layer
// of the program (server construction, submit, run; scheduler builds via
// the decorator; task steps and aggregation via the task wrappers). Each
// span carries a name whose prefix up to the first '.' is its layer, a
// start and end on the steady clock, the span that caused it, and the
// night (batch) it belongs to. Spans stay in memory and are written once,
// when the benchmark ends.
//
// With recording off, opening a span costs one relaxed load and a branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t night = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Night (batch) id stamped on every span opened from now on.
  void set_night(std::uint32_t night) { night_.store(night, std::memory_order_relaxed); }
  /// Parent for spans opened on threads that have no open span of their own
  /// (the phone agents): the server's run span while a batch is in flight.
  void set_foreign_parent(std::uint32_t id) {
    foreign_parent_.store(id, std::memory_order_relaxed);
  }

  std::uint32_t open(std::int64_t* start_ns, std::uint32_t* saved_parent);
  void close(const char* name, std::int64_t start_ns, std::uint32_t id,
             std::uint32_t saved_parent);

  std::vector<Span> take();
  void clear();

  /// Writes spans as one JSON object per line.
  static void write_jsonl(const std::vector<Span>& spans, const std::string& path);

  /// Self time in ms by span name: each span's duration minus the union of
  /// its children's intervals clipped to it, summed over spans of a name.
  static std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint32_t> night_{0};
  std::atomic<std::uint32_t> foreign_parent_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span; a no-op while recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    SpanRecorder& recorder = SpanRecorder::global();
    if (recorder.enabled()) id_ = recorder.open(&start_ns_, &saved_parent_);
  }
  ~ScopedSpan() {
    if (id_ != 0) SpanRecorder::global().close(name_, start_ns_, id_, saved_parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t saved_parent_ = 0;
};

}  // namespace perfbench
