#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {
thread_local std::uint32_t tls_parent = 0;
}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

std::uint32_t SpanRecorder::open(std::int64_t* start_ns, std::uint32_t* saved_parent) {
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  *saved_parent = tls_parent;
  tls_parent = id;
  *start_ns = now_ns();
  return id;
}

void SpanRecorder::close(const char* name, std::int64_t start_ns, std::uint32_t id,
                         std::uint32_t saved_parent) {
  Span span;
  span.end_ns = now_ns();
  span.name = name;
  span.start_ns = start_ns;
  span.id = id;
  span.parent =
      saved_parent != 0 ? saved_parent : foreign_parent_.load(std::memory_order_relaxed);
  if (span.parent == id) span.parent = 0;  // the foreign parent itself
  span.night = night_.load(std::memory_order_relaxed);
  tls_parent = saved_parent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void SpanRecorder::write_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"night\":" << s.night << "}\n";
  }
}

std::map<std::string, double> SpanRecorder::self_ms_by_name(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      intervals.clear();
      for (const Span* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (const auto& [lo, hi] : intervals) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1.0e6;
  }
  return out;
}

}  // namespace perfbench
