#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "obs/metrics.h"

namespace cwc::obs {

namespace {

constexpr const char* kTypeNames[kTraceEventTypeCount] = {
    "piece_scheduled",      // kPieceScheduled
    "piece_shipped",        // kPieceShipped
    "piece_started",        // kPieceStarted
    "piece_progress",       // kPieceProgress
    "piece_completed",      // kPieceCompleted
    "piece_failed_online",  // kPieceFailedOnline
    "piece_failed_offline", // kPieceFailedOffline
    "piece_rescheduled",    // kPieceRescheduled
    "instant_begin",        // kInstantBegin
    "instant_end",          // kInstantEnd
    "capacity_probe",       // kCapacityProbe
    "risk_inflated",        // kRiskInflated
    "keepalive_sent",       // kKeepAliveSent
    "keepalive_missed",     // kKeepAliveMissed
    "throttle_state",       // kThrottleState
    "phone_registered",     // kPhoneRegistered
    "phone_replugged",      // kPhoneReplugged
    "fault_injected",       // kFaultInjected
    "retry_backoff",        // kRetryBackoff
    "quarantine",           // kQuarantine
    "speculative_launch",   // kSpeculativeLaunch
    "piece_cancelled",      // kPieceCancelled
    "pod_packed",           // kPodPacked
    "pod_rebalance",        // kPodRebalance
    "chunk_cache_hit",      // kChunkCacheHit
    "chunk_refetch",        // kChunkRefetch
    "link_partition",       // kLinkPartition
    "link_heal",            // kLinkHeal
    "send_stalled",         // kSendStalled
};

Millis default_clock() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

const char* trace_event_name(TraceEventType type) {
  const auto index = static_cast<std::size_t>(type);
  return index < kTraceEventTypeCount ? kTypeNames[index] : "unknown";
}

bool trace_event_from_name(std::string_view name, TraceEventType& out) {
  for (std::size_t i = 0; i < kTraceEventTypeCount; ++i) {
    if (name == kTypeNames[i]) {
      out = static_cast<TraceEventType>(i);
      return true;
    }
  }
  return false;
}

TraceRecorder::TraceRecorder() {
  // Pre-register the headline counters so idle runs export them
  // zero-valued (the PR-1 convention: a snapshot that lacks a metric is
  // ambiguous; a zero is a statement).
  counter("trace.events_recorded");
  counter("trace.events_dropped");
  counter("trace.export_bytes");
}

void TraceRecorder::enable(std::size_t capacity) {
  const std::size_t per_shard = std::max<std::size_t>(1, capacity / kShards);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.ring.size() != per_shard) {
      // Keep the newest `per_shard` events, oldest first, then re-ring.
      std::vector<TraceEvent> kept;
      kept.reserve(std::min(shard.count, per_shard));
      const std::size_t keep = std::min(shard.count, per_shard);
      for (std::size_t k = shard.count - keep; k < shard.count; ++k) {
        const std::size_t slot = (shard.head + shard.ring.size() - shard.count + k) %
                                 std::max<std::size_t>(1, shard.ring.size());
        kept.push_back(shard.ring[slot]);
      }
      shard.ring.assign(per_shard, TraceEvent{});
      std::copy(kept.begin(), kept.end(), shard.ring.begin());
      shard.count = kept.size();
      shard.head = kept.size() % per_shard;
    }
  }
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::disable() { enabled_.store(false, std::memory_order_release); }

void TraceRecorder::record(TraceEvent event) {
  if (!enabled()) return;
  Shard& shard =
      shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % kShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.ring.empty()) return;  // enabled flag raced an enable(); drop
    // Stamped under the shard lock, so each ring holds its events in seq
    // order; snapshot(since) relies on that to stop early.
    event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    if (shard.count == shard.ring.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // overwrites oldest
    } else {
      ++shard.count;
    }
    shard.ring[shard.head] = event;
    shard.head = (shard.head + 1) % shard.ring.size();
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

Millis TraceRecorder::now() const {
  std::function<Millis()> clock;
  {
    std::lock_guard<std::mutex> lock(clock_mutex_);
    clock = clock_;
  }
  return clock ? clock() : default_clock();
}

void TraceRecorder::set_clock(std::function<Millis()> clock) {
  std::lock_guard<std::mutex> lock(clock_mutex_);
  clock_ = std::move(clock);
}

std::vector<TraceEvent> TraceRecorder::snapshot(std::uint64_t since) const {
  publish_metrics();
  std::vector<TraceEvent> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Newest first: the ring is in seq order, so the first event below
    // `since` ends this shard's walk.
    const std::size_t size = shard.ring.size();
    for (std::size_t k = 1; k <= shard.count; ++k) {
      const TraceEvent& event = shard.ring[(shard.head + size - k) % size];
      if (event.seq < since) break;
      out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  return out;
}

void TraceRecorder::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.head = 0;
    shard.count = 0;
  }
}

void TraceRecorder::publish_metrics() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const std::uint64_t recorded = recorded_.load(std::memory_order_relaxed);
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (recorded > published_recorded_) {
    counter("trace.events_recorded").inc(static_cast<double>(recorded - published_recorded_));
    published_recorded_ = recorded;
  }
  if (dropped > published_dropped_) {
    counter("trace.events_dropped").inc(static_cast<double>(dropped - published_dropped_));
    published_dropped_ = dropped;
  }
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

}  // namespace cwc::obs
