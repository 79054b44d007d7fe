// Semantics of the event-trace recorder: the disabled path records
// nothing, the ring bounds memory by dropping oldest, snapshots give a
// (t, seq) total order, watermarks scope multi-run processes, the run
// clock is installable, and concurrent emitters never tear an event (the
// live server's poll loop and phone agents record from many threads).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

namespace cwc::obs {
namespace {

TraceEvent piece_event(JobId job, std::int32_t piece, Millis t) {
  TraceEvent event;
  event.type = TraceEventType::kPieceScheduled;
  event.t = t;
  event.value = static_cast<double>(job) * 1e6 + piece;
  event.job = job;
  event.piece = piece;
  return event;
}

TEST(TraceRecorder, DisabledRecorderIsANoOp) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.record(piece_event(1, 1, 0.0));
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(TraceRecorder, RecordsAndSnapshotsInTimeOrder) {
  TraceRecorder recorder;
  recorder.enable();
  recorder.record(piece_event(0, 0, 30.0));
  recorder.record(piece_event(0, 1, 10.0));
  recorder.record(piece_event(0, 2, 20.0));
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].t, 10.0);
  EXPECT_DOUBLE_EQ(events[1].t, 20.0);
  EXPECT_DOUBLE_EQ(events[2].t, 30.0);
  // Equal timestamps fall back to recording order via seq.
  recorder.record(piece_event(0, 3, 10.0));
  const auto again = recorder.snapshot();
  ASSERT_EQ(again.size(), 4u);
  EXPECT_EQ(again[0].piece, 1);
  EXPECT_EQ(again[1].piece, 3);
}

TEST(TraceRecorder, BoundedRingDropsOldestAndCounts) {
  TraceRecorder recorder;
  // 4 events per shard. Round-robin selection spreads a sequential writer
  // evenly, so total capacity is exactly 4 * kShards.
  const std::size_t capacity = 4 * TraceRecorder::kShards;
  recorder.enable(capacity);
  const std::size_t total = 3 * capacity;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record(piece_event(0, static_cast<std::int32_t>(i), static_cast<Millis>(i)));
  }
  EXPECT_EQ(recorder.events_recorded(), total);
  EXPECT_EQ(recorder.events_dropped(), total - capacity);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), capacity);
  // The survivors are exactly the newest `capacity` events.
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].piece, static_cast<std::int32_t>(total - capacity + k));
  }
}

TEST(TraceRecorder, WatermarkScopesSnapshotToLaterEvents) {
  TraceRecorder recorder;
  recorder.enable();
  recorder.record(piece_event(0, 0, 0.0));
  const std::uint64_t mark = recorder.watermark();
  recorder.record(piece_event(0, 1, 1.0));
  recorder.record(piece_event(0, 2, 2.0));
  const auto later = recorder.snapshot(mark);
  ASSERT_EQ(later.size(), 2u);
  EXPECT_EQ(later[0].piece, 1);
  EXPECT_EQ(later[1].piece, 2);
  EXPECT_EQ(recorder.snapshot().size(), 3u);
}

TEST(TraceRecorder, InstallableClockStampsNow) {
  TraceRecorder recorder;
  recorder.set_clock([] { return 1234.5; });
  EXPECT_DOUBLE_EQ(recorder.now(), 1234.5);
  recorder.set_clock(nullptr);
  // Default clock: monotonic wall ms, non-negative and non-decreasing.
  const Millis a = recorder.now();
  const Millis b = recorder.now();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TraceRecorder, ClearKeepsCapacityAndEnabledState) {
  TraceRecorder recorder;
  recorder.enable(8 * TraceRecorder::kShards);
  recorder.record(piece_event(0, 0, 0.0));
  recorder.clear();
  EXPECT_TRUE(recorder.enabled());
  EXPECT_TRUE(recorder.snapshot().empty());
  recorder.record(piece_event(0, 1, 0.0));
  EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST(TraceRecorder, EventNamesRoundTrip) {
  for (std::size_t i = 0; i < kTraceEventTypeCount; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    TraceEventType back = TraceEventType::kPieceScheduled;
    ASSERT_TRUE(trace_event_from_name(trace_event_name(type), back))
        << trace_event_name(type);
    EXPECT_EQ(back, type);
  }
  TraceEventType unused;
  EXPECT_FALSE(trace_event_from_name("no_such_event", unused));
}

// The torn-event check: concurrent emitters write a value that is a pure
// function of (job, piece). If locking ever let two writers interleave
// within one slot, a snapshot would surface an event whose value
// disagrees with its IDs. Run under ASan/TSan via tools/run_sanitizers.sh.
TEST(TraceRecorder, ConcurrentEmittersNeverTearEvents) {
  TraceRecorder recorder;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  recorder.enable(kThreads * kPerThread);  // nothing should drop
  std::vector<std::thread> threads;
  for (int thread = 0; thread < kThreads; ++thread) {
    threads.emplace_back([&recorder, thread] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(piece_event(thread, i, static_cast<Millis>(i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.events_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::uint64_t surviving =
      recorder.events_recorded() - recorder.events_dropped();
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), surviving);
  std::set<std::uint64_t> seqs;
  for (const TraceEvent& event : events) {
    ASSERT_GE(event.job, 0);
    ASSERT_LT(event.job, kThreads);
    ASSERT_GE(event.piece, 0);
    ASSERT_LT(event.piece, kPerThread);
    // The integrity invariant: value must match the IDs it was built from.
    ASSERT_DOUBLE_EQ(event.value, static_cast<double>(event.job) * 1e6 + event.piece);
    ASSERT_TRUE(seqs.insert(event.seq).second) << "duplicate seq " << event.seq;
  }
}

// snapshot(since) stops each shard's walk at the first event older than
// `since`, which is only sound if every shard's ring is in seq order even
// when several threads record at once and the rings have wrapped.
TEST(TraceRecorder, WatermarkSnapshotOfWrappedRingMatchesFilteredFull) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  recorder.enable(512);  // 64 per shard: wraps many times over
  std::vector<std::thread> threads;
  for (int thread = 0; thread < kThreads; ++thread) {
    threads.emplace_back([&recorder, thread] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(piece_event(thread, i, static_cast<Millis>(i)));
      }
    });
  }
  // Snapshots taken while the producers run hold shard locks, so producers
  // queue behind them and then record in an arbitrary order: the case in
  // which a seq stamped outside the lock would land out of order. The
  // recorder is switched off mid-run so the rings keep that contended
  // stretch rather than the uncontended tail.
  std::vector<std::uint64_t> marks = {0};
  while (recorder.events_recorded() < kThreads * kPerThread / 2) {
    marks.push_back(recorder.watermark());
    for (const TraceEvent& event : recorder.snapshot(marks.back())) {
      EXPECT_GE(event.seq, marks.back());
    }
  }
  recorder.disable();
  for (auto& thread : threads) thread.join();
  ASSERT_GT(recorder.events_dropped(), 0u);

  const auto full = recorder.snapshot();
  for (const TraceEvent& event : full) marks.push_back(event.seq);
  marks.push_back(recorder.watermark());
  for (const std::uint64_t mark : marks) {
    std::vector<TraceEvent> expected;
    for (const TraceEvent& event : full) {
      if (event.seq >= mark) expected.push_back(event);
    }
    ASSERT_EQ(recorder.snapshot(mark), expected) << "watermark " << mark;
  }
}

}  // namespace
}  // namespace cwc::obs
