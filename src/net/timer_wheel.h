// Hierarchical (hashed) timer wheel: O(1) schedule/cancel and O(ready)
// expiry for the event loop's deadlines — keep-alive periods, assign
// retries, RPC timeouts, reprobe backoffs, metrics ticks. Four levels of
// 256 slots at a 1 ms default tick cover ~50 days of horizon; timers
// beyond a level's span cascade down a level each time their slot comes
// up, standard hashed-wheel style.
//
// The wheel is deliberately clock-free: advance(now_ms) is the only way
// time moves, so unit tests drive it with virtual time and the event loop
// drives it with its monotonic clock. next_deadline_ms() tells the loop
// exactly how long it may sleep.
//
// Callback semantics, chosen so the server can use timers fearlessly:
//   - cancel() from inside a callback works, including cancelling another
//     timer that is due in the same advance() batch (it will not fire).
//   - schedule() from inside a callback works (re-arm); a zero or negative
//     delay rounds up to one tick, so a re-arming timer cannot livelock
//     the advancing loop.
//   - A timer fires at the first advance() whose now covers its deadline;
//     within one advance() batch, timers fire in deadline order. Same-tick
//     timers placed at the same level fire in schedule order; a timer that
//     cascaded down from a coarser level may fire after a same-tick timer
//     scheduled later but placed directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace cwc::net {

/// Handle for a scheduled timer; 0 is never a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerWheel {
 public:
  using Callback = std::function<void()>;

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;  // 256 per level
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  explicit TimerWheel(Millis tick_ms = 1.0);

  /// Arms a one-shot timer `delay_ms` from the wheel's current position.
  /// Delays round up to whole ticks, minimum one.
  TimerId schedule(Millis delay_ms, Callback callback);

  /// Disarms a timer. Returns false if it already fired or was cancelled.
  bool cancel(TimerId id);

  /// Moves the wheel forward to `now_ms`, firing every timer whose
  /// deadline was reached. Returns how many fired.
  std::size_t advance(Millis now_ms);

  /// Milliseconds from `now_ms` until the wheel next needs an advance()
  /// call, or nullopt when no timers are armed. For timers still parked
  /// in a coarse level this is the next cascade boundary, not the final
  /// deadline — the loop wakes, cascades, and recomputes; at most one
  /// extra wake per level per long timer.
  std::optional<Millis> next_deadline_ms(Millis now_ms) const;

  std::size_t pending() const { return timers_.size(); }
  Millis tick_ms() const { return tick_ms_; }
  /// The time of the tick the wheel last reached; schedule() delays count
  /// from here.
  Millis position_ms() const { return static_cast<Millis>(now_tick_) * tick_ms_; }

 private:
  struct Timer {
    std::uint64_t deadline_tick = 0;
    int level = 0;  // -1 while in the currently-firing batch
    std::uint32_t slot = 0;
    Callback callback;
  };

  void place(TimerId id, Timer& timer);
  void cascade(int level, std::uint32_t slot);
  std::size_t fire_current_slot();

  Millis tick_ms_;
  std::uint64_t now_tick_ = 0;
  TimerId next_id_ = 1;
  std::unordered_map<TimerId, Timer> timers_;
  std::vector<TimerId> slots_[kLevels][kSlots];
  // Live-timer counts per slot so next_deadline_ms() can scan occupancy
  // without touching the (lazily cleaned) slot vectors.
  std::uint32_t live_[kLevels][kSlots] = {};
};

}  // namespace cwc::net
