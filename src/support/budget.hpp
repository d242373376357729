// The unified solve budget (resource-governance subsystem, see DESIGN.md).
//
// A Budget is the one time bound of a solve: an optional wall-clock cutoff
// plus a cooperative cancellation token. The expensive loops (Steiner
// search, auxiliary-graph build, NLP inner loop) poll it and throw
// TimeoutError once the cutoff has passed or CancelledError once the token
// fired; the fallback ladder (fault/degrade.hpp) catches the former and
// retries with a cheaper algorithm. check() is the combined poll and
// Budget::Poller the strided variant for hot loops (cancellation is still
// observed on *every* poll — one relaxed load — only the clock read
// strides, so the cancellation-latency bound is measured in polls, not in
// clock reads). A default Budget is unlimited and uncancellable and costs
// one branch per poll — no clock read.
//
// There is no byte bound: the one memo, the ED-weight table, is sized once
// per TVEG (one slot per edge distance segment) and never grows.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/cancel.hpp"

namespace tveg::support {

/// Thrown by a solver whose Budget expired mid-search. Derives from
/// std::runtime_error (not logic_error): blowing a time budget is an
/// operational condition, not a bug.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wall-clock cutoff + cancellation, passed by value into solver options.
/// Copyable and cheap.
class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited in time; cancellable only through `cancel`.
  Budget() = default;
  explicit Budget(CancelToken cancel_token) : cancel(std::move(cancel_token)) {}

  /// Expires `ms` from now; a non-positive `ms` is already expired (useful
  /// for forcing the fallback path in tests).
  static Budget after_ms(double ms, CancelToken cancel_token = {}) {
    Budget b(std::move(cancel_token));
    b.limited_ = true;
    b.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   ms > 0 ? ms : 0));
    return b;
  }

  /// The token every poll ticks; pooled loops hand it to parallel_for so a
  /// cancelled solve drains the pool.
  CancelToken cancel;

  /// True when the budget carries a wall-clock cutoff.
  bool time_limited() const { return limited_; }

  /// True once the cutoff has passed (never for an unlimited budget).
  bool expired() const { return limited_ && Clock::now() >= at_; }

  /// The combined poll: heartbeat + CancelledError on a pending cancel,
  /// then TimeoutError on an expired cutoff. Cancellation is checked
  /// first — a force-cancelled stalled solve must surface as cancelled even
  /// when its cutoff also lapsed meanwhile. `where` names the phase.
  void check(const char* where) const {
    cancel.check(where);
    check_clock(where);
  }

  class Poller;

 private:
  void check_clock(const char* where) const {
    if (expired())
      throw TimeoutError(std::string("solve budget exceeded in ") + where);
  }

  bool limited_ = false;
  Clock::time_point at_{};
};

/// Strided budget poller for hot loops: every poll() ticks the cancel
/// token (relaxed load + heartbeat), but the clock is read only every
/// `stride` polls — check() reads the clock on every call, which adds up
/// when polled per inner iteration (the Steiner reverse sweep and the
/// level-2 density scan's first pass visit every vertex). Detection
/// latency is bounded by `stride` iterations, which the budgeted loops keep
/// well under a millisecond of work. Create one per loop (or per parallel
/// chunk — it is not thread-safe) and call poll() per iteration.
class Budget::Poller {
 public:
  explicit Poller(const Budget& budget, const char* where,
                  std::uint32_t stride = 64)
      : budget_(budget), where_(where), stride_(stride) {}

  /// One poll: throws CancelledError on a pending cancel, and TimeoutError
  /// on the striding clock reads once the cutoff has passed.
  void poll() {
    budget_.cancel.check(where_);
    if (++count_ >= stride_) {
      count_ = 0;
      budget_.check_clock(where_);
    }
  }

 private:
  Budget budget_;
  const char* where_;
  std::uint32_t stride_;
  std::uint32_t count_ = 0;
};

}  // namespace tveg::support
