// The unified solve budget (resource-governance subsystem, see DESIGN.md).
//
// A Budget bundles the three resources a governed solve is accountable to:
//   deadline — wall-clock cutoff (throws TimeoutError when blown),
//   cancel   — cooperative cancellation token (throws CancelledError),
//   mem      — optional shared byte ledger for cache growth.
// Solver options carry one Budget instead of a bare Deadline; check() is
// the combined poll and Budget::Poller the strided variant for hot loops
// (cancellation is still observed on *every* poll — one relaxed load —
// only the clock read strides, so the cancellation-latency bound is
// measured in polls, not in clock reads).
//
// A Budget implicitly converts from a Deadline so existing deadline-only
// call sites (`options.budget = Deadline::after_ms(50)`) read naturally.
#pragma once

#include <cstdint>
#include <utility>

#include "support/cancel.hpp"
#include "support/deadline.hpp"
#include "support/mem_budget.hpp"

namespace tveg::support {

/// Deadline + cancellation + memory ledger, passed by value into solver
/// options (the MemBudget is shared by pointer; the caller owns it).
struct Budget {
  Deadline deadline;
  CancelToken cancel;
  MemBudget* mem = nullptr;

  Budget() = default;
  Budget(Deadline d) : deadline(d) {}  // NOLINT(implicit)
  Budget(Deadline d, CancelToken c, MemBudget* m = nullptr)
      : deadline(d), cancel(std::move(c)), mem(m) {}

  /// True when neither time-limited nor cancellable (the ungoverned
  /// default): pollers can skip work entirely.
  bool unlimited() const { return deadline.unlimited() && !cancel.valid(); }

  /// True when the budget is already spent (expired or cancelled) without
  /// throwing.
  bool exhausted() const { return cancel.cancelled() || deadline.expired(); }

  /// The combined poll: heartbeat + CancelledError on a pending cancel,
  /// then TimeoutError on an expired deadline. Cancellation is checked
  /// first — a force-cancelled stalled solve must surface as cancelled even
  /// when its deadline also lapsed meanwhile.
  void check(const char* where) const {
    cancel.check(where);
    deadline.check(where);
  }

  class Poller;
};

/// Strided budget poller for hot loops: every poll() ticks the cancel
/// token (relaxed load + heartbeat), but the deadline clock is read only
/// every `stride` polls — `Deadline::check` reads the clock on every call,
/// which adds up when polled per inner iteration (the level-2 density scan
/// visits every vertex per round). Detection latency is bounded by `stride`
/// iterations, which the budgeted loops keep well under a millisecond of
/// work. Create one per loop (or per parallel chunk — it is not
/// thread-safe) and call poll() per iteration.
class Budget::Poller {
 public:
  explicit Poller(const Budget& budget, const char* where,
                  std::uint32_t stride = 64)
      : cancel_(budget.cancel), deadline_(budget.deadline), where_(where),
        stride_(stride) {}

  /// One poll: throws CancelledError on a pending cancel, and TimeoutError
  /// on the striding clock reads once the deadline has passed.
  void poll() {
    cancel_.check(where_);
    if (++count_ >= stride_) {
      count_ = 0;
      deadline_.check(where_);
    }
  }

 private:
  CancelToken cancel_;
  Deadline deadline_;
  const char* where_;
  std::uint32_t stride_;
  std::uint32_t count_ = 0;
};

}  // namespace tveg::support
