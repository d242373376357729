// Wall-clock solve budgets with cooperative cancellation.
//
// A Deadline is a point in time a solver promises not to run past. The
// expensive loops (Steiner search, auxiliary-graph build) poll it through
// a strided support::Budget::Poller and throw TimeoutError when it has
// passed; the fallback ladder (fault/degrade.hpp) catches that and retries
// with a cheaper algorithm. Default-constructed deadlines are unlimited and
// cost one branch per poll — no clock read.
#pragma once

#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

namespace tveg::support {

/// Thrown by a solver whose Deadline expired mid-search. Derives from
/// std::runtime_error (not logic_error): blowing a time budget is an
/// operational condition, not a bug.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An optional wall-clock cutoff. Copyable and cheap; pass by value.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: never expires.
  Deadline() = default;

  /// Expires `budget_ms` from now; a non-positive budget is already expired
  /// (useful for forcing the fallback path in tests).
  static Deadline after_ms(double budget_ms) {
    Deadline d;
    d.limited_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   budget_ms > 0 ? budget_ms : 0));
    return d;
  }

  bool unlimited() const { return !limited_; }

  bool expired() const { return limited_ && Clock::now() >= at_; }

  /// Milliseconds until expiry; +inf when unlimited, 0 when expired.
  double remaining_ms() const {
    if (!limited_) return std::numeric_limits<double>::infinity();
    const auto left =
        std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
    return left > 0 ? left : 0;
  }

  /// Throws TimeoutError when expired; `where` names the phase for the
  /// message ("steiner", "aux_graph", ...).
  void check(const char* where) const {
    if (expired())
      throw TimeoutError(std::string("solve budget exceeded in ") + where);
  }

 private:
  bool limited_ = false;
  Clock::time_point at_{};
};

}  // namespace tveg::support
