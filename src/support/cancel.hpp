// Cooperative cancellation (resource-governance subsystem, see DESIGN.md).
//
// A CancelSource owns a shared flag; the CancelTokens it hands out are
// copied into solver options and polled from the hot loops. A poll is one
// relaxed atomic load — cheap enough for per-iteration checks — plus a
// relaxed counter increment that doubles as the liveness heartbeat the
// Watchdog (support/watchdog.hpp) monitors: a solve whose poll counter
// stops advancing is stuck in a non-polling region and can be force-
// cancelled from outside.
//
// Cancellation is *cooperative*: nothing is interrupted preemptively. The
// contract is that every budgeted loop polls often enough that a cancel
// request is observed within a bounded number of polls (the governance
// tests pin this bound).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace tveg::support {

/// Thrown by a solver whose CancelToken was triggered mid-search. Like
/// TimeoutError this is an operational condition, not a bug, hence
/// runtime_error.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Shared between one CancelSource and all its tokens.
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// Heartbeat: bumped on every token poll, watched by the Watchdog.
  std::atomic<std::uint64_t> polls{0};
  /// The poll count at which a poll fires the cancel itself
  /// (CancelSource::request_cancel_at_poll); never by default. Tokens copy
  /// it when they are made, so a poll reads no further shared state.
  std::atomic<std::uint64_t> cancel_at_poll{UINT64_MAX};
};
}  // namespace detail

/// The polling side. Copyable and cheap; a default-constructed token is
/// never cancelled and counts no polls (solvers run ungoverned by default).
class CancelToken {
 public:
  CancelToken() = default;

  /// True when a real source backs this token.
  bool valid() const { return state_ != nullptr; }

  bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
  }

  /// The poll: ticks the heartbeat and throws CancelledError when the
  /// source has requested cancellation. `where` names the phase.
  void check(const char* where) const {
    if (state_ == nullptr) return;
    tick();
    if (state_->cancelled.load(std::memory_order_relaxed))
      throw CancelledError(std::string("solve cancelled in ") + where);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)),
        cancel_at_poll_(
            state_->cancel_at_poll.load(std::memory_order_relaxed)) {}

  void tick() const {
    if (state_->polls.fetch_add(1, std::memory_order_relaxed) + 1 >=
        cancel_at_poll_)
      state_->cancelled.store(true, std::memory_order_relaxed);
  }

  std::shared_ptr<detail::CancelState> state_;
  std::uint64_t cancel_at_poll_ = UINT64_MAX;
};

/// The requesting side. Copies share the underlying state (so a Watchdog
/// can hold one while the solve holds another).
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancelToken token() const { return CancelToken(state_); }

  /// Requests cancellation; every token observes it on its next poll.
  /// Idempotent and safe from any thread.
  void request_cancel() const {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Test seam: cancels from inside the solve, on the poll that brings
  /// polls() to `poll` — a deterministic mid-solve cancel point, where a
  /// firer thread could be starved until the solve has ended. Applies to
  /// tokens made after the call.
  void request_cancel_at_poll(std::uint64_t poll) const {
    state_->cancel_at_poll.store(poll, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Total polls observed across all tokens — the heartbeat the Watchdog
  /// compares between ticks, and what the bounded-cancellation tests count.
  std::uint64_t polls() const {
    return state_->polls.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace tveg::support
