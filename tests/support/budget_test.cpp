// Resource-governance primitives: CancelToken/CancelSource semantics, the
// unified Budget poll (cancellation wins over timeout), the strided
// pollers, and the stall Watchdog.
#include "support/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "support/watchdog.hpp"

namespace tveg::support {
namespace {

TEST(CancelToken, DefaultTokenIsInertAndFree) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("anywhere"));
}

TEST(CancelToken, SourceCancelReachesEveryToken) {
  const CancelSource source;
  const CancelToken a = source.token();
  const CancelToken b = source.token();
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  EXPECT_NO_THROW(a.check("steiner"));

  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_THROW(b.check("steiner"), CancelledError);
  try {
    a.check("aux_dcs");
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("aux_dcs"), std::string::npos);
  }
}

TEST(CancelToken, PollsCountAsHeartbeat) {
  const CancelSource source;
  const CancelToken token = source.token();
  EXPECT_EQ(source.polls(), 0u);
  token.check("a");
  token.check("a");
  token.check("a");
  EXPECT_EQ(source.polls(), 3u);

  // Copies of the source share the same heartbeat (the watchdog holds one
  // while the solve holds another).
  const CancelSource copy = source;  // NOLINT(performance-*)
  EXPECT_EQ(copy.polls(), 3u);
  copy.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
}

TEST(Budget, DefaultIsUnlimitedAndAfterMsExpires) {
  const Budget unlimited;
  EXPECT_FALSE(unlimited.time_limited());
  EXPECT_FALSE(unlimited.cancel.valid());
  EXPECT_FALSE(unlimited.expired());
  EXPECT_NO_THROW(unlimited.check("x"));

  const Budget timed = Budget::after_ms(0);
  EXPECT_TRUE(timed.time_limited());
  EXPECT_TRUE(timed.expired());
  EXPECT_THROW(timed.check("x"), TimeoutError);

  // A cancel-only budget (the ladder's final rung) never times out.
  const CancelSource source;
  const Budget cancel_only(source.token());
  EXPECT_FALSE(cancel_only.time_limited());
  EXPECT_TRUE(cancel_only.cancel.valid());
  EXPECT_NO_THROW(cancel_only.check("x"));
}

TEST(Budget, CancellationWinsOverExpiredDeadline) {
  // A force-cancelled stalled solve must surface as cancelled even when its
  // deadline also lapsed while it was stuck.
  const CancelSource source;
  source.request_cancel();
  const Budget budget = Budget::after_ms(0, source.token());
  EXPECT_TRUE(budget.expired());
  EXPECT_TRUE(budget.cancel.cancelled());
  EXPECT_THROW(budget.check("x"), CancelledError);
}

TEST(DeadlinePoller, ReadsTheClockEveryStridePolls) {
  const Budget expired = Budget::after_ms(0);
  Budget::Poller poller(expired, "loop", /*stride=*/4);
  // Three polls stay clock-free; the fourth hits the stride boundary.
  EXPECT_NO_THROW(poller.poll());
  EXPECT_NO_THROW(poller.poll());
  EXPECT_NO_THROW(poller.poll());
  EXPECT_THROW(poller.poll(), TimeoutError);
}

TEST(BudgetPoller, CancelIsObservedOnEveryPollRegardlessOfStride) {
  const CancelSource source;
  const Budget budget(source.token());
  Budget::Poller poller(budget, "loop", /*stride=*/1024);
  EXPECT_NO_THROW(poller.poll());
  source.request_cancel();
  // The very next poll throws — the stride only defers clock reads.
  EXPECT_THROW(poller.poll(), CancelledError);
}

TEST(BudgetPoller, ExpiredDeadlineSurfacesWithinOneStride) {
  const Budget budget = Budget::after_ms(0);
  Budget::Poller poller(budget, "loop", /*stride=*/8);
  bool threw = false;
  for (int i = 0; i < 8 && !threw; ++i) {
    try {
      poller.poll();
    } catch (const TimeoutError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(Watchdog, ForceCancelsASolveThatStopsPolling) {
  Watchdog dog(Watchdog::Options{.stall_ms = 20, .tick_ms = 5});
  const CancelSource source;
  const std::uint64_t handle = dog.watch(source);

  // The source never polls: the watchdog must declare a stall and cancel.
  for (int i = 0; i < 400 && !source.cancel_requested(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_GE(dog.stalls(), 1u);
  dog.unwatch(handle);
  dog.unwatch(handle);  // idempotent
}

TEST(Watchdog, DoesNotCancelBeforeTheStallWindow) {
  // A generous window: unwatching after a few heartbeats can never race the
  // stall declaration.
  Watchdog dog(Watchdog::Options{.stall_ms = 60000});
  const CancelSource source;
  {
    const Watchdog::Scope scope(dog, source);
    const CancelToken token = source.token();
    for (int i = 0; i < 5; ++i) {
      token.check("solve");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(source.cancel_requested());
  }
  EXPECT_EQ(dog.stalls(), 0u);
}

TEST(Watchdog, FrequentHeartbeatsAreNeverAStall) {
  // Explicit tick: the monitor samples often, the solve polls much faster
  // than the (scheduling-noise-proof) one-second window.
  Watchdog dog(Watchdog::Options{.stall_ms = 1000, .tick_ms = 20});
  const CancelSource source;
  const Watchdog::Scope scope(dog, source);
  const CancelToken token = source.token();
  for (int i = 0; i < 20; ++i) {
    token.check("solve");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(source.cancel_requested());
  EXPECT_EQ(dog.stalls(), 0u);
}

}  // namespace
}  // namespace tveg::support
