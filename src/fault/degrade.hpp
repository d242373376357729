// Graceful solver degradation (robustness subsystem, layer 2).
//
// Production broadcast scheduling cannot answer "the solver blew its time
// budget" with a crash or an empty hand: something must transmit. The
// fallback ladder runs the requested scheduler under a wall-clock budget
// and, when it times out (or throws, or fails to cover), descends to
// structurally simpler rungs:
//
//     EEDCB  (Steiner pipeline, best energy, slowest)
//       ↓ timeout / error / uncovered
//     BIP    (incremental-power heuristic, mid energy, faster)
//       ↓ timeout / error / uncovered
//     GREED  (one greedy sweep, costliest, effectively never fails)
//
// The final rung always runs without a deadline and always returns a
// schedule — some schedule beats no schedule. Coverage at the bottom is
// best-effort: a timed-out rung leaves nothing behind, so when GREED's
// heuristic covers less than EEDCB would have with more budget, that
// shortfall is visible in result.covered_all (and counted as a descent
// when an earlier rung failed for it). Results are tagged with the rung
// that produced them and every descent is counted in the obs registry
// under tveg.fault.solve.*.
#pragma once

#include <vector>

#include "core/energy_allocation.hpp"
#include "core/fr.hpp"
#include "support/budget.hpp"
#include "support/result.hpp"
#include "tvg/dts.hpp"

namespace tveg::fault {

/// The ladder's rungs, best-first.
enum class SolverRung { kEedcb, kBip, kGreed };

const char* rung_name(SolverRung rung);

/// Options for one robust solve.
struct RobustSolveOptions {
  /// Budget for the whole ladder (e.g. support::Budget::after_ms(50));
  /// default unlimited. The final rung ignores what is left of the time
  /// (it must produce a schedule) but still observes the cancel token: a
  /// fired token makes robust_solve throw support::CancelledError instead
  /// of descending — cancellation means "stop", not "try cheaper".
  support::Budget budget;
  /// First rung to try (lower rungs are already their own fallback).
  SolverRung start = SolverRung::kEedcb;
  /// Scheduler options for the EEDCB rung; its `budget` is overridden by
  /// the ladder's.
  core::EedcbOptions eedcb;
};

/// A robust solve outcome: the schedule, the rung that produced it, and the
/// structured errors of every rung that was abandoned on the way down.
struct RobustSolveResult {
  core::SchedulerResult result;
  SolverRung rung = SolverRung::kEedcb;
  /// Why higher rungs were abandoned (kTimeout / kInternal / kInfeasible),
  /// in descent order; empty when the first rung succeeded.
  std::vector<support::Error> descents;

  bool degraded() const { return !descents.empty(); }
};

/// Runs the ladder on `instance` over `dts`. Never throws for timeouts or
/// rung failures (those are recorded in `descents`); only programming
/// errors (invalid instance) still propagate.
RobustSolveResult robust_solve(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options = {});

/// FR variant: backbone ladder on the (fading) instance followed by NLP
/// energy allocation with bounded retry (see AllocationOptions::max_retries).
struct RobustFrResult {
  RobustSolveResult backbone;
  core::AllocationOutcome allocation;
  const core::Schedule& schedule() const { return allocation.schedule; }
  bool feasible() const {
    return backbone.result.covered_all && allocation.feasible;
  }
};

RobustFrResult robust_solve_fr(
    const core::TmedbInstance& instance, const DiscreteTimeSet& dts,
    const RobustSolveOptions& options = {},
    const core::AllocationOptions& allocation_options = {});

}  // namespace tveg::fault
