// The batch entry point: many EEDCB requests over one TVEG, with
// per-request resource governance (robustness subsystem, layer 3 — above
// the fallback ladder of degrade.hpp).
//
// A sweep (benchmark panel, Monte-Carlo study, CLI batch) solves many
// instances over ONE TVEG that differ only in source / deadline / targets /
// ε / budget. The batch shares one caller-provided DTS, groups requests by
// deadline (exact equality, first-appearance order) and builds one
// auxiliary graph + SteinerSolver per group; the solver's Dijkstra-tree
// cache then serves every request of the group through the same
// run_eedcb_on_aux tail a one-shot run_eedcb takes, so schedules are
// byte-identical to per-request run_eedcb calls — tests/diff pins this.
//
// Each request runs under its own support::Budget (deadline + cancel token)
// and returns its own support::Result, so one pathological instance costs
// the batch exactly one error slot:
//
//   * a request that blows its budget triggers the fallback ladder
//     (shed-to-GREED) or, under ShedPolicy::kError, returns the timeout as
//     a structured error;
//   * a request cancelled by its token (caller or watchdog) returns
//     ErrorCode::kCancelled;
//   * a request past the max_inflight admission bound is shed immediately,
//     before any solver work;
//   * an optional watchdog force-cancels any request whose solve stops
//     polling its budget for a stall window (a wedged rung cannot wedge the
//     batch forever).
//
// Default GovernOptions mean no limit. Outcomes are counted under
// tveg.govern.* and tveg.batch.*, and landmark decisions (shed, stall,
// demotion) land in the flight recorder.
#pragma once

#include <cstddef>
#include <vector>

#include "core/eedcb.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/degrade.hpp"
#include "support/budget.hpp"
#include "support/result.hpp"
#include "tvg/dts.hpp"

namespace tveg::fault {

/// What to do with a request that exhausts its budget.
enum class ShedPolicy {
  /// Re-run the fallback ladder from GREED (always yields a schedule; the
  /// timeout is recorded in the outcome's descents).
  kDegrade,
  /// Return the timeout as a structured error — no schedule.
  kError,
};

/// Options for one governed batch.
struct GovernOptions {
  /// Per-request wall-clock budget in ms; < 0 = unlimited. Each request gets
  /// a FRESH deadline (unlike the ladder's shared one) so an expensive
  /// request cannot starve its successors.
  double request_budget_ms = -1;
  /// Admission bound: requests beyond the first `max_inflight` are shed
  /// without running (kTimeout under kDegrade still yields a GREED
  /// schedule; kError returns the shed as an error). 0 = unbounded.
  std::size_t max_inflight = 0;
  /// Budget-exhaustion policy (see ShedPolicy).
  ShedPolicy shed_policy = ShedPolicy::kDegrade;
  /// Stall window in ms for the watchdog: a request whose solve does not
  /// poll its budget for this long is force-cancelled. <= 0 disables the
  /// watchdog.
  double stall_ms = -1;
  /// Scheduler options for the primary attempt (budget/pool fields are
  /// overridden per request).
  core::EedcbOptions eedcb;
};

/// Outcome of one governed request.
struct GovernedSolve {
  /// The schedule (possibly from a degraded rung), or the structured error.
  support::Result<core::SchedulerResult> outcome{support::Error{}};
  /// Rung that produced the ok() outcome (kEedcb when ungoverned/clean).
  SolverRung rung = SolverRung::kEedcb;
  /// Descents of the shed ladder, when the request degraded.
  std::vector<support::Error> descents;
  /// True when the request never got its primary attempt (admission shed).
  bool shed = false;

  bool degraded() const { return !descents.empty(); }
};

/// Solves every request over one shared DTS with per-request isolation; see
/// the file comment for semantics. Outcomes are in request order.
///
/// Test seam: request r uses `cancels[r]` as its cancel source (shared
/// state — a harness can fire it mid-solve, and the watchdog cancels
/// through the same source). Requests beyond `cancels.size()` get a fresh
/// private source.
std::vector<GovernedSolve> solve_many_governed(
    const core::Tveg& tveg, const DiscreteTimeSet& dts,
    const std::vector<core::SolveRequest>& requests,
    const GovernOptions& options = {},
    const std::vector<support::CancelSource>& cancels = {});

}  // namespace tveg::fault
