#include "fault/degrade.hpp"

#include <exception>
#include <stdexcept>
#include <string>

#include "core/baselines.hpp"
#include "core/bip.hpp"
#include "core/eedcb.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace tveg::fault {

using support::Error;
using support::ErrorCode;

const char* rung_name(SolverRung rung) {
  switch (rung) {
    case SolverRung::kEedcb: return "eedcb";
    case SolverRung::kBip: return "bip";
    case SolverRung::kGreed: return "greed";
  }
  return "?";
}

namespace {

core::SchedulerResult run_rung(SolverRung rung,
                               const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options,
                               const support::Budget& budget) {
  switch (rung) {
    case SolverRung::kEedcb: {
      core::EedcbOptions eedcb = options.eedcb;
      eedcb.budget = budget;
      return core::run_eedcb(instance, dts, eedcb);
    }
    case SolverRung::kBip: {
      core::BipOptions bip;
      bip.budget = budget;
      return core::run_bip(instance, dts, bip);
    }
    case SolverRung::kGreed: {
      core::BaselineOptions greed;
      greed.rule = core::BaselineRule::kGreedy;
      return core::run_baseline(instance, dts, greed);
    }
  }
  throw std::logic_error("unknown rung");
}

void count_descent(const Error& error) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& descents = registry.counter(obs::keys::kFaultSolveDescents);
  static obs::Counter& timeouts = registry.counter(obs::keys::kFaultSolveTimeouts);
  descents.add(1);
  if (error.code == ErrorCode::kTimeout) timeouts.add(1);
}

}  // namespace

RobustSolveResult robust_solve(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options) {
  obs::Span span("robust_solve");
  instance.validate();
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& solves = registry.counter(obs::keys::kFaultSolveAttempts);
  static obs::Counter& degraded_metric =
      registry.counter(obs::keys::kFaultSolveDegraded);
  solves.add(1);

  // One budget for the whole ladder: a rung that burns the clock leaves
  // less for the next, and the final rung ignores what is left of the
  // time (but still honors the cancel token — cancellation is "stop", not
  // "try cheaper", and propagates as CancelledError).
  const support::Budget& budget = options.budget;
  const support::Budget last_budget(budget.cancel);

  // The second payload says whether the ladder is time-limited — never a
  // clock-derived number, so same-seed dumps stay byte-identical.
  using obs::FlightEventKind;
  obs::flight_recorder().record(FlightEventKind::kSolveStart,
                                static_cast<std::uint64_t>(options.start),
                                budget.time_limited() ? 1 : 0);

  static obs::Counter& skips = registry.counter(obs::keys::kFaultSolveRungSkips);

  RobustSolveResult out;
  SolverRung rung = options.start;
  for (;;) {
    const bool last = rung == SolverRung::kGreed;
    // Short-circuit a rung whose budget is already spent: entering it would
    // only burn scheduler setup (DTS walks, aux-graph allocation) before the
    // first poll threw anyway. The descent record is identical to the one a
    // first-poll timeout would have produced, so ladder observers (tests,
    // flight dumps) see the same shape either way — plus a rung_skipped
    // marker saying no solver work ran at all.
    if (!last && budget.expired()) {
      obs::flight_recorder().record(FlightEventKind::kDeadlineExpired,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
      obs::flight_recorder().record(FlightEventKind::kRungSkipped,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
      skips.add(1);
      Error skipped{ErrorCode::kTimeout,
                    std::string(rung_name(rung)) +
                        " skipped: ladder budget already expired",
                    -1};
      count_descent(skipped);
      obs::flight_recorder().record(
          FlightEventKind::kRungDemoted, static_cast<std::uint64_t>(rung),
          static_cast<std::uint64_t>(skipped.code), rung_name(rung));
      obs::flight_dump("fallback-ladder demotion");
      out.descents.push_back(std::move(skipped));
      rung = rung == SolverRung::kEedcb ? SolverRung::kBip : SolverRung::kGreed;
      continue;
    }
    obs::flight_recorder().record(FlightEventKind::kRungStart,
                                  static_cast<std::uint64_t>(rung), 0,
                                  rung_name(rung));
    Error descent{ErrorCode::kInternal, "", -1};
    try {
      out.result = run_rung(rung, instance, dts, options,
                            last ? last_budget : budget);
      if (out.result.covered_all || last) {
        out.rung = rung;
        obs::flight_recorder().record(FlightEventKind::kRungSelected,
                                      static_cast<std::uint64_t>(rung),
                                      out.descents.size(), rung_name(rung));
        if (out.degraded()) degraded_metric.add(1);
        return out;
      }
      descent = {ErrorCode::kInfeasible,
                 std::string(rung_name(rung)) +
                     " left nodes uncovered within the deadline",
                 -1};
    } catch (const support::CancelledError&) {
      throw;  // cancellation aborts the ladder, it never descends
    } catch (const support::TimeoutError& e) {
      descent = {ErrorCode::kTimeout, e.what(), -1};
      obs::flight_recorder().record(FlightEventKind::kDeadlineExpired,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
    } catch (const std::exception& e) {
      descent = {ErrorCode::kInternal,
                 std::string(rung_name(rung)) + " threw: " + e.what(), -1};
    }
    count_descent(descent);
    obs::flight_recorder().record(
        FlightEventKind::kRungDemoted, static_cast<std::uint64_t>(rung),
        static_cast<std::uint64_t>(descent.code), rung_name(rung));
    // A demotion is exactly the "what just happened?" moment the recorder
    // exists for: dump the ring before the next rung overwrites context.
    obs::flight_dump("fallback-ladder demotion");
    out.descents.push_back(std::move(descent));
    rung = rung == SolverRung::kEedcb ? SolverRung::kBip : SolverRung::kGreed;
  }
}

RobustFrResult robust_solve_fr(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options,
                               const core::AllocationOptions& alloc) {
  RobustFrResult out;
  out.backbone = robust_solve(instance, dts, options);
  out.allocation =
      core::allocate_energy(instance, out.backbone.result.schedule, alloc);
  return out;
}

}  // namespace tveg::fault
