// Shared experiment harness: one trace → step & Rayleigh TVEG views, a
// shared DTS, and a uniform "run algorithm X" entry point. Every figure
// bench and several integration tests sit on top of this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/radio.hpp"
#include "core/ed_weight_cache.hpp"
#include "core/fr.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/govern.hpp"
#include "sim/monte_carlo.hpp"
#include "support/thread_pool.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::sim {

/// The six algorithms of the paper's evaluation (Sec. VII).
enum class Algorithm {
  kEedcb,
  kGreed,
  kRand,
  kFrEedcb,
  kFrGreed,
  kFrRand,
};

/// "EEDCB", "GREED", ... as printed in the figures.
const char* algorithm_name(Algorithm a);

/// True for the FR-* algorithms (backbone on fading weights + NLP).
bool fading_resistant(Algorithm a);

/// All six, in the paper's order.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kEedcb,   Algorithm::kGreed,   Algorithm::kRand,
    Algorithm::kFrEedcb, Algorithm::kFrGreed, Algorithm::kFrRand,
};

/// The paper's radio parameter set (Sec. VII).
channel::RadioParams paper_radio();

/// One trace instrumented with both channel views and a shared DTS.
class Workbench {
 public:
  /// Options applied to all runs from this workbench.
  struct Options {
    Time tau = 0.0;
    core::SteinerMethod steiner_method =
        core::SteinerMethod::kRecursiveGreedy;
    int steiner_level = 2;
    DtsOptions dts;
    /// Worker threads for the parallel pipeline phases; 0 = fully serial
    /// (the differential-testing oracle). Schedules are byte-identical for
    /// every thread count.
    std::size_t threads = 0;
  };

  Workbench(const trace::ContactTrace& trace, channel::RadioParams radio,
            Options options);
  /// As above with default options.
  Workbench(const trace::ContactTrace& trace, channel::RadioParams radio);

  const core::Tveg& step() const { return *step_; }
  const core::Tveg& fading() const { return *fading_; }
  const DiscreteTimeSet& dts() const { return dts_; }

  /// Instance against the step view (EEDCB/GREED/RAND run here).
  core::TmedbInstance step_instance(NodeId source, Time deadline) const;
  /// Instance against the Rayleigh view (FR-* run here; Fig. 6 evaluates
  /// every schedule here).
  core::TmedbInstance fading_instance(NodeId source, Time deadline) const;

  /// One algorithm run.
  struct RunOutcome {
    core::Schedule schedule;
    bool covered_all = false;        ///< backbone reached every node
    bool allocation_feasible = true; ///< NLP solved (FR-* only)
    double normalized_energy = 0;    ///< Σw / (N0·γ_th)
    /// Backbone scheduler diagnostics (sizes + phase timings); zero for the
    /// baseline rules, which bypass the EEDCB pipeline.
    core::SchedulerStats stats;
  };

  /// Runs `algorithm` from `source` under `deadline`; `seed` drives RAND.
  RunOutcome run(Algorithm algorithm, NodeId source, Time deadline,
                 std::uint64_t seed = 1) const;

  /// EEDCB batch over the workbench's shared DTS (fault::solve_many_governed):
  /// one auxiliary graph and Steiner solver per distinct deadline, plus
  /// per-request budgets, isolation, optional watchdog and shedding. The
  /// workbench overwrites `options.eedcb` with eedcb_options(). Un-governed
  /// requests produce schedules byte-identical to per-request
  /// run(kEedcb, ...) calls.
  std::vector<fault::GovernedSolve> run_many_eedcb_governed(
      const std::vector<core::SolveRequest>& requests,
      fault::GovernOptions options = {}) const;

  /// The scheduler options every EEDCB run of this workbench uses (Steiner
  /// method and level, DTS options, worker pool), for callers that drive
  /// the pipeline through another entry point (the fallback ladder).
  core::EedcbOptions eedcb_options() const;

  /// Monte-Carlo delivery of `schedule` under the fading view (Fig. 6(b)).
  DeliveryStats delivery_under_fading(NodeId source,
                                      const core::Schedule& schedule,
                                      const McOptions& mc = {}) const;

 private:
  Options options_;
  std::unique_ptr<support::ThreadPool> pool_;
  std::unique_ptr<core::Tveg> step_;
  std::unique_ptr<core::Tveg> fading_;
  DiscreteTimeSet dts_;
};

}  // namespace tveg::sim
