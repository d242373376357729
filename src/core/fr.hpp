// Fading-resistant schedulers (paper Sec. VI-B): FR-EEDCB, FR-GREED and
// FR-RAND. Each runs its backbone-selection algorithm on a fading TVEG
// (where edge weights are single-hop ε-costs) and then re-allocates the
// transmission energies by the NLP of Eq. 14–17.
#pragma once

#include "core/baselines.hpp"
#include "core/eedcb.hpp"
#include "core/energy_allocation.hpp"

namespace tveg::core {

/// FR-EEDCB post-processing knobs.
struct FrOptions {
  /// NLP-aware backbone refinement: greedily drop transmissions whose
  /// removal lowers the *re-allocated* total cost. (Plain ε-cost pruning is
  /// counterproductive here — the NLP exploits coverage overlap to split
  /// failure budgets, so removing "redundant" coverage can raise the true
  /// objective.)
  bool refine_backbone = true;
  /// Each round removes at most one transmission; the loop stops early when
  /// no removal improves the allocated total.
  std::size_t max_refine_rounds = 32;
  /// Multi-start: also build the backbone with the *other* Steiner method
  /// (recursive greedy ↔ SPT) and keep whichever allocates cheaper. Halves
  /// the variance of the two-phase pipeline for 2× backbone work.
  bool multi_start = true;
};

/// Combined backbone + allocation outcome.
struct FrResult {
  /// Relays and times (costs are ε-costs). Under multi-start, `stats`
  /// times and Steiner work counters sum both attempts; sizes are the
  /// winner's.
  SchedulerResult backbone;
  AllocationOutcome allocation;  ///< NLP-optimized costs
  /// Final schedule (allocation.schedule); empty when allocation failed.
  const Schedule& schedule() const { return allocation.schedule; }
  bool feasible() const { return backbone.covered_all && allocation.feasible; }
};

/// FR-EEDCB: EEDCB backbone (without ε-cost pruning) + NLP allocation +
/// optional NLP-aware refinement. `instance.tveg` must use a fading channel
/// model.
FrResult run_fr_eedcb(const TmedbInstance& instance,
                      const EedcbOptions& eedcb_options = {},
                      const AllocationOptions& allocation_options = {},
                      const FrOptions& fr_options = {});

/// FR-GREED / FR-RAND: baseline backbone + NLP allocation (no refinement —
/// the paper's baselines are backbone + NLP only).
FrResult run_fr_baseline(const TmedbInstance& instance,
                         const BaselineOptions& baseline_options = {},
                         const AllocationOptions& allocation_options = {});

/// Variants over a caller-provided DTS.
FrResult run_fr_eedcb(const TmedbInstance& instance,
                      const DiscreteTimeSet& dts,
                      const EedcbOptions& eedcb_options = {},
                      const AllocationOptions& allocation_options = {},
                      const FrOptions& fr_options = {});
FrResult run_fr_baseline(const TmedbInstance& instance,
                         const DiscreteTimeSet& dts,
                         const BaselineOptions& baseline_options = {},
                         const AllocationOptions& allocation_options = {});

}  // namespace tveg::core
