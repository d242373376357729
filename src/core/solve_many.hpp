// Batch requests: one EEDCB instance of a sweep, minus the shared TVEG.
//
// The batch itself is fault::solve_many_governed (fault/govern.hpp): one
// DTS for the whole batch, one auxiliary graph + Steiner solver per
// distinct deadline, per-request budgets whose defaults mean no limit.
#pragma once

#include <vector>

#include "core/schedule.hpp"
#include "core/tveg.hpp"

namespace tveg::core {

/// One instance of a batch; fields mirror TmedbInstance minus the TVEG.
struct SolveRequest {
  NodeId source = 0;
  Time deadline = 0;
  /// Acceptable failure rate ε; <= 0 defers to the TVEG radio's ε.
  double epsilon = -1;
  /// Cost budget; < 0 means no budget.
  Cost budget = -1;
  /// Terminal set; empty = broadcast.
  std::vector<NodeId> targets;
};

/// The TmedbInstance a request denotes over `tveg` (what run_eedcb would be
/// handed for the equivalent one-shot solve).
inline TmedbInstance to_instance(const Tveg& tveg,
                                 const SolveRequest& request) {
  TmedbInstance instance;
  instance.tveg = &tveg;
  instance.source = request.source;
  instance.deadline = request.deadline;
  instance.epsilon = request.epsilon;
  instance.budget = request.budget;
  instance.targets = request.targets;
  return instance;
}

}  // namespace tveg::core
