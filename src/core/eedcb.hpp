// EEDCB — energy-efficient delay-constrained broadcast (paper Sec. VI-A).
//
// Pipeline: build the DTS (Sec. V) → build the auxiliary graph (power-level
// expansion, Sec. VI-A) → solve directed Steiner tree to the per-node
// terminal vertices (the MEMT reduction of Liang [3]) → translate the tree
// back into a broadcast relay schedule. With a step-channel TVEG this solves
// TMEDB-S directly; with a fading TVEG the edge weights are the single-hop
// ε-costs, which makes the same pipeline the backbone-selection step of
// FR-EEDCB (Sec. VI-B).
#pragma once

#include "core/aux_graph.hpp"
#include "core/schedule.hpp"
#include "support/budget.hpp"
#include "tvg/dts.hpp"

namespace tveg::core {

/// Steiner solver choice for the MEMT step.
enum class SteinerMethod {
  /// Charikar recursive greedy — the algorithm behind the paper's O(N^ε)
  /// bound; `steiner_level` picks the level (1 or 2).
  kRecursiveGreedy,
  /// Union of shortest paths + prune; faster, no worst-case guarantee.
  kShortestPath,
};

/// EEDCB options.
struct EedcbOptions {
  SteinerMethod method = SteinerMethod::kRecursiveGreedy;
  int steiner_level = 2;
  DtsOptions dts;
  /// Ablation switch: false disables the broadcast-advantage expansion.
  bool power_expansion = true;
  /// Local-improvement post-pass on the extracted schedule (core/prune.hpp).
  bool prune = true;
  /// Unified solve budget (deadline + cancel token), polled between
  /// pipeline phases and inside the Steiner search; expiry raises
  /// support::TimeoutError, a fired token support::CancelledError. The
  /// fallback ladder (fault/degrade.hpp) catches the former and descends to
  /// a cheaper scheduler; the governance layer (fault/govern.hpp) catches
  /// both per request. Default: unlimited, non-cancellable.
  support::Budget budget;
  /// Optional worker pool for the aux graph's discrete-cost-set
  /// precompute; the Steiner search runs serially. Schedules are
  /// byte-identical with or without a pool (tests/diff pins this);
  /// nullptr = fully serial.
  support::ThreadPool* pool = nullptr;
};

/// Size and work diagnostics of one scheduler run. The *_ms phase timings
/// are always collected: each is the elapsed-time slot of the phase's
/// obs::Span, so they match the phase tree exactly when tracing is on
/// (obs::set_enabled(true)).
struct SchedulerStats {
  std::size_t dts_points = 0;
  std::size_t aux_vertices = 0;
  std::size_t aux_arcs = 0;
  std::size_t steiner_nodes_expanded = 0;
  std::size_t steiner_relaxations = 0;
  /// The DTS hit DtsOptions::max_points_per_node, so some journeys may be
  /// missing and Theorem 5.2's optimality no longer holds.
  bool dts_truncated = false;
  double aux_build_ms = 0;
  double steiner_ms = 0;
  double prune_ms = 0;
};

/// Outcome of a scheduler: a schedule plus whether the construction could
/// structurally reach every node (run check_feasibility for the full
/// condition (i)–(iv) verdict).
struct SchedulerResult {
  Schedule schedule;
  bool covered_all = false;
  SchedulerStats stats;
};

/// Runs EEDCB on `instance`.
SchedulerResult run_eedcb(const TmedbInstance& instance,
                          const EedcbOptions& options = {});

/// Runs EEDCB over a caller-provided DTS (lets sweeps reuse one DTS).
SchedulerResult run_eedcb(const TmedbInstance& instance,
                          const DiscreteTimeSet& dts,
                          const EedcbOptions& options = {});

/// Runs the Steiner + extraction + prune tail of EEDCB over a prebuilt
/// auxiliary graph and solver — the amortization point of the batch
/// (fault::solve_many_governed): one aux graph and one solver (with its
/// Dijkstra-tree cache) serve every instance sharing a TVEG and deadline.
/// `instance` may differ from the one the aux graph was built with in
/// source / targets / ε / budget only.
/// Produces the same schedule run_eedcb would.
SchedulerResult run_eedcb_on_aux(const TmedbInstance& instance,
                                 const DiscreteTimeSet& dts,
                                 const AuxGraph& aux,
                                 graph::SteinerSolver& solver,
                                 const EedcbOptions& options = {});

}  // namespace tveg::core
