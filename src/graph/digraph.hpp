// Static directed weighted graph: the substrate for the auxiliary graph of
// Sec. VI-A and the directed Steiner tree solvers that implement the MEMT
// reduction of Liang [3].
//
// Memory layout (DESIGN.md "Data layout & hot-path memory"): a Digraph is
// built arc-by-arc into a flat staging list and then *frozen* into CSR form
// — one contiguous arc array plus a V+1 offset table — before any traversal.
// Freezing is a stable counting sort, so each vertex's out-arcs keep their
// insertion order and every traversal (hence every schedule downstream) is
// byte-identical to the historical vector-of-vectors representation.
// Traversals on a never-frozen graph freeze it lazily on first access;
// mutation after freezing throws. freeze() is NOT safe to race with itself —
// construction happens on one thread before a graph is shared (AuxGraph and
// SteinerSolver both freeze eagerly at build time).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tveg::graph {

/// Vertex identifier in a static digraph (dense 0..V-1).
using VertexId = std::int32_t;

inline constexpr VertexId kNoVertex = -1;

/// One outgoing arc.
struct Arc {
  VertexId to;
  double weight;
};

/// Build-then-freeze CSR digraph with finite, non-negative arc weights.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(VertexId n);

  /// Appends a vertex, returning its id. Building-state only.
  VertexId add_vertex();
  /// Adds an arc from → to with a finite weight >= 0. Building-state only.
  void add_arc(VertexId from, VertexId to, double weight);
  /// Reserves staging capacity for `arcs` arcs (one allocation up front;
  /// AuxGraph computes the exact count before assembly).
  void reserve_arcs(std::size_t arcs);

  /// Compacts the staged arcs into the frozen CSR form (stable counting
  /// sort, O(V + E), single arena pass). Idempotent; implied by the first
  /// traversal of a never-frozen graph.
  void freeze();
  bool frozen() const { return frozen_; }
  /// freeze() through a const reference — the lazy path every traversal
  /// takes. Owners that share a graph across threads call it up front.
  void ensure_frozen() const;

  /// Returns to an empty building state with `n` vertices, keeping every
  /// buffer's capacity — the reuse hook for per-query scratch subgraphs.
  void reset(VertexId n);

  VertexId vertex_count() const { return vertices_; }
  std::size_t arc_count() const {
    return frozen_ ? arcs_.size() : staged_.size();
  }
  /// The out-arcs of v in insertion order (freezes a never-frozen graph).
  std::span<const Arc> out(VertexId v) const;

  /// The reversed graph, already frozen (the differential oracle of
  /// graph::distances_to). Per-vertex arc order is by (source vertex,
  /// position) — identical to the historical add_arc replay.
  Digraph reversed() const;

 private:
  void check_vertex(VertexId v) const;

  VertexId vertices_ = 0;
  bool frozen_ = false;
  /// Building state: staged arcs in insertion order, sources parallel to
  /// the Arc payloads (two flat arrays, no per-vertex allocations).
  std::vector<VertexId> staged_from_;
  std::vector<Arc> staged_;
  /// Frozen state: out(v) = arcs_[offsets_[v] .. offsets_[v+1]).
  std::vector<std::size_t> offsets_;
  std::vector<Arc> arcs_;
  /// Scatter cursors, kept as a member so reset()+freeze() cycles reuse the
  /// allocation.
  std::vector<std::size_t> cursor_;
};

/// Single-source shortest paths result.
struct ShortestPaths {
  std::vector<double> dist;       ///< +inf when unreachable
  std::vector<VertexId> parent;   ///< kNoVertex for source/unreachable
  std::size_t settled = 0;        ///< queue pops that expanded a vertex
  std::size_t relaxations = 0;    ///< successful distance improvements
};

/// Dijkstra from src (weights must be non-negative). The heap pops in
/// (dist, id) order and relaxes with a strict `<`, so among equal-cost
/// paths a vertex keeps the parent that first reached it — the tie-break the
/// forward trees, finalize() and the golden schedules depend on.
ShortestPaths dijkstra(const Digraph& g, VertexId src);

/// Vertex sequence src..dst from a ShortestPaths tree; empty if unreachable.
std::vector<VertexId> extract_path(const ShortestPaths& sp, VertexId dst);

}  // namespace tveg::graph
