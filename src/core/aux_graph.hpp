// The auxiliary graph of Sec. VI-A: reduces TMEDB on a DTS to the directed
// Steiner tree / MEMT problem.
//
// Vertices: u_{i,l} for every node i and DTS point l (clipped to the
// deadline), plus one power vertex x_{i,l,k} per discrete-cost-set level k.
// Arcs:
//   * chain     u_{i,l} → u_{i,l+1}       weight 0   ("still informed later")
//   * transmit  u_{i,l} → x_{i,l,k}       weight w^k ("pay level-k energy")
//   * deliver   x_{i,l,k} → u_{j,f}       weight 0   for every neighbor j
//                with edge weight <= w^k; t_{j,f} is the first DTS point of
//                j at or after t_{i,l} + τ.
// The power vertices realize Property 6.1(i) (broadcast nature): one payment
// of w^k reaches every neighbor at or below level k. The published
// construction writes t_{j,f} = t_{i,l} − τ; we read that as a typo for +τ
// (DESIGN.md, interpretive decision 1). Source u_{s,0}; terminals are each
// node's last clipped DTS vertex.
//
// Vertex-id scheme (DESIGN.md "Data layout & hot-path memory"): all u
// vertices come first, node-major — id(u_{i,l}) = point_offset_[i] + l — and
// every id >= first_power_vertex() is a power vertex, numbered in creation
// order. Both directions decode arithmetically; no per-vertex maps exist.
#pragma once

#include <vector>

#include "core/schedule.hpp"
#include "core/tveg.hpp"
#include "graph/digraph.hpp"
#include "graph/steiner.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"
#include "tvg/dts.hpp"

namespace tveg::core {

/// The auxiliary digraph plus the bookkeeping needed to translate a Steiner
/// tree back into a broadcast schedule.
class AuxGraph {
 public:
  /// Options for construction.
  struct Options {
    /// Disable the power-level expansion (ablation): transmit/deliver pairs
    /// collapse into one per-edge weighted arc, losing the broadcast
    /// advantage.
    bool power_expansion = true;
    /// Optional worker pool for the discrete-cost-set precompute (the
    /// expensive phase: one ED-function materialization per neighbor).
    /// Vertex ids are assigned in a serial pass either way, so parallel and
    /// serial builds produce byte-identical graphs. nullptr = serial.
    support::ThreadPool* pool = nullptr;
    /// Cooperative solve budget, polled (strided) across the DCS precompute
    /// in both serial and pooled builds. Default: unlimited.
    support::Budget budget;
  };

  /// Builds the auxiliary graph for `instance` over `dts`. The digraph is
  /// frozen (CSR form) before the constructor returns.
  AuxGraph(const TmedbInstance& instance, const DiscreteTimeSet& dts,
           Options options);
  /// As above with default options (power expansion on).
  AuxGraph(const TmedbInstance& instance, const DiscreteTimeSet& dts);

  const graph::Digraph& digraph() const { return g_; }
  graph::VertexId source_vertex() const { return source_; }
  const std::vector<graph::VertexId>& terminals() const { return terminals_; }
  std::size_t vertex_count() const {
    return static_cast<std::size_t>(g_.vertex_count());
  }
  std::size_t arc_count() const { return g_.arc_count(); }
  /// Wall time of the construction: the slot of its `aux_graph` span.
  double build_ms() const { return build_ms_; }

  /// Source vertex u_{s,0} for an alternative source node. The transmission
  /// structure is source-independent, so one AuxGraph built at a deadline
  /// serves every source/target combination at that deadline — the batching
  /// lever of fault::solve_many_governed(). Requires s's first DTS point to
  /// be time 0.
  graph::VertexId source_vertex_for(NodeId s) const;
  /// Terminal vertices for an alternative instance sharing this graph's
  /// TVEG and deadline.
  std::vector<graph::VertexId> terminals_for(
      const TmedbInstance& instance) const;

  /// Vertex u_{i,l}; l indexes the node's clipped DTS points.
  graph::VertexId node_vertex(NodeId i, std::size_t l) const;
  /// Number of clipped DTS points of node i.
  std::size_t point_count(NodeId i) const;
  /// Time of point l of node i.
  Time point_time(NodeId i, std::size_t l) const;

  /// First power-vertex id: every vertex v >= this is a power vertex
  /// x_{i,l,k}, every v < this is a node vertex u_{i,l}.
  graph::VertexId first_power_vertex() const { return first_power_; }
  /// Power vertices that carry a transmission (have an incoming transmit
  /// arc); skipped expansion levels leave dead id slots, not entries here.
  std::size_t live_power_vertex_count() const { return live_power_; }

  /// Translates a Steiner tree over this graph into a schedule: every tree
  /// arc entering a power vertex becomes one transmission; coalesced so a
  /// relay pays only its highest selected level per time point.
  Schedule extract_schedule(const graph::SteinerResult& tree) const;

 private:
  struct PowerInfo {
    NodeId relay;
    Time time;
    Cost cost;
  };

  std::size_t point_count_raw(std::size_t i) const {
    return point_offset_[i + 1] - point_offset_[i];
  }

  graph::Digraph g_;
  graph::VertexId source_ = graph::kNoVertex;
  std::vector<graph::VertexId> terminals_;
  /// Clipped DTS times of node i: point_times_[point_offset_[i] + l], which
  /// is also vertex u_{i,l}'s id — the arrays double as the id codec.
  std::vector<Time> point_times_;
  std::vector<std::size_t> point_offset_;  ///< size n+1
  graph::VertexId first_power_ = 0;
  /// power_info_[x - first_power_] decodes power vertex x. Dead slots
  /// (expansion levels with no reachable receiver) stay default-initialized;
  /// they have no incoming arcs, so no tree arc can ever reference them.
  std::vector<PowerInfo> power_info_;
  std::size_t live_power_ = 0;
  double build_ms_ = 0;
};

}  // namespace tveg::core
