// Time-varying energy-demand graphs (paper Def. 3.2).
//
// A Tveg couples a deterministic TVG (topology over time) with per-edge,
// per-time energy-demand functions derived from a channel model and a
// piecewise-constant distance profile: the cost function ψ of Def. 3.2 is
// realized by materializing the ED-function of edge e at time t on demand
// from (model, radio params, distance(e, t)).
#pragma once

#include <memory>
#include <vector>

#include "channel/ed_function.hpp"
#include "channel/profile.hpp"
#include "channel/radio.hpp"
#include "trace/contact_trace.hpp"
#include "tvg/dts.hpp"
#include "tvg/time_varying_graph.hpp"

namespace tveg::core {

class EdWeightCache;

/// One entry of a node's discrete cost set (Prop. 6.1): informing `neighbor`
/// from this node at the query time requires at least `cost`.
struct DcsEntry {
  Cost cost;
  NodeId neighbor;
};

/// A time-varying energy-demand graph bound to one channel model.
class Tveg {
 public:
  /// Channel-model options.
  struct Options {
    channel::ChannelModel model = channel::ChannelModel::kStep;
    /// Edge traversal latency τ (ζ(e, t) = τ).
    Time tau = 0.0;
    /// Nakagami shape (model == kNakagami only).
    double nakagami_m = 2.0;
    /// Rician K-factor (model == kRician only).
    double rician_k = 3.0;
  };

  /// Builds the TVEG induced by a contact trace: presence from the contacts,
  /// distance profiles from the per-contact distances.
  Tveg(const trace::ContactTrace& trace, channel::RadioParams radio,
       Options options);

  const TimeVaryingGraph& graph() const { return graph_; }
  const channel::RadioParams& radio() const { return radio_; }
  channel::ChannelModel model() const { return options_.model; }
  NodeId node_count() const { return graph_.node_count(); }
  Time horizon() const { return graph_.horizon(); }
  Time latency() const { return options_.tau; }

  /// Distance between a and b at time t (last profile sample at or before t).
  double distance(NodeId a, NodeId b, Time t) const;

  /// φ_t^{e_{a,b}}(w): failure probability of a transmission a→b starting at
  /// t with cost w. Returns 1 when the pair is not adjacent (Property
  /// 3.1(iii) together with ρ_τ).
  double failure_probability(NodeId a, NodeId b, Time t, Cost w) const;

  /// Materializes the ED-function of pair (a, b) at time t; requires
  /// adjacency at t.
  std::unique_ptr<channel::EdFunction> ed_function(NodeId a, NodeId b,
                                                   Time t) const;

  /// Deterministic-equivalent edge weight at t: for the step model the exact
  /// minimum decodable cost N0·γ_th/h (Eq. 2); for fading models the cost
  /// driving the single-hop failure probability down to ε — the backbone
  /// edge weight of Sec. VI-B. +inf when not adjacent.
  Cost edge_weight(NodeId a, NodeId b, Time t) const;

  /// Discrete cost set W^di of node i at time t (Sec. VI-A): edge weights to
  /// all adjacent neighbors, sorted ascending.
  std::vector<DcsEntry> discrete_cost_set(NodeId i, Time t) const;

  /// Channel-parameter breakpoints per node (distance profile changes),
  /// fed into DTS construction so every DTS interval has a constant channel.
  std::vector<std::vector<Time>> channel_breakpoints() const;

  /// Builds the DTS of this TVEG: topology partitions plus channel
  /// breakpoints (Sec. V).
  DiscreteTimeSet build_dts(DtsOptions options = {}) const;

  /// Attaches (or, with nullptr, detaches) a memoization cache. Every
  /// subsequent edge_weight / failure_probability / discrete_cost_set query
  /// is served from the cache; results are bit-identical to the uncached
  /// path (tests/diff pins this). The first attach binds the cache to this
  /// Tveg and sizes its table; attaching it to another Tveg is an error
  /// (step and fading views must not share one — their ED-functions
  /// differ). Not safe to call concurrently with queries; attach before
  /// solving.
  void attach_cache(std::shared_ptr<EdWeightCache> cache);
  const EdWeightCache* cache() const { return cache_.get(); }

  /// Materializes the ED-function of edge `e` at time `t` directly from the
  /// distance profile, bypassing the cache and the adjacency check — the
  /// filler the cache itself uses.
  std::unique_ptr<channel::EdFunction> materialize_ed(std::size_t e,
                                                      Time t) const;

  /// Dense index of (edge `e`, distance-profile segment at `t`) in
  /// [0, ed_slot_count()) — the memoization key: the channel is constant
  /// within one segment.
  std::size_t ed_slot(std::size_t e, Time t) const;
  std::size_t ed_slot_count() const { return slot_offset_.back(); }

  /// Graph edge id of pair (a, b), or npos when the pair never meets.
  std::size_t edge_index(NodeId a, NodeId b) const { return edge_of(a, b); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::size_t edge_of(NodeId a, NodeId b) const;  // npos when absent

  TimeVaryingGraph graph_;
  channel::RadioParams radio_;
  Options options_;
  /// Distance profile per graph edge id.
  std::vector<channel::PiecewiseConstantProfile> distance_;
  /// First ed_slot of each edge (prefix sums of profile sizes; one extra
  /// trailing entry holds the total).
  std::vector<std::size_t> slot_offset_;
  /// Optional memo for ED materialization / edge weights (lock-free reads).
  std::shared_ptr<EdWeightCache> cache_;
};

}  // namespace tveg::core
