// The tracing switch and the aggregate phase tree.
//
//   obs::set_enabled(true);
//   {
//     obs::Span span("steiner");   // nests under the caller's span
//     ... work ...
//   }                              // accumulates wall time + count
//
// obs::Span (obs/span.hpp) is the tree's only writer. The tree aggregates
// by (parent, name): re-entering the same phase under the same parent
// accumulates into one node, so repeated pipeline runs produce totals, not
// an ever-growing trace. Each thread tracks its own current span; spans
// opened on a ThreadPool worker nest under that worker's `pool_task` span.
// Every node also feeds the per-phase duration histogram
// `tveg.obs.phase_ms.<name>` (the bench-gate attribution source).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace tveg::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The one tracing switch: the phase tree, the phase histograms, the span
/// rings and the Chrome/Perfetto export all record while it is on. Off by
/// default.
void set_enabled(bool on) noexcept;
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Ensures the named phases exist as root children (zero counts if never
/// entered) — keeps exported schemas stable across algorithms that skip
/// phases. Works whether or not tracing is enabled.
void declare_phases(std::initializer_list<const char*> names);

/// One aggregated node of the phase tree.
struct TraceNodeSnapshot {
  std::string name;
  std::uint64_t count = 0;        ///< completed entries
  double wall_ms = 0;             ///< summed wall time
  std::vector<TraceNodeSnapshot> children;
};

/// Point-in-time copy of the root's children (the top-level phases).
std::vector<TraceNodeSnapshot> trace_snapshot();

/// Wall time summed by phase name across the whole tree, name-sorted —
/// the flat view exported as "phase_totals".
std::vector<std::pair<std::string, TraceNodeSnapshot>> phase_totals();

/// Drops the whole tree. Only call with no spans open (e.g. between CLI
/// commands or bench sections); open spans would accumulate into a node
/// that no longer exists.
void trace_reset();

/// Human-readable indented tree (the CLI's --trace stderr summary).
void trace_report(std::ostream& os);

}  // namespace tveg::obs
