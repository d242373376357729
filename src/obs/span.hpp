// obs::Span — the one timing primitive (see DESIGN.md "Observability v2").
//
//   double steiner_ms = 0;
//   {
//     obs::Span span("steiner", &steiner_ms);
//     ... work ...
//   }   // steiner_ms written; tree, histogram and ring fed when enabled
//
// Every span has one close path feeding three sinks:
//   * the aggregate phase tree (obs/trace.hpp) and its
//     `tveg.obs.phase_ms.<name>` histogram, when tracing is enabled;
//   * the calling thread's span ring, when tracing is enabled — merged at
//     export time into Chrome/Perfetto `trace_event` JSON (loadable in
//     ui.perfetto.dev), so pool workers, the parallel Steiner/aux phases
//     and Monte-Carlo trials show up on their own thread tracks;
//   * the optional `elapsed_ms` slot, which is always written — it is how
//     SchedulerStats and other always-on timings read a phase's duration,
//     so each interval is timed exactly once.
//
// Cost model: with tracing disabled, a span without a slot is one relaxed
// atomic load and a branch — no clock read, no lock, no allocation. A span
// with a slot adds two steady_clock reads. When enabled, a close also takes
// a short uncontended per-thread mutex push into that thread's ring
// (contended only by an exporter). Rings are fixed-size; overflow drops the
// oldest records and counts them in tveg.obs.span_drops as it happens.
//
// Determinism note: span records carry steady_clock timestamps (allowed —
// monotonic, never feeds results); they exist for humans and Perfetto, not
// for the solver. Nothing here may read a wall clock (enforced by the
// tveg-lint `no-wall-clock-in-spans` rule).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"

namespace tveg::obs {

class Json;

/// RAII span. `name` must have static storage duration (string literals).
class Span {
 public:
  explicit Span(const char* name, double* elapsed_ms = nullptr) noexcept
      : name_(name), slot_(elapsed_ms) {
    if (elapsed_ms != nullptr || enabled()) open();
  }
  ~Span() {
    if (open_) close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open() noexcept;
  void close() noexcept;

  const char* name_;
  double* slot_;
  bool open_ = false;
  /// Stable phase-tree node (no lock on close); non-null iff tracing was on
  /// at open, so the close also feeds the tree and the ring.
  void* node_ = nullptr;
  std::size_t prev_ = 0;      ///< the thread's previous current phase
  std::uint64_t open_seq_ = 0;
  std::uint64_t begin_ns_ = 0;
};

/// Registers a human-readable name for the calling thread ("main",
/// "pool-worker-3"); shown as the Perfetto track name. Cheap; callable
/// whether or not tracing is enabled.
void set_current_thread_name(const std::string& name);

/// Records a queue-wait interval (task enqueue → dequeue) on the calling
/// worker's queue track; exported as a Perfetto complete ("X") event.
/// Records nothing while tracing is disabled.
void span_queue_wait(std::chrono::steady_clock::time_point enqueued,
                     std::chrono::steady_clock::time_point dequeued) noexcept;

/// Merges every thread's ring into one Chrome `trace_event` document:
///   { "traceEvents": [ {"ph":"M"...}, {"ph":"B"...}, {"ph":"E"...},
///                      {"ph":"X"...} ], "displayTimeUnit": "ms" }
/// Span records become matched B/E pairs on the owning thread's track (pid
/// 1, tid = thread slot); queue waits become X events on a per-worker
/// queue track (tid = slot + 1000); thread names become "M" metadata.
/// Within each tid, events are emitted in non-decreasing ts order.
Json chrome_trace();

/// chrome_trace() serialized.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; throws std::runtime_error on I/O
/// failure.
void write_chrome_trace_file(const std::string& path);

/// Structural validation of a Chrome trace_event document (used by tests
/// and the CI obs stage): traceEvents must be an array of objects carrying
/// ph/pid/tid/name, B/E/X events need numeric ts (X also dur >= 0), ts must
/// be non-decreasing per tid, and B/E pairs must match LIFO per tid.
/// Returns "" when valid, else the first violation.
std::string validate_chrome_trace(const Json& doc);

/// Records dropped to ring overflow since the last reset (the
/// tveg.obs.span_drops counter).
std::uint64_t span_drop_count() noexcept;

/// Clears every thread's ring and the drop counter (thread registrations
/// and names survive). Only call with no spans open and recording quiescent.
void span_reset();

}  // namespace tveg::obs
