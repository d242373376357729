// Machine-readable export of the observability state: one JSON document
// (schema "tveg-obs-1") combining the metrics registry and the phase tree,
// plus a flat CSV view of the metrics.
//
// Document layout:
//   {
//     "schema": "tveg-obs-1",
//     "metrics": {
//       "counters":   { "tveg.dts.builds": 3, ... },
//       "gauges":     { "tveg.aux.vertices": 812, ... },
//       "histograms": { "tveg.pool.queue_wait_us":
//                         {"count","sum","min","max","p50","p90","p99"} }
//     },
//     "phases": [ {"name","count","wall_ms","children":[...]} ],
//     "phase_totals": { "<phase name>": <wall_ms summed across the tree> }
//   }
#pragma once

#include <string>

#include "obs/json.hpp"

namespace tveg::obs {

/// The full snapshot as a structured value (for embedding, e.g. in bench
/// reports).
Json snapshot();

/// snapshot() serialized; indent as in Json::dump.
std::string snapshot_json(int indent = 2);

/// Per-phase attribution block (bench reports, bench_gate): a name-sorted
/// array of { name, count, wall_ms [, p50_ms, p95_ms, p99_ms] } joining the
/// aggregate phase tree with the tveg.obs.phase_ms.* duration histograms.
Json phase_attribution();

/// Flat CSV of the metrics registry:
///   kind,name,count,sum/value,min,max,p50,p90,p99
/// (counter/gauge rows fill only the value column).
std::string metrics_csv();

/// Writes snapshot_json() to `path` (throws std::runtime_error on I/O
/// failure). A ".csv" path gets metrics_csv() instead.
void write_snapshot_file(const std::string& path);

}  // namespace tveg::obs
