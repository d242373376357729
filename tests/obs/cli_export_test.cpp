// End to end through the CLI: one `tmedb run` on the shipped N=20 trace with
// --trace-out and --metrics-out. The Perfetto file must validate and carry
// every pipeline phase on the main track; the metrics file, written before
// the trace, must already hold the run's span drops and cache counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/keys.hpp"
#include "obs/span.hpp"

namespace tveg::obs {
namespace {

Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// Completed entries summed over a "phases" subtree of the metrics export.
double tree_count(const Json& phases) {
  double total = 0;
  for (const Json& p : phases.items())
    total += p.find("count")->as_number() + tree_count(*p.find("children"));
  return total;
}

TEST(CliExport, RunWritesValidTraceAndLiveCounters) {
  const std::string trace_path = ::testing::TempDir() + "cli_export_trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "cli_export_metrics.json";
  const std::string cmd = std::string(TVEG_TMEDB) + " run " + TVEG_DATA_DIR +
                          "/haggle_like_n20.trace --deadline 10000" +
                          " --trace-out " + trace_path + " --metrics-out " +
                          metrics_path + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const Json trace = read_json(trace_path);
  const Json metrics = read_json(metrics_path);

  EXPECT_EQ(validate_chrome_trace(trace), "");

  // Every pipeline phase is a B/E pair on the main track.
  double main_tid = -1;
  for (const Json& e : trace.find("traceEvents")->items())
    if (e.find("ph")->as_string() == "M" &&
        e.find("name")->as_string() == "thread_name" &&
        e.find("args")->find("name")->as_string() == "main")
      main_tid = e.find("tid")->as_number();
  ASSERT_GE(main_tid, 0.0) << "no main track";
  std::map<std::string, int> begins;
  std::map<std::string, int> ends;
  double records = 0;  // ring records that made it into the file
  for (const Json& e : trace.find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "B" || ph == "X") ++records;
    if (e.find("tid")->as_number() != main_tid) continue;
    if (ph == "B") ++begins[e.find("name")->as_string()];
    if (ph == "E") ++ends[e.find("name")->as_string()];
  }
  for (const char* phase :
       {"dts_build", "aux_graph", "steiner", "prune", "monte_carlo"}) {
    EXPECT_GE(begins[phase], 1) << phase << " missing from the main track";
    EXPECT_EQ(begins[phase], ends[phase]) << phase;
  }

  // Every traced span closes into both the phase tree and a ring, and every
  // queue wait into both its histogram and a ring: what the file lacks was
  // dropped, and the metrics file must already count it.
  const Json* m = metrics.find("metrics");
  double pushed = tree_count(*metrics.find("phases"));
  const Json* queue_waits = m->find("histograms")->find(keys::kPoolQueueWaitUs);
  if (queue_waits != nullptr) pushed += queue_waits->find("count")->as_number();
  const Json* counters = m->find("counters");
  const Json* drops = counters->find(keys::kObsSpanDrops);
  ASSERT_NE(drops, nullptr) << "tveg.obs.span_drops missing from metrics";
  EXPECT_EQ(drops->as_number(), pushed - records);

  const Json* hits = counters->find(keys::kCacheHits);
  ASSERT_NE(hits, nullptr) << "tveg.cache.hits missing from metrics";
  EXPECT_GT(hits->as_number(), 0.0);
}

}  // namespace
}  // namespace tveg::obs
