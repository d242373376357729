// Flight recorder: lock-free recording semantics, byte-stable dumps for a
// fixed seed, ring retention, and the auto-dump trigger on a forced
// fallback-ladder demotion.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/degrade.hpp"
#include "trace/generators.hpp"

namespace tveg::obs {
namespace {

struct RecorderGuard {
  RecorderGuard() {
    flight_recorder().reset();
    set_flight_dump_path("");
  }
  ~RecorderGuard() {
    flight_recorder().reset();
    set_flight_dump_path("");
  }
};

TEST(FlightRecorder, RecordsAndDumpsInOrder) {
  RecorderGuard guard;
  FlightRecorder& rec = flight_recorder();
  rec.record(FlightEventKind::kSolveStart, 0, 100);
  rec.record(FlightEventKind::kRungStart, 0, 0, "eedcb");
  rec.record(FlightEventKind::kRungDemoted, 0, 2, "eedcb");
  const std::string dump = rec.dump_string();
  EXPECT_NE(dump.find("flight-recorder: 3 event(s), 3 retained"),
            std::string::npos);
  const std::size_t p0 = dump.find("#0 solve_start");
  const std::size_t p1 = dump.find("#1 rung_start");
  const std::size_t p2 = dump.find("#2 rung_demoted");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
}

TEST(FlightRecorder, RingRetainsOnlyLastCapacityEvents) {
  RecorderGuard guard;
  FlightRecorder& rec = flight_recorder();
  const std::size_t total = FlightRecorder::kCapacity + 40;
  for (std::size_t i = 0; i < total; ++i)
    rec.record(FlightEventKind::kNote, i);
  EXPECT_EQ(rec.recorded(), total);
  const std::string dump = rec.dump_string();
  // Oldest retained is #40; #39 must be gone.
  EXPECT_EQ(dump.find("#39 "), std::string::npos);
  EXPECT_NE(dump.find("#40 "), std::string::npos);
  EXPECT_NE(dump.find("#" + std::to_string(total - 1) + " "),
            std::string::npos);
}

TEST(FlightRecorder, ConcurrentWritersNeverCorruptTheDump) {
  RecorderGuard guard;
  FlightRecorder& rec = flight_recorder();
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w)
    writers.emplace_back([&rec, w] {
      for (std::uint64_t i = 0; i < 2000; ++i)
        rec.record(FlightEventKind::kNote, static_cast<std::uint64_t>(w), i);
    });
  // Dump concurrently with the writers: may skip in-flight slots but must
  // not crash or emit torn lines.
  for (int i = 0; i < 20; ++i) {
    const std::string d = rec.dump_string();
    EXPECT_NE(d.find("flight-recorder:"), std::string::npos);
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rec.recorded(), 4u * 2000u);
}

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

/// A zero-budget robust_solve: both upper rungs demote on timeout, so the
/// recorder sees a deterministic event sequence and the auto-dump fires.
std::string forced_demotion_dump(const std::string& path) {
  flight_recorder().reset();
  set_flight_dump_path(path);

  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.35;
  cfg.seed = 1;
  const trace::ContactTrace t = trace::generate_snapshots(cfg);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  fault::RobustSolveOptions options;
  options.budget = support::Budget::after_ms(0);
  const fault::RobustSolveResult r = fault::robust_solve(inst, dts, options);
  EXPECT_EQ(r.rung, fault::SolverRung::kGreed);

  set_flight_dump_path("");
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "auto-dump was not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

TEST(FlightRecorder, ForcedDemotionAutoDumpIsByteStable) {
  RecorderGuard guard;
  // Same seed, same budget, two runs: the dump must be byte-identical —
  // the recorder is clock-free, so nothing machine-local can leak in.
  const std::string first =
      forced_demotion_dump(testing::TempDir() + "flight_a.txt");
  const std::string second =
      forced_demotion_dump(testing::TempDir() + "flight_b.txt");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The demotion chain must be visible: ladder start, both timed-out rungs.
  EXPECT_NE(first.find("solve_start"), std::string::npos);
  EXPECT_NE(first.find("deadline_expired"), std::string::npos);
  EXPECT_NE(first.find("rung_demoted"), std::string::npos);
}

TEST(FlightRecorder, DumpTriggerIsSafeWhenDisarmed) {
  RecorderGuard guard;
  // No path armed: the trigger records its note and returns false.
  EXPECT_FALSE(flight_dump("nothing armed"));
  EXPECT_NE(flight_recorder().dump_string().find("nothing armed"),
            std::string::npos);
}

TEST(FlightRecorder, DumpErrorsAreSwallowed) {
  RecorderGuard guard;
  set_flight_dump_path("/nonexistent-dir/definitely/not/writable.txt");
  EXPECT_FALSE(flight_dump("io failure path"));  // must not throw
}

}  // namespace
}  // namespace tveg::obs
