#include "obs/flight_recorder.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::obs {

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSolveStart: return "solve_start";
    case FlightEventKind::kRungStart: return "rung_start";
    case FlightEventKind::kRungDemoted: return "rung_demoted";
    case FlightEventKind::kRungSelected: return "rung_selected";
    case FlightEventKind::kDeadlineExpired: return "deadline_expired";
    case FlightEventKind::kFaultInjected: return "fault_injected";
    case FlightEventKind::kDtsTruncated: return "dts_truncated";
    case FlightEventKind::kRepairDivergence: return "repair_divergence";
    case FlightEventKind::kRepairPatched: return "repair_patched";
    case FlightEventKind::kRungSkipped: return "rung_skipped";
    case FlightEventKind::kStallDetected: return "stall_detected";
    case FlightEventKind::kRequestShed: return "request_shed";
    case FlightEventKind::kNote: return "note";
  }
  return "?";
}

void FlightRecorder::record(FlightEventKind kind, std::uint64_t a,
                            std::uint64_t b, const char* detail) noexcept {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % kCapacity];
  // Mark the slot in-flight (seq 0) so a racing dump skips it rather than
  // mixing old and new fields, then publish with the new sequence.
  slot.seq.store(0, std::memory_order_release);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.detail.store(detail, std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t retained = head < kCapacity ? head : kCapacity;
  std::vector<FlightEvent> events;
  events.reserve(retained);
  for (std::uint64_t i = head - retained; i < head; ++i) {
    const Slot& slot = slots_[i % kCapacity];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != i + 1) continue;  // empty, in-flight or already overwritten
    FlightEvent e;
    e.seq = i;
    e.kind = static_cast<FlightEventKind>(
        slot.kind.load(std::memory_order_relaxed));
    e.a = slot.a.load(std::memory_order_relaxed);
    e.b = slot.b.load(std::memory_order_relaxed);
    e.detail = slot.detail.load(std::memory_order_relaxed);
    events.push_back(e);
  }
  os << "flight-recorder: " << head << " event(s), " << events.size()
     << " retained\n";
  for (const FlightEvent& e : events) {
    os << "#" << e.seq << " " << flight_event_kind_name(e.kind) << " a=" << e.a
       << " b=" << e.b;
    if (e.detail != nullptr && e.detail[0] != '\0') os << " " << e.detail;
    os << "\n";
  }
}

std::string FlightRecorder::dump_string() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

void FlightRecorder::reset() noexcept {
  head_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.seq.store(0, std::memory_order_relaxed);
    slot.kind.store(0, std::memory_order_relaxed);
    slot.a.store(0, std::memory_order_relaxed);
    slot.b.store(0, std::memory_order_relaxed);
    slot.detail.store("", std::memory_order_relaxed);
  }
}

FlightRecorder& flight_recorder() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

namespace {

struct DumpConfig {
  support::Mutex mutex;
  std::string path TVEG_GUARDED_BY(mutex);
};

DumpConfig& dump_config() {
  static DumpConfig* config = new DumpConfig();
  return *config;
}

}  // namespace

void set_flight_dump_path(const std::string& path) {
  DumpConfig& config = dump_config();
  support::MutexLock lock(config.mutex);
  config.path = path;
}

std::string flight_dump_path() {
  DumpConfig& config = dump_config();
  support::MutexLock lock(config.mutex);
  return config.path;
}

bool flight_dump(const char* reason) noexcept {
  auto& registry = MetricsRegistry::global();
  static Counter& dumps = registry.counter(keys::kObsFlightDumps);
  static Counter& errors = registry.counter(keys::kObsFlightDumpErrors);
  flight_recorder().record(FlightEventKind::kNote, 0, 0, reason);
  const std::string path = flight_dump_path();
  if (path.empty()) return false;
  try {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    flight_recorder().dump(out);
    if (!out) {
      errors.add(1);
      return false;
    }
    dumps.add(1);
    return true;
  } catch (...) {
    errors.add(1);
    return false;
  }
}

}  // namespace tveg::obs
