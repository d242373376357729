// obs::Span and its three sinks: the aggregate phase tree (obs/trace.hpp),
// the per-thread span rings with their Chrome/Perfetto export
// (obs/span.hpp), and the caller's elapsed-time slot.
#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

// -- clock -----------------------------------------------------------------

Clock::time_point epoch() noexcept {
  static const Clock::time_point e = Clock::now();
  return e;
}

/// Nanoseconds since the process-wide tracing epoch (first use); readings
/// taken before the epoch clamp to 0.
std::uint64_t to_epoch_ns(Clock::time_point tp) noexcept {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch());
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

std::uint64_t now_ns() noexcept {
  epoch();  // pin the epoch before the reading it is subtracted from
  return to_epoch_ns(Clock::now());
}

// -- phase tree --------------------------------------------------------------

struct Node {
  std::string name;
  std::vector<std::size_t> children;  // guarded by Tree::mutex
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> count{0};
  /// Per-phase duration histogram (tveg.obs.phase_ms.<name>), resolved once
  /// at node creation so span close never takes the registry mutex.
  Histogram* hist = nullptr;
};

struct Tree {
  support::Mutex mutex;
  // deque: references stay valid as the tree grows, so accumulation through
  // stable Node pointers needs no lock; the deque itself (growth and child
  // lists) is guarded.
  std::deque<Node> nodes TVEG_GUARDED_BY(mutex);

  // Single-threaded construction: no other thread can alias the tree yet.
  Tree() TVEG_NO_THREAD_SAFETY_ANALYSIS { clear(); }

  void clear() TVEG_REQUIRES(mutex) {
    nodes.clear();
    nodes.emplace_back();
    nodes[0].name = "root";
  }

  /// Finds or creates the child of `parent` named `name`. Returns the index
  /// (for the thread's current-phase cursor) and a stable pointer (deque
  /// references survive growth, so accumulation needs no lock).
  std::pair<std::size_t, Node*> child(std::size_t parent, const char* name) {
    support::MutexLock lock(mutex);
    for (std::size_t c : nodes[parent].children)
      if (nodes[c].name == name) return {c, &nodes[c]};
    const std::size_t id = nodes.size();
    nodes.emplace_back();
    nodes[id].name = name;
    nodes[id].hist = &MetricsRegistry::global().histogram(
        std::string(keys::kPhaseMsPrefix) + name);
    nodes[parent].children.push_back(id);
    return {id, &nodes[id]};
  }
};

Tree& tree() {
  static Tree* t = new Tree();  // never destroyed: spans may outlive main
  return *t;
}

TraceNodeSnapshot snapshot_node(const Tree& t, std::size_t id)
    TVEG_REQUIRES(t.mutex) {
  const Node& n = t.nodes[id];
  TraceNodeSnapshot s;
  s.name = n.name;
  s.count = n.count.load(std::memory_order_relaxed);
  s.wall_ms =
      static_cast<double>(n.total_ns.load(std::memory_order_relaxed)) / 1e6;
  for (std::size_t c : n.children) s.children.push_back(snapshot_node(t, c));
  return s;
}

void report_node(std::ostream& os, const TraceNodeSnapshot& n, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%10.3f ms", n.wall_ms);
  os << n.name << "  x" << n.count << "  " << buf << "\n";
  for (const auto& c : n.children) report_node(os, c, depth + 1);
}

void accumulate_totals(const TraceNodeSnapshot& n,
                       std::map<std::string, TraceNodeSnapshot>& totals) {
  auto& slot = totals[n.name];
  slot.name = n.name;
  slot.count += n.count;
  slot.wall_ms += n.wall_ms;
  for (const auto& c : n.children) accumulate_totals(c, totals);
}

// -- span rings --------------------------------------------------------------

/// Queue-track tids live 1000 above the owning worker's slot so both rows
/// can coexist in Perfetto without colliding with real thread slots.
constexpr std::uint32_t kQueueTidOffset = 1000;

/// One completed span. `open_seq`/`close_seq` come from a single per-thread
/// counter, so r2 nests inside r1 iff r1.open < r2.open && r2.close <
/// r1.close — the export replay reconstructs B/E order from sequences, not
/// timestamps, which keeps ties unambiguous.
struct Record {
  const char* name = nullptr;  ///< static storage duration
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t open_seq = 0;
  std::uint64_t close_seq = 0;
  bool queue = false;  ///< queue-wait interval (exported as an X event)
};

constexpr std::size_t kRingCapacity = 1 << 15;

Counter& drop_counter() {
  static Counter& c = MetricsRegistry::global().counter(keys::kObsSpanDrops);
  return c;
}

/// Per-thread ring; owned jointly by the thread (thread_local shared_ptr)
/// and the registry, so records survive thread exit until the next export.
struct Ring {
  support::Mutex mutex;  // uncontended except at export
  std::vector<Record> records TVEG_GUARDED_BY(mutex);  // capacity kRingCapacity
  std::uint64_t written TVEG_GUARDED_BY(mutex) = 0;  // records ever pushed
  std::uint32_t slot = 0;  // written once at registration, then immutable
  std::string name TVEG_GUARDED_BY(mutex);

  void push(const Record& r) {
    bool dropped = false;
    {
      support::MutexLock lock(mutex);
      if (records.size() < kRingCapacity) {
        records.push_back(r);
      } else {
        records[written % kRingCapacity] = r;
        dropped = true;
      }
      ++written;
    }
    if (dropped) drop_counter().add(1);
  }
};

struct Registry {
  support::Mutex mutex;
  // Lock order: Registry::mutex before Ring::mutex, always (export paths
  // hold the registry lock while visiting each ring).
  std::vector<std::shared_ptr<Ring>> rings TVEG_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry();  // never destroyed: spans may outlive main
  return *r;
}

/// Per-thread state: the ring (shared with the registry), the sequence
/// counter and the current phase-tree node. Only the owning thread touches
/// `next_seq` and `current`.
struct ThreadState {
  std::shared_ptr<Ring> ring;
  std::uint64_t next_seq = 0;
  std::size_t current = 0;  ///< phase-tree cursor; 0 = root
};

ThreadState& thread_state() {
  thread_local ThreadState state = [] {
    drop_counter();  // registers the key, so snapshots carry it even at 0
    ThreadState s;
    s.ring = std::make_shared<Ring>();
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    s.ring->slot = static_cast<std::uint32_t>(reg.rings.size());
    reg.rings.push_back(s.ring);
    return s;
  }();
  return state;
}

Json event(const char* ph, std::uint32_t tid, const std::string& name,
           double ts_us) {
  Json e = Json::object();
  e.set("ph", Json(ph));
  e.set("pid", Json(1));
  e.set("tid", Json(static_cast<double>(tid)));
  e.set("name", Json(name));
  e.set("ts", Json(ts_us));
  return e;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Emits one thread's span records as matched B/E pairs: sort by open
/// sequence, then replay with a stack, closing any span whose close_seq
/// precedes the next open. Dropped records at worst flatten nesting — the
/// pairs stay matched.
void emit_thread_spans(std::vector<Record> records, std::uint32_t tid,
                       Json& events) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.open_seq < b.open_seq;
            });
  std::vector<const Record*> stack;
  auto close_top = [&] {
    const Record* top = stack.back();
    stack.pop_back();
    events.push_back(event("E", tid, top->name, us(top->end_ns)));
  };
  for (const Record& r : records) {
    while (!stack.empty() && stack.back()->close_seq < r.open_seq) close_top();
    events.push_back(event("B", tid, r.name, us(r.begin_ns)));
    stack.push_back(&r);
  }
  while (!stack.empty()) close_top();
}

}  // namespace

// -- the switch and the span -------------------------------------------------

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Span::open() noexcept {
  open_ = true;
  if (enabled()) {
    ThreadState& state = thread_state();
    const auto [id, node] = tree().child(state.current, name_);
    node_ = node;
    prev_ = state.current;
    state.current = id;
    open_seq_ = state.next_seq++;
  }
  begin_ns_ = now_ns();
}

void Span::close() noexcept {
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t elapsed_ns = end_ns - begin_ns_;
  const double elapsed_ms = static_cast<double>(elapsed_ns) / 1e6;
  if (slot_ != nullptr) *slot_ = elapsed_ms;
  if (node_ == nullptr) return;
  Node& n = *static_cast<Node*>(node_);
  n.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  n.count.fetch_add(1, std::memory_order_relaxed);
  n.hist->observe(elapsed_ms);
  ThreadState& state = thread_state();
  state.current = prev_;
  Record r;
  r.name = name_;
  r.begin_ns = begin_ns_;
  r.end_ns = end_ns;
  r.open_seq = open_seq_;
  r.close_seq = state.next_seq++;
  state.ring->push(r);
}

// -- phase tree queries ------------------------------------------------------

void declare_phases(std::initializer_list<const char*> names) {
  Tree& t = tree();
  for (const char* name : names) t.child(0, name);
}

std::vector<TraceNodeSnapshot> trace_snapshot() {
  Tree& t = tree();
  support::MutexLock lock(t.mutex);
  std::vector<TraceNodeSnapshot> out;
  for (std::size_t c : t.nodes[0].children)
    out.push_back(snapshot_node(t, c));
  return out;
}

std::vector<std::pair<std::string, TraceNodeSnapshot>> phase_totals() {
  std::map<std::string, TraceNodeSnapshot> totals;
  for (const TraceNodeSnapshot& n : trace_snapshot())
    accumulate_totals(n, totals);
  std::vector<std::pair<std::string, TraceNodeSnapshot>> out;
  for (auto& [name, node] : totals) {
    node.children.clear();
    out.emplace_back(name, std::move(node));
  }
  return out;
}

void trace_reset() {
  Tree& t = tree();
  support::MutexLock lock(t.mutex);
  t.clear();
  // Resets the calling thread; others must have no open spans.
  thread_state().current = 0;
}

void trace_report(std::ostream& os) {
  os << "phase tree (wall time, entries):\n";
  for (const TraceNodeSnapshot& n : trace_snapshot()) report_node(os, n, 1);
}

// -- rings and export --------------------------------------------------------

void set_current_thread_name(const std::string& name) {
  Ring& ring = *thread_state().ring;
  support::MutexLock lock(ring.mutex);
  ring.name = name;
}

void span_queue_wait(Clock::time_point enqueued,
                     Clock::time_point dequeued) noexcept {
  if (!enabled()) return;
  ThreadState& state = thread_state();
  Record r;
  r.name = "queue_wait";
  r.begin_ns = to_epoch_ns(enqueued);
  r.end_ns = to_epoch_ns(dequeued);
  r.open_seq = state.next_seq++;
  r.close_seq = state.next_seq++;
  r.queue = true;
  state.ring->push(r);
}

Json chrome_trace() {
  struct Snapshot {
    std::uint32_t slot;
    std::string name;
    std::vector<Record> spans;
    std::vector<Record> queue;
  };
  std::vector<Snapshot> threads;
  {
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    for (const auto& ring : reg.rings) {
      support::MutexLock ring_lock(ring->mutex);
      Snapshot s;
      s.slot = ring->slot;
      s.name = ring->name;
      for (const Record& r : ring->records)
        (r.queue ? s.queue : s.spans).push_back(r);
      threads.push_back(std::move(s));
    }
  }

  Json events = Json::array();
  Json process_meta = event("M", 0, "process_name", 0);
  process_meta.set("args", [] {
    Json a = Json::object();
    a.set("name", Json("tveg"));
    return a;
  }());
  events.push_back(std::move(process_meta));

  for (const Snapshot& t : threads) {
    const std::string label =
        t.name.empty() ? "thread-" + std::to_string(t.slot) : t.name;
    Json meta = event("M", t.slot, "thread_name", 0);
    Json args = Json::object();
    args.set("name", Json(label));
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));

    if (!t.queue.empty()) {
      Json qmeta = event("M", t.slot + kQueueTidOffset, "thread_name", 0);
      Json qargs = Json::object();
      qargs.set("name", Json("queue-wait " + label));
      qmeta.set("args", std::move(qargs));
      events.push_back(std::move(qmeta));
    }

    emit_thread_spans(t.spans, t.slot, events);

    // Queue waits: the pool queue is FIFO, so each worker's dequeue order
    // sees non-decreasing enqueue times — sorting by open_seq (dequeue
    // order) keeps the queue track ts-monotone.
    std::vector<Record> queue = t.queue;
    std::sort(queue.begin(), queue.end(),
              [](const Record& a, const Record& b) {
                return a.open_seq < b.open_seq;
              });
    for (const Record& r : queue) {
      Json x = event("X", t.slot + kQueueTidOffset, r.name, us(r.begin_ns));
      const std::uint64_t dur = r.end_ns > r.begin_ns ? r.end_ns - r.begin_ns : 0;
      x.set("dur", Json(us(dur)));
      events.push_back(std::move(x));
    }
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json("ms"));
  return doc;
}

std::string chrome_trace_json() { return chrome_trace().dump(-1); }

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << chrome_trace_json() << "\n";
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

std::string validate_chrome_trace(const Json& doc) {
  if (!doc.is_object()) return "document is not an object";
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return "missing traceEvents array";
  std::map<std::uint64_t, double> last_ts;
  std::map<std::uint64_t, std::vector<std::string>> stacks;
  std::size_t i = 0;
  for (const Json& e : events->items()) {
    const std::string at = "event " + std::to_string(i++);
    if (!e.is_object()) return at + ": not an object";
    const Json* ph = e.find("ph");
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    const Json* name = e.find("name");
    if (ph == nullptr || ph->type() != Json::Type::kString)
      return at + ": missing ph";
    if (pid == nullptr || pid->type() != Json::Type::kNumber)
      return at + ": missing numeric pid";
    if (tid == nullptr || tid->type() != Json::Type::kNumber)
      return at + ": missing numeric tid";
    if (name == nullptr || name->type() != Json::Type::kString)
      return at + ": missing name";
    const std::string& kind = ph->as_string();
    if (kind == "M") continue;  // metadata: no timing constraints
    if (kind != "B" && kind != "E" && kind != "X" && kind != "i")
      return at + ": unknown ph '" + kind + "'";
    const Json* ts = e.find("ts");
    if (ts == nullptr || ts->type() != Json::Type::kNumber)
      return at + ": missing numeric ts";
    const auto key = static_cast<std::uint64_t>(tid->as_number());
    const auto it = last_ts.find(key);
    if (it != last_ts.end() && ts->as_number() < it->second)
      return at + ": ts goes backwards on tid " + std::to_string(key);
    last_ts[key] = ts->as_number();
    if (kind == "X") {
      const Json* dur = e.find("dur");
      if (dur == nullptr || dur->type() != Json::Type::kNumber ||
          dur->as_number() < 0)
        return at + ": X event without non-negative dur";
      continue;
    }
    if (kind == "B") {
      stacks[key].push_back(name->as_string());
    } else if (kind == "E") {
      auto& stack = stacks[key];
      if (stack.empty())
        return at + ": E without matching B on tid " + std::to_string(key);
      if (stack.back() != name->as_string())
        return at + ": E '" + name->as_string() + "' does not match open B '" +
               stack.back() + "'";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    if (!stack.empty())
      return "unclosed B '" + stack.back() + "' on tid " + std::to_string(tid);
  return "";
}

std::uint64_t span_drop_count() noexcept { return drop_counter().value(); }

void span_reset() {
  Registry& reg = registry();
  support::MutexLock lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    support::MutexLock ring_lock(ring->mutex);
    ring->records.clear();
    ring->written = 0;
  }
  drop_counter().reset();
}

}  // namespace tveg::obs
