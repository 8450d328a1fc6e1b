// One scenario-benchmark repetition: generate a workload's spec from a
// seed, set it up, run it to the end through ten checkpoints, probe and
// check it at every checkpoint, and print one JSON line of raw figures
// (perfbench/run.py aggregates repetitions into the benchmark's metrics).
//
//   perfbench_scenario --workload dense-churn --seed 1 [--instance J]
//                      [--trace] [--checks] [--threads N] [--scale S]
//                      [--print-spec]
//   perfbench_scenario --check-threads --workload dht-faults --seed 1
//
// Every layer is measured from outside, through its public API: spec
// parsing and Driver construction (set-up), Driver::run_to / run (the
// timed run), ExchangeFinder::find over System::graph_snapshot() (ring
// probe), discovery::make_backend(...)->query (discovery probe),
// System::check_invariants, memory_footprint and metrics_registry. With
// --trace an obs::TraceRecorder is installed around the run and the
// engine's own spans are turned into per-layer self times.
//
// Without --checks a repetition is a timing run: System::check_invariants
// and the accounting identities run once, at the end. --checks adds, at
// every checkpoint, the invariant audit, the ring and discovery probes
// (each answer verified independently) and the memory footprint.
//
// --check-threads runs the workload shortened at 1 and at 4 threads, once
// checked and once not, and exits non-zero unless each pair's
// deterministic metric domains are byte-identical.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/exchange_finder.h"
#include "core/system.h"
#include "discovery/lookup_backend.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "scenario/driver.h"
#include "scenario/spec.h"
#include "self_time.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace p2pex;
using Clock = std::chrono::steady_clock;

constexpr int kCheckpoints = 10;
constexpr std::size_t kRingProbes = 200;       ///< searches per checkpoint
constexpr std::size_t kProbeObjects = 64;      ///< objects per backend
constexpr std::size_t kLookupProbes = 200;     ///< queries per checkpoint
constexpr std::uint64_t kProbeSalt = 0x9B0BE5EED5A17ULL;
constexpr const char* kRootSpan = "bench.run";
constexpr int kMaxSetups = 25;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Counts checks and keeps the first few failure messages.
class Checker {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What discovery backends may observe, read from public System state.
class World final : public discovery::WorldView {
 public:
  explicit World(const System& sys) : sys_(sys) {}
  [[nodiscard]] std::size_t num_peers() const override {
    return sys_.num_peers();
  }
  [[nodiscard]] bool peer_online(PeerId p) const override {
    return sys_.peer(p).online;
  }
  [[nodiscard]] bool peers_reachable(PeerId a, PeerId b) const override {
    return sys_.fault_injector().reachable(a, b);
  }

 private:
  const System& sys_;
};

std::string str(PeerId p) { return std::to_string(p.value); }

/// Independent check of one ring proposal against public peer state
/// only (no finder, no snapshot). Returns "" when it holds.
std::string ring_fault(const System& sys, PeerId root, const RingProposal& r,
                       std::size_t max_ring) {
  const std::size_t n = r.size();
  if (n < 2 || n > max_ring) return "ring size " + std::to_string(n);
  if (r.links.front().provider != root) return "ring not rooted at searcher";
  std::vector<PeerId> members;
  for (std::size_t i = 0; i < n; ++i) {
    const RingLink& l = r.links[i];
    if (l.requester != r.links[(i + 1) % n].provider)
      return "ring does not close at link " + std::to_string(i);
    members.push_back(l.provider);
    const Peer& prov = sys.peer(l.provider);
    if (!prov.online) return "offline member " + str(l.provider);
    if (!prov.storage.contains(l.object))
      return "provider " + str(l.provider) + " does not store its object";
    if (i + 1 < n) {
      if (prov.irq.find(RequestKey{l.requester, l.object}) == nullptr)
        return "link " + std::to_string(i) + " request not in provider IRQ";
    } else if (l.requester != root || !sys.has_pending(root, l.object)) {
      return "closing object not pending at root " + str(root);
    }
  }
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end())
    return "repeated member";
  return "";
}

/// Per-run probe samples and the largest memory footprint seen.
struct Probes {
  std::vector<double> search_us;
  std::vector<double> query_us;
  MemoryFootprint peak_mem;
};

/// Ring probe: a benchmark-owned finder over the live snapshot, rooted
/// at sampled online sharers; every proposal independently verified.
void probe_rings(const System& sys, Rng& rng, Checker& chk, Probes& out) {
  const SimConfig& cfg = sys.config();
  std::vector<PeerId> sharers;
  for (std::uint32_t i = 0; i < sys.num_peers(); ++i) {
    const Peer& p = sys.peer(PeerId{i});
    if (p.online && p.shares) sharers.push_back(p.id);
  }
  if (sharers.empty()) return;
  ExchangeFinder finder(cfg.policy, cfg.max_ring_size, cfg.tree_mode,
                        cfg.bloom_hop_budget);
  const GraphSnapshot& snap = sys.graph_snapshot();
  if (cfg.tree_mode == TreeMode::kBloom)
    finder.rebuild_summaries(snap, cfg.bloom_expected_per_level,
                             cfg.bloom_fpp);
  const bool shortest = cfg.policy != ExchangePolicy::kLongestFirst;
  for (std::size_t k = 0; k < kRingProbes; ++k) {
    const PeerId root = rng.pick(sharers);
    const auto t0 = Clock::now();
    const std::vector<RingProposal> props =
        finder.find(snap, root, cfg.max_ring_attempts_per_search);
    out.search_us.push_back(secs_since(t0) * 1e6);
    chk.check(props.size() <= cfg.max_ring_attempts_per_search,
              "more proposals than the candidate cap");
    for (std::size_t i = 0; i < props.size(); ++i) {
      const std::string fault =
          ring_fault(sys, root, props[i], cfg.max_ring_size);
      chk.check(fault.empty(), "ring proposal: " + fault);
      if (i > 0) {
        const std::size_t a = props[i - 1].size(), b = props[i].size();
        chk.check(shortest ? a <= b : a >= b,
                  "proposals not ordered by the ring policy");
      }
    }
  }
}

/// Discovery probe: a fresh backend of the configured kind, populated
/// from the ground-truth owner index, queried on a seeded stream of
/// (object, requester) pairs; every answer independently verified.
void probe_discovery(const System& sys, Rng& rng, Checker& chk,
                     Probes& out) {
  const SimConfig& cfg = sys.config();
  const LookupService& truth = sys.lookup();
  std::vector<PeerId> online;
  std::vector<PeerId> holders;  // online sharers with stored objects
  for (std::uint32_t i = 0; i < sys.num_peers(); ++i) {
    const Peer& p = sys.peer(PeerId{i});
    if (!p.online) continue;
    online.push_back(p.id);
    if (p.shares && p.storage.size() > 0) holders.push_back(p.id);
  }
  if (online.empty() || holders.empty()) return;

  std::vector<ObjectId> objects;
  for (std::size_t k = 0; k < 4 * kProbeObjects &&
                          objects.size() < kProbeObjects;
       ++k) {
    const ObjectId o = rng.pick(sys.peer(rng.pick(holders)).storage.objects());
    if (truth.owner_count(o) > 0 &&
        std::find(objects.begin(), objects.end(), o) == objects.end())
      objects.push_back(o);
  }
  if (objects.empty()) return;

  const World world(sys);
  Rng backend_rng(rng.next_u64());
  std::unique_ptr<discovery::LookupBackend> backend = discovery::make_backend(
      cfg.discovery, cfg.lookup_fraction, truth, backend_rng, cfg.seed, world);
  for (const ObjectId o : objects)
    for (const PeerId p : truth.owners(o, PeerId{}))
      backend->add_owner(o, p, sys.now());

  const std::size_t hop_budget =
      cfg.discovery.backend == discovery::BackendKind::kDht
          ? cfg.discovery.dht_hop_budget
          : 0;
  for (std::size_t k = 0; k < kLookupProbes; ++k) {
    const ObjectId o = rng.pick(objects);
    const PeerId requester = rng.pick(online);
    const auto t0 = Clock::now();
    const discovery::LookupResult res =
        backend->query({o, requester, sys.now()});
    out.query_us.push_back(secs_since(t0) * 1e6);
    const std::vector<PeerId>& got = res.providers;
    chk.check(std::adjacent_find(got.begin(), got.end(),
                                 [](PeerId a, PeerId b) {
                                   return !(a.value < b.value);
                                 }) == got.end(),
              "lookup answer not strictly ascending");
    chk.check(std::find(got.begin(), got.end(), requester) == got.end(),
              "lookup answer contains the requester");
    chk.check(std::all_of(got.begin(), got.end(),
                          [&](PeerId p) { return truth.has_owner(o, p); }),
              "lookup answer not a subset of the true owners");
    chk.check(res.hops <= hop_budget, "lookup hops beyond the hop budget");
  }
}

/// Accounting identities over the deterministic registry at run end.
void check_identities(const System& sys, Checker& chk) {
  const obs::MetricsRegistry& reg = sys.metrics_registry();
  const SystemCounters& c = sys.counters();
  const obs::Histogram* sizes = reg.find_histogram("core.ring_size");
  const obs::Histogram* hops = reg.find_histogram("core.search_hops");
  const obs::Histogram* rows = reg.find_histogram("core.dirty_rows_per_patch");
  const obs::Gauge* xfrac = reg.find_gauge("run.exchange_fraction");
  chk.check(sizes != nullptr && hops != nullptr && rows != nullptr &&
                xfrac != nullptr,
            "registry lacks a core histogram or run.exchange_fraction");
  if (sizes == nullptr || hops == nullptr || rows == nullptr ||
      xfrac == nullptr)
    return;
  chk.check(sizes->count() == c.rings_formed,
            "core.ring_size count != rings_formed");
  const std::size_t max_ring = sys.config().max_ring_size;
  chk.check(sizes->count() == 0 ||
                (sizes->min() >= 2 && sizes->max() <= max_ring),
            "ring size outside [2, max_ring_size]");
  chk.check(hops->count() == sys.finder_stats().searches,
            "core.search_hops count != finder.searches");
  chk.check(rows->count() == c.snapshot_patches,
            "core.dirty_rows_per_patch count != snapshot_patches");
  chk.check(rows->sum() == c.dirty_rows_patched,
            "core.dirty_rows_per_patch sum != dirty_rows_patched");
  const MetricsCollector& m = sys.metrics();
  std::size_t by_type = 0, exchange = 0;
  for (const SessionType t : m.session_types()) {
    by_type += m.session_count_by_type(t);
    if (t.is_exchange()) exchange += m.session_count_by_type(t);
  }
  chk.check(by_type == m.session_count(),
            "session counts by type do not add up to the total");
  const double share =
      m.session_count() == 0
          ? 0.0
          : static_cast<double>(exchange) /
                static_cast<double>(m.session_count());
  chk.check(share == xfrac->value(),
            "exchange session share != run.exchange_fraction");
  chk.check(c.rings_formed <= c.ring_attempts,
            "rings formed exceed ring attempts");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool checks = false;
  std::size_t threads = 0;  ///< 0 = the workload's own
  double scale = 1.0;
  std::uint64_t instance = 0;
  int setups = 3;              ///< set-ups at least, and more ...
  double setup_seconds = 0.5;  ///< ... until set-up took this long in all
  bool print_spec = false;
  bool check_threads = false;
};

/// Everything one repetition measured.
struct Rep {
  std::vector<double> setup_s, parse_ms, build_ms;
  double run_wall_s = 0.0;
  double sim_duration_s = 0.0;
  std::string det_json;  ///< deterministic registry domain
  Probes probes;
  perfbench::SelfTimes self;
  std::uint64_t events_dropped = 0;
  std::uint64_t num_peers = 0;
  SystemCounters counters;
  FinderStats finder;
  SpeculationStats spec;
  std::map<std::string, std::size_t> session_mix;  ///< sessions by type
  std::uint64_t search_hops_max = 0;
  double search_hops_sum = 0.0, search_hops_count = 0.0;
};

/// Instance J of benchmark seed S runs scenario seed S * 1000 + J.
std::uint64_t scenario_seed(const Options& opt) {
  return opt.seed * 1000 + opt.instance;
}

Rep run_once(const Options& opt, Checker& chk) {
  Rep rep;
  const std::string text = perfbench::workload_text(
      opt.workload, scenario_seed(opt), opt.scale, opt.threads);

  std::unique_ptr<scenario::Driver> driver;
  double setup_total = 0.0;
  for (int k = 0; k < kMaxSetups &&
                  (k < opt.setups || setup_total < opt.setup_seconds);
       ++k) {
    driver.reset();  // the previous instance's memory is free again
    const auto t0 = Clock::now();
    scenario::Spec spec = scenario::Spec::parse_text(text, opt.workload);
    const auto t1 = Clock::now();
    driver = std::make_unique<scenario::Driver>(std::move(spec));
    const auto t2 = Clock::now();
    rep.parse_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    rep.build_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    rep.setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
    setup_total += rep.setup_s.back();
  }
  System& sys = driver->system();
  const double duration = sys.config().sim_duration;
  rep.sim_duration_s = duration;
  rep.num_peers = sys.num_peers();

  // Sized so no span is ever overwritten (events_dropped must stay 0);
  // the per-thread rings grow only as far as they are used.
  obs::TraceRecorder recorder(std::size_t{1} << 26);
  if (opt.trace) recorder.install();
  Rng probe_rng(opt.seed ^ kProbeSalt);
  double wall = 0.0;
  for (int i = 1; i <= kCheckpoints; ++i) {
    const double t = duration * i / kCheckpoints;
    const std::uint64_t s0 = recorder.now_ns();
    const auto t0 = Clock::now();
    if (i < kCheckpoints)
      driver->run_to(t);
    else
      driver->run();
    wall += secs_since(t0);
    if (opt.trace) recorder.record(kRootSpan, "bench", s0, recorder.now_ns());

    if (opt.checks || i == kCheckpoints) {
      try {
        sys.check_invariants();
        chk.check(true, "");
      } catch (const std::exception& e) {
        chk.check(false, std::string("check_invariants: ") + e.what());
      }
    }
    if (opt.checks) {
      probe_rings(sys, probe_rng, chk, rep.probes);
      probe_discovery(sys, probe_rng, chk, rep.probes);
      const MemoryFootprint m = sys.memory_footprint();
      if (m.total() > rep.probes.peak_mem.total()) rep.probes.peak_mem = m;
    }
  }
  if (opt.trace) recorder.uninstall();
  rep.run_wall_s = wall;

  check_identities(sys, chk);
  const obs::MetricsRegistry& reg = sys.metrics_registry();
  rep.det_json = reg.to_json(false);
  if (const obs::Histogram* h = reg.find_histogram("core.search_hops")) {
    rep.search_hops_max = h->max();
    rep.search_hops_sum = static_cast<double>(h->sum());
    rep.search_hops_count = static_cast<double>(h->count());
  }
  rep.counters = sys.counters();
  rep.finder = sys.finder_stats();
  rep.spec = sys.speculation_stats();
  for (const SessionType t : sys.metrics().session_types())
    rep.session_mix[t.name()] = sys.metrics().session_count_by_type(t);

  if (opt.trace) {
    rep.events_dropped = recorder.events_dropped();
    chk.check(rep.events_dropped == 0, "trace dropped spans");
    rep.self = perfbench::self_times(recorder.to_chrome_json(), kRootSpan);
    chk.check(rep.self.misnested == 0, "trace spans do not nest");
    std::uint64_t rows = 0;
    for (const auto& [name, ns] : rep.self.self_ns) rows += ns;
    chk.check(rows == rep.self.root_ns,
              "self-time rows do not sum to the Driver::run wall time");
  }
  return rep;
}

// --- JSON output ---

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& add(const std::string& k, double v) {
    return raw(k, num(v));
  }
  JsonObject& add(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    os_ << (first_ ? "" : ", ") << quote(k) << ": " << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string to_json(const Options& opt, const Rep& rep, const Checker& chk) {
  const SystemCounters& c = rep.counters;
  const FinderStats& f = rep.finder;
  const double peers = static_cast<double>(rep.num_peers);
  const double requests = static_cast<double>(c.requests_issued);
  const double walks = static_cast<double>(
      f.bloom_reconstructions + f.bloom_dead_ends + f.bloom_budget_exhausted);
  const MemoryFootprint& mem = rep.probes.peak_mem;
  const auto per_peer = [&](std::size_t bytes) {
    return ratio(static_cast<double>(bytes), peers);
  };

  JsonObject counts;
  counts.add("search.count", static_cast<double>(f.searches))
      .add("search.nodes_per_search",
           ratio(rep.search_hops_sum, rep.search_hops_count))
      .add("search.nodes_max", static_cast<double>(rep.search_hops_max))
      .add("ring.attempts", static_cast<double>(c.ring_attempts))
      .add("ring.accept_ratio", ratio(static_cast<double>(c.rings_formed),
                                      static_cast<double>(c.ring_attempts)))
      .add("snapshot.patches", static_cast<double>(c.snapshot_patches))
      .add("snapshot.rows_per_patch",
           ratio(static_cast<double>(c.dirty_rows_patched),
                 static_cast<double>(c.snapshot_patches)))
      .add("bloom.dead_end_ratio",
           ratio(static_cast<double>(f.bloom_dead_ends), walks))
      .add("parallel.consumed_ratio",
           ratio(static_cast<double>(rep.spec.consumed),
                 static_cast<double>(rep.spec.speculated)))
      .add("parallel.stale", static_cast<double>(rep.spec.stale))
      .add("discovery.empty_lookups_per_request",
           ratio(static_cast<double>(c.lookup_failures), requests))
      .add("discovery.hops_per_request",
           ratio(static_cast<double>(c.dht_hops), requests))
      .add("discovery.wire_bytes_per_request",
           ratio(static_cast<double>(c.lookup_wire_bytes), requests))
      .add("fault.retries", static_cast<double>(c.transfer_retries))
      .add("memory.peer_bytes_per_peer", per_peer(mem.peer_bytes))
      .add("memory.download_bytes_per_peer", per_peer(mem.download_bytes))
      .add("memory.session_bytes_per_peer", per_peer(mem.session_bytes))
      .add("memory.ring_bytes_per_peer", per_peer(mem.ring_bytes))
      .add("memory.graph_bytes_per_peer", per_peer(mem.graph_bytes));

  JsonObject probes;
  probes.add("search.probe_us_p50", percentile(rep.probes.search_us, 0.5))
      .add("search.probe_us_p99", percentile(rep.probes.search_us, 0.99))
      .add("search.probe_samples",
           static_cast<double>(rep.probes.search_us.size()))
      .add("discovery.query_us_p50", percentile(rep.probes.query_us, 0.5))
      .add("discovery.query_us_p99", percentile(rep.probes.query_us, 0.99))
      .add("discovery.query_samples",
           static_cast<double>(rep.probes.query_us.size()));

  JsonObject self, total;
  for (const auto& [name, ns] : rep.self.self_ns) self.add(name, ms(ns));
  for (const auto& [name, ns] : rep.self.total_ns) total.add(name, ms(ns));

  // Simulated results every repetition of a seed must reproduce, probed
  // or not, traced or not.
  JsonObject sim;
  sim.add("rings_formed", static_cast<double>(c.rings_formed))
      .add("downloads_completed", static_cast<double>(c.downloads_completed))
      .add("sessions_started", static_cast<double>(c.sessions_started));
  for (const auto& [type, n] : rep.session_mix)
    sim.add("sessions." + type, static_cast<double>(n));

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  std::string failures = "[";
  for (std::size_t i = 0; i < chk.failures().size(); ++i)
    failures += (i == 0 ? "" : ", ") + quote(chk.failures()[i]);
  failures += "]";

  JsonObject out;
  out.add("workload", opt.workload)
      .add("seed", static_cast<double>(opt.seed))
      .add("instance", static_cast<double>(opt.instance))
      .add("setups", static_cast<double>(rep.setup_s.size()))
      .add("traced", opt.trace ? 1.0 : 0.0)
      .add("peers", peers)
      .add("setup_s", median(rep.setup_s))
      .add("parse_ms", median(rep.parse_ms))
      .add("build_ms", median(rep.build_ms))
      .add("run_wall_s", rep.run_wall_s)
      .add("sim_duration_s", rep.sim_duration_s)
      .add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .add("attempted", static_cast<double>(chk.attempted()))
      .add("failed", static_cast<double>(chk.failed()))
      .raw("failures", failures)
      .raw("counts", counts.str())
      .raw("probes", probes.str())
      .raw("sim", sim.str())
      .raw("self_ms", self.str())
      .raw("total_ms", total.str())
      .add("root_ms", ms(rep.self.root_ns))
      .add("trace_events", static_cast<double>(rep.self.events))
      .add("events_dropped", static_cast<double>(rep.events_dropped))
      .add("det_json", rep.det_json);
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_scenario --workload <name> [--seed N] "
               "[--instance J] [--trace] [--checks] [--threads N] "
               "[--scale S] [--print-spec] [--check-threads]\n");
  return 2;
}

/// Thread invariance: the deterministic domain must not depend on the
/// thread count, checked runs compared with checked ones and timing runs
/// with timing ones (a probe's graph_snapshot() read can move the
/// snapshot-patch counters, so the two kinds are not compared).
int check_threads(Options opt) {
  opt.setups = 1;
  opt.setup_seconds = 0.0;
  struct Variant {
    std::size_t threads;
    bool checks;
  };
  std::map<bool, std::string> reference;
  int status = 0;
  for (const Variant v : {Variant{1, true}, Variant{4, true},
                          Variant{1, false}, Variant{4, false}}) {
    opt.threads = v.threads;
    opt.checks = v.checks;
    Checker chk;
    const Rep rep = run_once(opt, chk);
    std::string& ref = reference[v.checks];
    const bool same = ref.empty() || rep.det_json == ref;
    if (ref.empty()) ref = rep.det_json;
    std::printf("%s threads=%zu checks=%s: %llu checks, %llu failed, "
                "deterministic domain %s\n",
                opt.workload.c_str(), v.threads, v.checks ? "on" : "off",
                static_cast<unsigned long long>(chk.attempted()),
                static_cast<unsigned long long>(chk.failed()),
                same ? "identical" : "DIFFERS");
    for (const std::string& f : chk.failures())
      std::printf("  failed: %s\n", f.c_str());
    if (!same || chk.failed() != 0) status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  // The workloads fix their own thread counts; an inherited override
  // would silently change what a "1 thread" workload runs with.
  unsetenv("P2PEX_THREADS");
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--threads" && has_value) {
      opt.threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (a == "--scale" && has_value) {
      opt.scale = std::strtod(argv[++i], nullptr);
    } else if (a == "--instance" && has_value) {
      opt.instance = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--checks") {
      opt.checks = true;
    } else if (a == "--print-spec") {
      opt.print_spec = true;
    } else if (a == "--check-threads") {
      opt.check_threads = true;
    } else {
      return usage();
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end() ||
      !(opt.scale > 0.0 && opt.scale <= 1.0))
    return usage();
  try {
    if (opt.print_spec) {
      std::fputs(perfbench::workload_text(opt.workload, scenario_seed(opt),
                                          opt.scale, opt.threads)
                     .c_str(),
                 stdout);
      return 0;
    }
    if (opt.check_threads) return check_threads(opt);
    Checker chk;
    const Rep rep = run_once(opt, chk);
    std::printf("%s\n", to_json(opt, rep, chk).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_scenario: %s\n", e.what());
    return 1;
  }
  return 0;
}
