#include "workloads.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Simulated seconds rounded to a whole second (keeps the text short and
/// the churn tick grid exact).
long secs(double v) { return std::lround(v); }

/// Every category holds 150 objects, the mean of the default
/// uniform(1, 300) draw. Category ids are popularity ranks, so with drawn
/// sizes the seed decides whether the most requested categories hold a
/// handful of objects or hundreds, and with them the request graph's
/// density: run time then varies by a factor across seeds. Equal sizes
/// keep the catalog's volume and skew and leave the seed to vary peers,
/// requests and churn.
constexpr const char* kEqualCategories =
    "set min_objects_per_category 150\n"
    "set max_objects_per_category 150\n";

/// 800-peer ladder point: examples/heavy_churn.scn with cohorts and
/// categories scaled 10x, 3000 simulated seconds, continuous churn and
/// no mass-departure shocks. Oracle discovery, full request trees.
std::string dense_churn(std::uint64_t seed, double scale, std::size_t thr) {
  const double d = 3000.0 * scale;
  std::ostringstream os;
  os << "scenario dense-churn\n"
     << "base calibrated\n"
     << "set seed " << seed << "\n"
     << "set duration " << secs(d) << "\n"
     << "set warmup 0.1\n"
     << "set categories 600\n"
     << kEqualCategories
     << "set object_bytes 4000000\n"
     << "set threads " << (thr != 0 ? thr : 1) << "\n"
     << "cohort stable count=300 storage=15..40\n"
     << "cohort transients count=400 storage=5..20\n"
     << "cohort leechers count=100 share=no\n"
     << "at 0 churn duration=" << secs(d)
     << " interval=60 depart_rate=0.0005 arrive_rate=0.004\n";
  return os.str();
}

/// examples/dht_discovery.scn scaled 10x with churn, a crash storm, a
/// session-fault/lookup-loss window with retry/backoff, and a partition
/// that heals. Kademlia DHT discovery (k=6, alpha=2, hop budget 24).
std::string dht_faults(std::uint64_t seed, double scale, std::size_t thr) {
  const double d = 3000.0 * scale;
  std::ostringstream os;
  os << "scenario dht-faults\n"
     << "base calibrated\n"
     << "set seed " << seed << "\n"
     << "set duration " << secs(d) << "\n"
     << "set warmup 0.1\n"
     << "set categories 500\n"
     << kEqualCategories
     << "set object_bytes 4000000\n"
     << "set lookup_backend dht\n"
     << "set dht_k 6\n"
     << "set dht_alpha 2\n"
     << "set dht_hop_budget 24\n"
     << "set stale_lookup_ttl 45\n"
     << "set retry_timeout 20\n"
     << "set retry_max_attempts 3\n"
     << "set threads " << (thr != 0 ? thr : 1) << "\n"
     << "cohort sharers count=400 storage=10..30\n"
     << "cohort leechers count=150 share=no\n"
     << "at 0 churn duration=" << secs(d)
     << " interval=120 depart_rate=0.0003 arrive_rate=0.002\n"
     << "at " << secs(0.4 * d) << " crash count=80\n"
     << "at " << secs(0.5 * d) << " faults rate=0.002 lookup_loss=0.2"
     << " duration=" << secs(0.2 * d) << "\n"
     << "at " << secs(0.67 * d) << " partition split=270 duration="
     << secs(0.1 * d) << "\n";
  return os.str();
}

/// bench/million_peer.scn's operating point at 1/20 of its population:
/// sparse request graph, max_ring 3, max_pending 2, churn and one
/// arrival wave, Bloom-summary request trees, 4 threads.
std::string sparse_bloom(std::uint64_t seed, double scale, std::size_t thr) {
  const double d = 40.0 * scale;
  std::ostringstream os;
  os << "scenario sparse-bloom-t4\n"
     << "base calibrated\n"
     << "set seed " << seed << "\n"
     << "set duration " << secs(d) << "\n"
     << "set warmup 0\n"
     << "set categories 500\n"
     << kEqualCategories
     << "set object_bytes 1000000\n"
     << "set f_cat 0.2\n"
     << "set f_obj 0.2\n"
     << "set lookup_fraction 0.5\n"
     << "set max_pending 2\n"
     << "set max_providers 4\n"
     << "set max_ring 3\n"
     << "set max_ring_attempts 2\n"
     << "set tree bloom\n"
     << "set threads " << (thr != 0 ? thr : 4) << "\n"
     << "cohort sharers count=32000 storage=5..40\n"
     << "cohort leechers count=13000 share=no\n"
     << "cohort latecomers count=5000 offline=yes\n"
     << "at " << secs(0.125 * d) << " churn duration=" << secs(0.75 * d)
     << " interval=" << secs(0.25 * d)
     << " depart_rate=0.0002 arrive_rate=0.002\n"
     << "at " << secs(0.5 * d) << " arrive count=2500 cohort=latecomers\n";
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense-churn", "dht-faults",
                                                 "sparse-bloom-t4"};
  return names;
}

std::string workload_text(const std::string& name, std::uint64_t seed,
                          double scale, std::size_t threads) {
  if (name == "dense-churn") return dense_churn(seed, scale, threads);
  if (name == "dht-faults") return dht_faults(seed, scale, threads);
  if (name == "sparse-bloom-t4") return sparse_bloom(seed, scale, threads);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
