// The benchmark's three scenario workloads, generated from a seed.
//
// Each workload is a .scn text built here from (name, seed, scale); the
// simulator only ever sees that generated text, which the benchmark
// parses with scenario::Spec::parse_text like any other scenario file.
// `scale` shortens the simulated horizon (and moves every timeline event
// with it) for the thread-invariance checks; the timed runs use 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The .scn text for `name` (throws std::invalid_argument when unknown).
/// `threads` overrides the workload's own thread count when non-zero.
[[nodiscard]] std::string workload_text(const std::string& name,
                                        std::uint64_t seed, double scale,
                                        std::size_t threads);

}  // namespace perfbench
