// Self-time accounting over an exported Chrome trace.
//
// The engine's spans (obs::TraceRecorder) carry inclusive durations: a
// drain.merge span contains the snapshot.patch spans it triggers, so
// summing span totals counts the same wall time more than once. This
// module re-derives exclusive ("self") time from the recorder's
// exported events: per thread, spans nest by interval, and a span's self
// time is its duration minus the durations of its direct children on
// the same thread.
//
// The benchmark wraps every timed Driver::run_to/run call in a root span
// named `root`. Only spans nested under a root on the root's thread are
// attributed; the root's own self time is the wall time no engine span
// covers (reported as engine.unattributed_ms). By construction the rows
// sum to the roots' total duration.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct SelfTimes {
  /// Self nanoseconds per span name, coordinator thread, inside roots.
  std::map<std::string, std::uint64_t> self_ns;
  /// Inclusive nanoseconds per span name over every thread and every
  /// interval (worker-thread spans such as speculate.shard land here).
  std::map<std::string, std::uint64_t> total_ns;
  std::uint64_t root_ns = 0;  ///< summed duration of the root spans
  std::uint64_t events = 0;   ///< events parsed
  /// Spans that overlapped their parent's end instead of nesting in it
  /// (0 for RAII spans; counted so a broken export cannot go unseen).
  std::uint64_t misnested = 0;
};

/// Parses TraceRecorder::to_chrome_json() output and attributes self
/// time below the spans named `root`.
[[nodiscard]] SelfTimes self_times(const std::string& chrome_json,
                                   const std::string& root);

}  // namespace perfbench
