#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's own arithmetic, kept free of sockets and servers so that
// perfbench_selftest can pin it: percentile selection, open-loop due-time
// accounting, span self time, response scanning and the answer checker.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace perfbench {

using hc2l::Dist;
using hc2l::Vertex;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ statistics ---

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// all samples are <= it (p in (0, 100]). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// A latency sample summarised the way the benchmark reports it: median,
/// p90, and the two tail percentiles with how many samples lie beyond each
/// (a tail percentile is only meaningful with >= 10 samples beyond it).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  size_t beyond_p99 = 0, beyond_p999 = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// The p-th percentile within each window (samples[i] belongs to window[i],
/// 0 <= window < windows), in window order. Empty windows are skipped.
std::vector<double> PerWindowPercentiles(const std::vector<double>& samples,
                                         const std::vector<uint8_t>& window,
                                         int windows, double p);

/// The `across`-th percentile of PerWindowPercentiles(samples, window,
/// windows, p).
double WindowedPercentile(const std::vector<double>& samples,
                          const std::vector<uint8_t>& window, int windows,
                          double p, double across);

// ---------------------------------------------------- open-loop schedule ---

/// Request i of an open loop is due at start + i * interval, whatever
/// happened to earlier requests. A request's latency runs from when it was
/// due, not from when the (possibly stalled) generator sent it, so a stall
/// shows up as latency of every request it delayed.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {}
  int64_t Due(uint64_t i) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(i) *
                                            interval_ns_);
  }
  /// Requests due in [start, start + seconds).
  uint64_t CountWithin(double seconds) const {
    return static_cast<uint64_t>(seconds * 1e9 / interval_ns_);
  }

 private:
  int64_t start_ns_;
  double interval_ns_;
};

/// Latency of one open-loop request in microseconds: answer time minus due
/// time.
inline double DueLatencyUs(int64_t due_ns, int64_t answered_ns) {
  return static_cast<double>(answered_ns - due_ns) / 1e3;
}

// ------------------------------------------------------------ host stalls ---

/// An interval in which the open-loop client ran late: from a request's due
/// time until the client sent it.
struct Freeze {
  int64_t start_ns, end_ns;
};

/// Flags the open-loop requests (due_ns[i], latency_us[i]) that a freeze of
/// the host delayed. The host's steal counter says how much CPU time it
/// took from the benchmark; the longest freezes are charged to it until
/// their total would pass steal_ns, and the rest stay the program's. A
/// charged freeze delays every request in flight during it and, for as long
/// again after it ends, the backlog it left. With steal_ns = 0 nothing is
/// flagged, and a failed request (infinite latency) never is.
std::vector<bool> HostDelayed(std::vector<Freeze> freezes, int64_t steal_ns,
                              const std::vector<int64_t>& due_ns,
                              const std::vector<double>& latency_us);

// ---------------------------------------------------------------- tracer ---

/// In-memory spans recorded around calls into each layer. A span's parent
/// is either the span that encloses it in time, or the span whose work it
/// replays in isolation (the parse and engine replays of one wire line are
/// children of the HandleLine replay). Either way a span's self time is its
/// duration minus its children's durations.
class Tracer {
 public:
  static constexpr uint32_t kRoot = 0;

  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t count;  // operations the span covers (per-op figures divide)
  };

  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  /// Opens a span now; returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent = kRoot);
  /// Closes span `id` now, covering `count` operations.
  void End(uint32_t id, uint64_t count = 1);
  /// Adds an already-timed span; returns its id (0 when disabled).
  uint32_t Add(const char* name, uint32_t parent, int64_t start_ns,
               int64_t end_ns, uint64_t count = 1);

  const Span& Get(uint32_t id) const { return spans_[id - 1]; }
  double DurationNs(uint32_t id) const;
  /// Duration minus the durations of every span whose parent is `id`.
  double SelfNs(uint32_t id) const;
  size_t size() const { return spans_.size(); }
  void Reserve(size_t n) { spans_.reserve(n); }

  /// One JSON object per line: id, parent, name, start/end (ns), count.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------ response scanning ---

enum class Reply { kOk, kOverloaded, kError };

/// Classifies a response line by its "ok" flag and error code.
Reply ClassifyReply(std::string_view line);

/// Parses the JSON number array after "key": into *out (null -> kInfDist).
/// False when the key is absent or the array is malformed.
bool ParseDistArray(std::string_view line, std::string_view key,
                    std::vector<Dist>* out);

/// Parses the unsigned number (or null -> kInfDist) after "key":.
bool ParseNumberField(std::string_view line, std::string_view key,
                      uint64_t* out);

/// Parses the number after "key": inside the object that follows "object":
/// (e.g. the p50 of one "info" histogram). False when either is missing.
bool ParseNestedField(std::string_view line, std::string_view object,
                      std::string_view key, uint64_t* out);

// --------------------------------------------------------- answer checks ---

/// Checks a route answer against the graph: a valid path from s to t whose
/// edge weights sum to the reported distance, which must equal `expected`
/// (an unreachable pair must answer kInfDist with no vertices). On failure
/// *why says what was wrong.
bool CheckRoute(const hc2l::Graph& g, Vertex s, Vertex t, Dist expected,
                Dist reported, std::span<const Vertex> path,
                std::string* why);

/// Element-wise equality, with the first mismatch described in *why.
bool CheckDistances(std::span<const Dist> expected,
                    std::span<const Dist> reported, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
