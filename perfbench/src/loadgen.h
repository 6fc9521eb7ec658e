#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Request generation, answer checking and the loopback client loops. One
// client thread drives every connection through one epoll set.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "harness.h"
#include "hc2l/router.h"

namespace perfbench {

using hc2l::EdgeDelta;

enum class Op : uint8_t { kPoint, kBatch, kMatrix, kRoute };

/// What differs between workloads besides the seed. run.py fills it from
/// perfbench/workloads.json.
struct WorkloadConfig {
  std::string name;
  uint64_t vertices = 3000;
  // Request mix (shares of reads; need not sum to 1).
  double point = 1, batch = 0, matrix = 0, route = 0;
  // Distinct batch/matrix/route requests; the stream draws from this pool.
  uint32_t pool = 512;
  uint32_t closed_conns = 4, closed_depth = 32;
  double open_rate = 10000;
  uint32_t open_conns = 4;
  // live: a writer connection sends an update every update_interval_ms
  // during both loops. Otherwise quiet_updates updates run after the loops.
  bool live = false;
  double update_interval_ms = 1000;
  uint32_t quiet_updates = 3;
  uint32_t setups = 3;
  // Closed and open rounds per end-to-end pass (at most 255).
  uint32_t rounds = 16;
};

// The configuration every workload shares. The thread counts pin the
// defaults that depend on the machine: client + event thread + reactor
// workers stay within nproc.
inline constexpr uint32_t kBuildThreads = 1;    // BuildOptions::num_threads
inline constexpr uint32_t kEngineThreads = 1;   // ServerOptions::num_threads (also repairs)
inline constexpr uint32_t kReactorThreads = 2;  // ServerOptions::reactor_threads
// CPUs the client and server share: see PinToCpus in main.cc.
inline constexpr uint32_t kCpus = 1;
inline constexpr uint32_t kBatchTargets = 8;
inline constexpr uint32_t kMatrixSide = 32;
// Matrix endpoints are drawn from the first kNeighbourhood vertices a BFS
// reaches from a uniformly random centre.
inline constexpr uint32_t kNeighbourhood = 256;
inline constexpr uint32_t kUpdateEdges = 8;
// Full Dijkstra rows the in-process index is checked against.
inline constexpr uint32_t kDijkstraSources = 4;
// Share of --seconds the closed loop gets; the open loop gets the rest.
inline constexpr double kClosedShare = 0.4;

/// One read request as the client remembers it until its answer arrives.
struct Request {
  Op op = Op::kPoint;
  int32_t pool = -1;  // index into Workload::pool() (non-point ops)
  Vertex s = 0, t = 0;
};

struct PoolEntry {
  Op op;
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  std::string line;  // '\n'-terminated request line
};

/// The generated inputs of one workload: request pool, update batches.
/// Deterministic in (graph, config, seed).
class Workload {
 public:
  Workload(const hc2l::Graph& g, const WorkloadConfig& cfg, uint64_t seed,
           size_t update_batches);

  /// Draws the next read request of a stream and appends its line to *out.
  Request Next(hc2l::Rng& rng, std::string* out) const;

  const PoolEntry& pool(int32_t i) const { return pool_[i]; }
  size_t pool_size() const { return pool_.size(); }
  /// Update batch k (k = 0 is the warm-up update of each server).
  const std::vector<EdgeDelta>& deltas(size_t k) const { return deltas_[k]; }
  size_t num_deltas() const { return deltas_.size(); }
  static std::string UpdateLine(const std::vector<EdgeDelta>& deltas);

  /// The (source, target) pairs a request asks for, appended to *out.
  void AppendPairs(const Request& r, std::vector<std::pair<Vertex, Vertex>>*
                                         out) const;

  const hc2l::Graph& graph() const { return g_; }
  const WorkloadConfig& config() const { return cfg_; }

 private:
  const hc2l::Graph& g_;
  WorkloadConfig cfg_;
  double total_share_;
  std::vector<PoolEntry> pool_;
  std::vector<std::vector<EdgeDelta>> deltas_;
};

/// Checks every answer. Without live updates an answer must equal the
/// in-process Router's (itself checked against Dijkstra rows); routes must
/// also be valid paths of the reported weight. With live updates answers
/// are kept and checked afterwards against every snapshot that was live
/// while the request was outstanding (CheckDeferred).
class AnswerBook {
 public:
  AnswerBook(const Workload& w, const hc2l::Router& reference);

  /// Compares the reference router with Dijkstra from `sources` full rows
  /// over `graph`; false (and a message) on any difference.
  bool VerifyAgainstDijkstra(const hc2l::Router& router,
                             const hc2l::Graph& graph,
                             std::span<const Vertex> sources);

  /// One answer. lo..hi is the window of server epochs that may have
  /// served it (ignored without live updates). Returns false for a wrong
  /// answer that is already known to be wrong.
  bool OnAnswer(const Request& r, std::string_view line, uint32_t lo,
                uint32_t hi);

  /// Live updates: replays the update chain in process and checks every
  /// kept answer. Returns the number of wrong answers (and verifies each
  /// snapshot against Dijkstra rows).
  uint64_t CheckDeferred();

  /// Wrong answers to requests.
  uint64_t wrong() const { return wrong_; }
  /// Disagreements between an in-process index and Dijkstra.
  uint64_t oracle_failures() const { return oracle_failures_; }
  const std::string& first_error() const { return first_error_; }

 private:
  bool Fail(const std::string& why);
  void ExpectedFor(const hc2l::Router& router, const Request& r,
                   std::vector<Dist>* out) const;

  struct Kept {
    Request req;
    uint32_t lo, hi;
    uint32_t offset, length;
  };

  const Workload& w_;
  const hc2l::Router& ref_;
  std::vector<std::vector<Dist>> expected_;  // per pool entry
  std::vector<std::string> verified_;        // per pool entry
  std::vector<Kept> kept_;
  std::vector<Dist> kept_dists_;
  std::vector<Dist> scratch_;
  std::vector<Vertex> path_;
  uint64_t wrong_ = 0;
  uint64_t oracle_failures_ = 0;
  std::string first_error_;
};

/// What one loop phase observed.
struct PhaseStats {
  uint64_t sent = 0, ok = 0, shed = 0, errors = 0, wrong = 0, unanswered = 0;
  std::vector<double> latency_us;   // open loop, from due time
  std::vector<uint8_t> latency_window;  // round of each latency sample
  std::vector<int64_t> latency_due_ns;  // due time of each latency sample
  std::vector<double> gen_late_ms;  // open loop, send minus due
  std::vector<double> round_late_ms;  // open loop, largest send minus due per round
  // Open loop: intervals in which the client sent late (see HostDelayed),
  // and the steal the host reported on the benchmark's CPUs meanwhile.
  std::vector<Freeze> freezes;
  int64_t open_steal_ns = 0;
  std::vector<double> update_ms;    // measured update round trips
  uint64_t updates_sent = 0, updates_failed = 0;

  uint64_t failed() const { return shed + errors + wrong + unanswered; }
  void Merge(const PhaseStats& o);
};

/// The connections of one end-to-end pass against one server: the read
/// connections plus, for live workloads, the writer connection, which sends
/// an update_weights line every update_interval_ms throughout the rounds.
/// Closed and open rounds alternate on the same connections, so a
/// disturbance of the machine hits a few rounds rather than a whole loop.
/// A live session expects update batch 0 to have been applied already
/// (RunSerialUpdates(w, port, 0, 1)).
class Session {
 public:
  Session(const Workload& w, AnswerBook& book, uint16_t port,
          uint64_t stream_seed, Tracer* tracer, uint32_t parent_span);
  ~Session();

  /// Closed round: closed_conns connections, each sending a burst of
  /// closed_depth lines and waiting for every answer before the next
  /// burst. Returns the answers completed within the round per second.
  double ClosedRound(double seconds);

  /// Open round at open_rate requests/s, one line per send, round robin
  /// over open_conns connections. Latency runs from each request's due
  /// time; samples are tagged with `round`.
  void OpenRound(double seconds, uint8_t round);

  /// Waits for an update still in flight.
  void Finish();

  /// Live workloads: nanoseconds so far during which an update was in
  /// flight on the writer connection.
  int64_t UpdateInFlightNs() const;

  PhaseStats& stats() { return stats_; }

 private:
  struct State;
  /// Runs the client until `deadline` and every read is answered. send(now)
  /// issues what is due and returns when the next request is due;
  /// on_read(conn, pending, answered_at, ok) books each answered read.
  template <typename OnRead>
  void Drive(int64_t deadline, OnRead&& on_read,
             const std::function<int64_t(int64_t)>& send);

  const Workload& w_;
  AnswerBook& book_;
  std::unique_ptr<State> state_;
  hc2l::Rng closed_rng_, open_rng_;
  Tracer* tracer_;
  uint32_t parent_span_;
  int old_timer_slack_;
  PhaseStats stats_;
};

/// Sends update batches first..last-1 one after another on a fresh
/// connection; round trips of batches >= 1 are measured (batch 0 fills
/// the server's repair cache, and live sessions start after it).
PhaseStats RunSerialUpdates(const Workload& w, uint16_t port,
                            size_t first, size_t last);

/// Serial request/response round trips of `line` on one connection, in
/// microseconds.
std::vector<double> SerialRoundTrips(uint16_t port, std::string_view line,
                                     size_t count);

/// One request/response exchange on a fresh connection ("" on failure).
std::string Exchange(uint16_t port, std::string_view line);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
