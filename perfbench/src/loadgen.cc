#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "search/dijkstra.h"

namespace perfbench {

namespace {

constexpr double kInfLatency = std::numeric_limits<double>::infinity();
// How long a loop waits for outstanding answers after its window closes.
constexpr int64_t kDrainNs = 30'000'000'000;
// Longest a blocking poll sleeps before rechecking its deadlines.
constexpr int64_t kPollNs = 1'000'000;
// A request sent this much after its due time marks a freeze: on-time
// sends run at most ~0.1 ms late on a quiet machine.
constexpr int64_t kFreezeNs = 200'000;

/// CPU time the host reported stealing from the CPUs this thread may run
/// on (the "steal" column of their /proc/stat lines), in nanoseconds.
int64_t StealNs() {
  cpu_set_t mine;
  if (sched_getaffinity(0, sizeof(mine), &mine) != 0) return 0;
  std::ifstream in("/proc/stat");
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  double ticks = 0;
  for (std::string line; std::getline(in, line);) {
    int cpu = -1;
    unsigned long long f[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &cpu, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                    &f[7]) == 9 &&
        cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &mine)) {
      ticks += static_cast<double>(f[7]);
    }
  }
  return static_cast<int64_t>(ticks * ns_per_tick);
}

void AppendIds(std::string* out, std::span<const Vertex> ids) {
  out->push_back('[');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out->push_back(',');
    out->append(std::to_string(ids[i]));
  }
  out->push_back(']');
}

std::vector<Vertex> BfsBall(const hc2l::Graph& g, Vertex centre,
                            size_t limit) {
  std::vector<Vertex> ball{centre};
  std::vector<bool> seen(g.NumVertices(), false);
  seen[centre] = true;
  for (size_t head = 0; head < ball.size() && ball.size() < limit; ++head) {
    for (const hc2l::Arc& a : g.Neighbors(ball[head])) {
      if (!seen[a.to] && ball.size() < limit) {
        seen[a.to] = true;
        ball.push_back(a.to);
      }
    }
  }
  return ball;
}

}  // namespace

// -------------------------------------------------------------- workload ---

Workload::Workload(const hc2l::Graph& g, const WorkloadConfig& cfg,
                   uint64_t seed, size_t update_batches)
    : g_(g),
      cfg_(cfg),
      total_share_(cfg.point + cfg.batch + cfg.matrix + cfg.route) {
  hc2l::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const size_t n = g.NumVertices();
  const double pooled = cfg.batch + cfg.matrix + cfg.route;
  for (uint32_t i = 0; pooled > 0 && i < cfg.pool; ++i) {
    PoolEntry e;
    const double r = rng.NextDouble() * pooled;
    if (r < cfg.batch) {
      e.op = Op::kBatch;
      e.sources = {static_cast<Vertex>(rng.Below(n))};
      for (uint32_t k = 0; k < kBatchTargets; ++k) {
        e.targets.push_back(static_cast<Vertex>(rng.Below(n)));
      }
      e.line = "{\"op\":\"batch\",\"source\":" + std::to_string(e.sources[0]) +
               ",\"targets\":";
      AppendIds(&e.line, e.targets);
    } else if (r < cfg.batch + cfg.matrix) {
      e.op = Op::kMatrix;
      const std::vector<Vertex> ball =
          BfsBall(g, static_cast<Vertex>(rng.Below(n)), kNeighbourhood);
      for (uint32_t k = 0; k < kMatrixSide; ++k) {
        e.sources.push_back(ball[rng.Below(ball.size())]);
        e.targets.push_back(ball[rng.Below(ball.size())]);
      }
      e.line = "{\"op\":\"matrix\",\"sources\":";
      AppendIds(&e.line, e.sources);
      e.line += ",\"targets\":";
      AppendIds(&e.line, e.targets);
    } else {
      e.op = Op::kRoute;
      e.sources = {static_cast<Vertex>(rng.Below(n))};
      e.targets = {static_cast<Vertex>(rng.Below(n))};
      e.line = "{\"op\":\"route\",\"source\":" + std::to_string(e.sources[0]) +
               ",\"target\":" + std::to_string(e.targets[0]);
    }
    e.line += "}\n";
    pool_.push_back(std::move(e));
  }

  const std::vector<hc2l::Edge> edges = g.UndirectedEdges();
  for (size_t b = 0; b < update_batches; ++b) {
    std::vector<EdgeDelta> batch;
    while (batch.size() < kUpdateEdges) {
      const hc2l::Edge& e = edges[rng.Below(edges.size())];
      if (std::any_of(batch.begin(), batch.end(), [&](const EdgeDelta& d) {
            return d.u == e.u && d.v == e.v;
          })) {
        continue;
      }
      // New weight in [0.5, 2.0] x the generated one.
      const uint64_t w = uint64_t{e.weight} * (50 + rng.Below(151)) / 100;
      batch.push_back({e.u, e.v, static_cast<hc2l::Weight>(std::max<uint64_t>(
                                     1, w))});
    }
    deltas_.push_back(std::move(batch));
  }
}

Request Workload::Next(hc2l::Rng& rng, std::string* out) const {
  Request r;
  if (pool_.empty() || rng.NextDouble() * total_share_ < cfg_.point) {
    const size_t n = g_.NumVertices();
    r.s = static_cast<Vertex>(rng.Below(n));
    r.t = static_cast<Vertex>(rng.Below(n));
    out->append("{\"op\":\"point\",\"sources\":[");
    out->append(std::to_string(r.s));
    out->append("],\"targets\":[");
    out->append(std::to_string(r.t));
    out->append("]}\n");
    return r;
  }
  r.pool = static_cast<int32_t>(rng.Below(pool_.size()));
  const PoolEntry& e = pool_[r.pool];
  r.op = e.op;
  r.s = e.sources[0];
  r.t = e.targets[0];
  out->append(e.line);
  return r;
}

std::string Workload::UpdateLine(const std::vector<EdgeDelta>& deltas) {
  std::string line = "{\"op\":\"update_weights\",\"edges\":[";
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (i != 0) line.push_back(',');
    line += "[" + std::to_string(deltas[i].u) + "," +
            std::to_string(deltas[i].v) + "," +
            std::to_string(deltas[i].weight) + "]";
  }
  line += "]}\n";
  return line;
}

void Workload::AppendPairs(const Request& r,
                           std::vector<std::pair<Vertex, Vertex>>* out) const {
  if (r.pool < 0 || r.op == Op::kRoute) {
    out->emplace_back(r.s, r.t);
    return;
  }
  const PoolEntry& e = pool_[r.pool];
  for (Vertex s : e.sources) {
    for (Vertex t : e.targets) out->emplace_back(s, t);
  }
}

// ---------------------------------------------------------- answer book ---

AnswerBook::AnswerBook(const Workload& w, const hc2l::Router& reference)
    : w_(w), ref_(reference) {
  expected_.resize(w.pool_size());
  verified_.resize(w.pool_size());
  for (size_t i = 0; i < w.pool_size(); ++i) {
    Request r;
    r.pool = static_cast<int32_t>(i);
    r.op = w.pool(r.pool).op;
    r.s = w.pool(r.pool).sources[0];
    r.t = w.pool(r.pool).targets[0];
    ExpectedFor(ref_, r, &expected_[i]);
  }
}

void AnswerBook::ExpectedFor(const hc2l::Router& router, const Request& r,
                             std::vector<Dist>* out) const {
  if (r.pool < 0 || r.op == Op::kRoute) {
    out->assign(1, router.DistanceUnchecked(r.s, r.t));
    return;
  }
  const PoolEntry& e = w_.pool(r.pool);
  if (e.op == Op::kBatch) {
    out->resize(e.targets.size());
    (void)router.BatchQueryInto(e.sources[0], e.targets, *out);
  } else {
    out->resize(e.sources.size() * e.targets.size());
    (void)router.DistanceMatrixInto(e.sources, e.targets, *out);
  }
}

bool AnswerBook::Fail(const std::string& why) {
  if (wrong_++ == 0) first_error_ = why;
  return false;
}

bool AnswerBook::VerifyAgainstDijkstra(const hc2l::Router& router,
                                       const hc2l::Graph& graph,
                                       std::span<const Vertex> sources) {
  std::vector<Vertex> all(graph.NumVertices());
  for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<Vertex>(v);
  std::vector<Dist> got(all.size());
  bool ok = true;
  for (Vertex s : sources) {
    // One Dijkstra row checks each query path the requests use: the
    // one-to-many batch, the matrix and the single-pair query.
    const std::vector<Dist> want = hc2l::AllDistancesFrom(graph, s);
    std::string why;
    auto check = [&](const char* path, bool called) {
      if (!called || !CheckDistances(want, got, &why)) {
        if (oracle_failures_++ == 0 && wrong_ == 0) {
          first_error_ = std::string(path) + " disagrees with Dijkstra from " +
                         std::to_string(s) + ": " + why;
        }
        ok = false;
      }
    };
    check("BatchQueryInto", router.BatchQueryInto(s, all, got).ok());
    const Vertex row[] = {s};
    check("DistanceMatrixInto", router.DistanceMatrixInto(row, all, got).ok());
    for (Vertex t : all) got[t] = router.DistanceUnchecked(s, t);
    check("DistanceUnchecked", true);
  }
  return ok;
}

bool AnswerBook::OnAnswer(const Request& r, std::string_view line,
                          uint32_t lo, uint32_t hi) {
  std::string why;
  if (r.op == Op::kRoute) {
    if (line == verified_[r.pool]) return true;
    uint64_t dist = 0;
    if (!ParseNumberField(line, "distance", &dist) ||
        !ParseDistArray(line, "vertices", &scratch_)) {
      return Fail("malformed route answer: " + std::string(line));
    }
    path_.assign(scratch_.begin(), scratch_.end());
    if (!CheckRoute(w_.graph(), r.s, r.t, expected_[r.pool][0], dist, path_,
                    &why)) {
      return Fail(why);
    }
    verified_[r.pool] = line;
    return true;
  }
  if (!w_.config().live && r.pool >= 0 && line == verified_[r.pool]) {
    return true;
  }
  if (!ParseDistArray(line, "distances", &scratch_)) {
    return Fail("malformed answer: " + std::string(line.substr(0, 120)));
  }
  if (w_.config().live) {
    kept_.push_back({r, lo, hi, static_cast<uint32_t>(kept_dists_.size()),
                     static_cast<uint32_t>(scratch_.size())});
    kept_dists_.insert(kept_dists_.end(), scratch_.begin(), scratch_.end());
    return true;
  }
  if (r.pool < 0) {
    const Dist want = ref_.DistanceUnchecked(r.s, r.t);
    if (scratch_.size() != 1 || scratch_[0] != want) {
      return Fail("point " + std::to_string(r.s) + "->" +
                  std::to_string(r.t) + " answered " + std::string(line) +
                  ", expected " + std::to_string(want));
    }
    return true;
  }
  if (!CheckDistances(expected_[r.pool], scratch_, &why)) {
    return Fail("pool request " + std::to_string(r.pool) + ": " + why);
  }
  verified_[r.pool] = line;
  return true;
}

uint64_t AnswerBook::CheckDeferred() {
  uint32_t last_epoch = 0;
  for (const Kept& k : kept_) last_epoch = std::max(last_epoch, k.hi);
  std::vector<bool> matched(kept_.size(), false);
  hc2l::Graph graph = w_.graph();
  hc2l::Rng rng(w_.num_deltas() * 31 + 7);
  std::unique_ptr<hc2l::Router> owned;
  const hc2l::Router* router = &ref_;
  std::vector<Dist> want;
  for (uint32_t e = 0; e <= last_epoch; ++e) {
    if (e > 0) {
      // Snapshot e = the original index with update batches 0..e-1 applied.
      const std::vector<EdgeDelta>& batch = w_.deltas(e - 1);
      hc2l::Result<hc2l::Router> next =
          router->UpdateWeights(batch, true, kEngineThreads);
      if (!next.ok()) {
        Fail("in-process update " + std::to_string(e) + " failed: " +
             next.status().ToString());
        return wrong_;
      }
      owned = std::make_unique<hc2l::Router>(std::move(next).value());
      router = owned.get();
      for (const EdgeDelta& d : batch) graph.UpdateEdgeWeight(d.u, d.v, d.weight);
    }
    // Independent check of the snapshot: Dijkstra rows from the endpoints
    // of the batch that produced it, and from a random vertex.
    std::vector<Vertex> sources{
        static_cast<Vertex>(rng.Below(graph.NumVertices()))};
    if (e > 0) sources.push_back(w_.deltas(e - 1)[0].u);
    VerifyAgainstDijkstra(*router, graph, sources);
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      if (matched[i] || e < k.lo || e > k.hi) continue;
      ExpectedFor(*router, k.req, &want);
      matched[i] = want.size() == k.length &&
                   std::equal(want.begin(), want.end(),
                              kept_dists_.begin() + k.offset);
    }
  }
  for (size_t i = 0; i < kept_.size(); ++i) {
    if (!matched[i]) {
      Fail("answer to a " + std::string(kept_[i].req.pool < 0 ? "point"
                                                              : "batch") +
           " request matches no snapshot of epochs " +
           std::to_string(kept_[i].lo) + ".." + std::to_string(kept_[i].hi));
    }
  }
  return wrong_;
}

// ------------------------------------------------------------ the client ---

namespace {

struct Pending {
  Request req;
  int64_t due_ns;
  uint32_t lo;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_off = 0;
  std::deque<Pending> pending;
  bool broken = false;
};

/// Nonblocking loopback connections polled by one epoll set.
class Client {
 public:
  Client(uint16_t port, size_t n) : conns_(n) {
    ep_ = epoll_create1(0);
    for (size_t i = 0; i < n; ++i) {
      Conn& c = conns_[i];
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 || connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
        c.broken = true;
        continue;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
    }
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    close(ep_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Conn& conn(size_t i) { return conns_[i]; }
  size_t size() const { return conns_.size(); }

  void Send(size_t i, std::string_view data) {
    conns_[i].out.append(data);
    Flush(conns_[i]);
  }

  /// Waits up to timeout_ns for answers; calls on_line(conn, line) for
  /// every complete line received.
  template <typename F>
  void Poll(int64_t timeout_ns, F&& on_line) {
    for (Conn& c : conns_) Flush(c);
    epoll_event events[8];
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = epoll_pwait2(ep_, events, 8, &timeout, nullptr);
    for (int e = 0; e < n; ++e) {
      const size_t i = events[e].data.u32;
      Conn& c = conns_[i];
      char buf[1 << 16];
      for (;;) {
        const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          c.broken = true;
          epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
        }
        break;
      }
      size_t start = 0;
      for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        on_line(i, std::string_view(c.in).substr(start, nl - start));
      }
      c.in.erase(0, start);
    }
  }

 private:
  void Flush(Conn& c) {
    while (!c.broken && c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        c.broken = true;
        return;
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  int ep_ = -1;
  std::vector<Conn> conns_;
};

/// Waits up to timeout_ns for the next line on connection `conn` (the only
/// one with a request outstanding); nullopt when none came or it broke.
std::optional<std::string> AwaitLine(Client& c, size_t conn, int64_t timeout_ns) {
  std::optional<std::string> line;
  const int64_t start = NowNs();
  while (!line && !c.conn(conn).broken && NowNs() - start < timeout_ns) {
    c.Poll(kPollNs, [&](size_t i, std::string_view l) {
      if (i == conn && !line) line = l;
    });
  }
  return line;
}

/// The live-traffic writer: update_weights lines on its own connection, the
/// first when the session starts, then at most one per interval and each
/// only after the previous one was answered.
/// Tracks the epoch window reads are checked against.
class Writer {
 public:
  Writer(const Workload& w, size_t conn, int64_t start_ns)
      : w_(w),
        conn_(conn),
        start_ns_(start_ns),
        interval_ns_(static_cast<int64_t>(w.config().update_interval_ms *
                                          1e6)) {}

  /// Epochs certainly published / possibly published. The warm-up update
  /// (batch 0) was answered before the loop started.
  uint32_t acked() const { return acked_; }
  uint32_t issued() const { return issued_; }
  bool busy() const { return busy_; }
  int64_t in_flight_ns(int64_t now) const {
    return in_flight_ns_ + (busy_ ? now - sent_ns_ : 0);
  }

  void Tick(Client& c, int64_t now, bool allowed, PhaseStats* st) {
    if (busy_ || !allowed || failed_ || now < start_ns_ + tick_ * interval_ns_ ||
        issued_ >= w_.num_deltas()) {
      return;
    }
    c.Send(conn_, Workload::UpdateLine(w_.deltas(issued_)));
    busy_ = true;
    sent_ns_ = now;
    ++issued_;
    ++st->updates_sent;
    tick_ = (now - start_ns_) / interval_ns_ + 1;
  }

  void OnLine(std::string_view line, int64_t now, PhaseStats* st) {
    in_flight_ns_ += now - sent_ns_;
    busy_ = false;
    uint64_t epoch = 0;
    if (ClassifyReply(line) != Reply::kOk ||
        !ParseNumberField(line, "epoch", &epoch) || epoch != issued_) {
      // The in-process snapshot chain would no longer match the server's.
      failed_ = true;
      ++st->updates_failed;
      return;
    }
    acked_ = issued_;
    st->update_ms.push_back(static_cast<double>(now - sent_ns_) / 1e6);
  }

  void Abandon(int64_t now, PhaseStats* st) {
    if (busy_) {
      in_flight_ns_ += now - sent_ns_;
      ++st->updates_failed;
    }
    busy_ = false;
  }

 private:
  const Workload& w_;
  size_t conn_;
  int64_t start_ns_;
  int64_t interval_ns_;
  int64_t tick_ = 0;  // the first update goes out when the session starts
  int64_t sent_ns_ = 0;
  int64_t in_flight_ns_ = 0;
  uint32_t acked_ = 1;
  uint32_t issued_ = 1;
  bool busy_ = false;
  bool failed_ = false;
};

}  // namespace

void PhaseStats::Merge(const PhaseStats& o) {
  sent += o.sent;
  ok += o.ok;
  shed += o.shed;
  errors += o.errors;
  wrong += o.wrong;
  unanswered += o.unanswered;
  latency_us.insert(latency_us.end(), o.latency_us.begin(),
                    o.latency_us.end());
  latency_window.insert(latency_window.end(), o.latency_window.begin(),
                        o.latency_window.end());
  latency_due_ns.insert(latency_due_ns.end(), o.latency_due_ns.begin(),
                        o.latency_due_ns.end());
  freezes.insert(freezes.end(), o.freezes.begin(), o.freezes.end());
  open_steal_ns += o.open_steal_ns;
  gen_late_ms.insert(gen_late_ms.end(), o.gen_late_ms.begin(),
                     o.gen_late_ms.end());
  round_late_ms.insert(round_late_ms.end(), o.round_late_ms.begin(),
                       o.round_late_ms.end());
  update_ms.insert(update_ms.end(), o.update_ms.begin(), o.update_ms.end());
  updates_sent += o.updates_sent;
  updates_failed += o.updates_failed;
}

struct Session::State {
  State(const Workload& w, uint16_t port)
      : client(port, std::max(w.config().closed_conns, w.config().open_conns) +
                         (w.config().live ? 1 : 0)),
        writer(w, client.size() - 1, NowNs()) {}
  Client client;
  Writer writer;
};

Session::Session(const Workload& w, AnswerBook& book, uint16_t port,
                 uint64_t stream_seed, Tracer* tracer, uint32_t parent_span)
    : w_(w),
      book_(book),
      state_(std::make_unique<State>(w, port)),
      closed_rng_(stream_seed),
      open_rng_(stream_seed + 1),
      tracer_(tracer),
      parent_span_(parent_span),
      // Wake at a request's due time, not up to 50 us after it (the default
      // slack). Set after the server started, so its threads keep theirs.
      old_timer_slack_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  for (size_t i = 0; i < state_->client.size(); ++i) {
    if (state_->client.conn(i).broken) ++stats_.errors;
  }
}

Session::~Session() { prctl(PR_SET_TIMERSLACK, old_timer_slack_, 0, 0, 0); }

template <typename OnRead>
void Session::Drive(int64_t deadline, OnRead&& on_read,
                    const std::function<int64_t(int64_t)>& send) {
  Client& c = state_->client;
  Writer& writer = state_->writer;
  const size_t writer_conn = c.size() - 1;
  for (;;) {
    const int64_t now = NowNs();
    const int64_t next_send = send(now);
    if (w_.config().live) writer.Tick(c, now, now < deadline, &stats_);
    size_t pending = 0;
    for (size_t i = 0; i < c.size(); ++i) pending += c.conn(i).pending.size();
    if (now >= deadline && pending == 0) return;
    if (now >= deadline + kDrainNs) break;
    // Sleep until an answer arrives or the next request is due.
    c.Poll(std::clamp<int64_t>(next_send - NowNs(), 0, kPollNs),
           [&](size_t i, std::string_view line) {
      const int64_t at = NowNs();
      if (w_.config().live && i == writer_conn) {
        writer.OnLine(line, at, &stats_);
        return;
      }
      Conn& cn = c.conn(i);
      if (cn.pending.empty()) {
        ++stats_.errors;
        return;
      }
      const Pending p = cn.pending.front();
      cn.pending.pop_front();
      const uint64_t failed_before = stats_.failed();
      switch (ClassifyReply(line)) {
        case Reply::kOk:
          if (book_.OnAnswer(p.req, line, p.lo, writer.issued())) {
            ++stats_.ok;
          } else {
            ++stats_.wrong;
          }
          break;
        case Reply::kOverloaded:
          ++stats_.shed;
          break;
        case Reply::kError:
          ++stats_.errors;
          break;
      }
      on_read(i, p, at, stats_.failed() == failed_before);
    });
    for (size_t i = 0; i < c.size(); ++i) {
      Conn& cn = c.conn(i);
      if (!cn.broken) continue;
      for (const Pending& p : cn.pending) on_read(i, p, NowNs(), false);
      stats_.unanswered += cn.pending.size();
      cn.pending.clear();
      if (i == writer_conn) writer.Abandon(NowNs(), &stats_);
    }
  }
  // Drain budget spent: whatever is still outstanding went unanswered.
  for (size_t i = 0; i < c.size(); ++i) {
    for (const Pending& p : c.conn(i).pending) on_read(i, p, NowNs(), false);
    stats_.unanswered += c.conn(i).pending.size();
    c.conn(i).pending.clear();
  }
}

double Session::ClosedRound(double seconds) {
  const WorkloadConfig& cfg = w_.config();
  Client& c = state_->client;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> burst_start(cfg.closed_conns, start);
  std::string burst;
  uint64_t completed = 0;
  auto fire = [&](size_t i, int64_t now) {
    burst.clear();
    Conn& cn = c.conn(i);
    for (uint32_t d = 0; d < cfg.closed_depth; ++d) {
      cn.pending.push_back(
          {w_.Next(closed_rng_, &burst), now, state_->writer.acked()});
    }
    burst_start[i] = now;
    stats_.sent += cfg.closed_depth;
    c.Send(i, burst);
  };
  for (size_t i = 0; i < cfg.closed_conns; ++i) fire(i, start);
  Drive(
      deadline,
      [&](size_t i, const Pending&, int64_t at, bool ok) {
        if (ok && at < deadline) ++completed;
        if (!c.conn(i).pending.empty()) return;
        if (tracer_ != nullptr) {
          tracer_->Add("client.burst", parent_span_, burst_start[i], at,
                       cfg.closed_depth);
        }
        if (at < deadline && !c.conn(i).broken) fire(i, at);
      },
      [](int64_t) { return std::numeric_limits<int64_t>::max(); });
  return static_cast<double>(completed) / seconds;
}

void Session::OpenRound(double seconds, uint8_t round) {
  const WorkloadConfig& cfg = w_.config();
  Client& c = state_->client;
  const int64_t steal0 = StealNs();
  const OpenLoopSchedule schedule(NowNs() + 100'000, cfg.open_rate);
  const uint64_t total = schedule.CountWithin(seconds);
  uint64_t next = 0;
  double late_max_ms = 0;
  std::string line;
  Drive(
      schedule.Due(total),
      [&](size_t, const Pending& p, int64_t at, bool ok) {
        // A failed request misses every latency limit.
        stats_.latency_us.push_back(ok ? DueLatencyUs(p.due_ns, at)
                                       : kInfLatency);
        stats_.latency_window.push_back(round);
        stats_.latency_due_ns.push_back(p.due_ns);
        if (tracer_ != nullptr) {
          tracer_->Add("client.request", parent_span_, p.due_ns, at);
        }
      },
      [&](int64_t now) {
        while (next < total && schedule.Due(next) <= now) {
          const int64_t due = schedule.Due(next);
          const size_t i = next % cfg.open_conns;
          line.clear();
          c.conn(i).pending.push_back(
              {w_.Next(open_rng_, &line), due, state_->writer.acked()});
          c.Send(i, line);
          stats_.gen_late_ms.push_back(static_cast<double>(now - due) / 1e6);
          late_max_ms = std::max(late_max_ms, stats_.gen_late_ms.back());
          if (now - due > kFreezeNs) {
            std::vector<Freeze>& fz = stats_.freezes;
            if (!fz.empty() && due <= fz.back().end_ns) {
              fz.back().end_ns = std::max(fz.back().end_ns, now);
            } else {
              fz.push_back({due, now});
            }
          }
          ++stats_.sent;
          ++next;
        }
        return next < total ? schedule.Due(next)
                            : std::numeric_limits<int64_t>::max();
      });
  stats_.round_late_ms.push_back(late_max_ms);
  stats_.open_steal_ns += StealNs() - steal0;
}

void Session::Finish() {
  // Lets an update still in flight complete (live workloads).
  if (!w_.config().live) return;
  Client& c = state_->client;
  Writer& writer = state_->writer;
  if (writer.busy()) {
    const std::optional<std::string> line = AwaitLine(c, c.size() - 1, kDrainNs);
    if (line) writer.OnLine(*line, NowNs(), &stats_);
  }
  writer.Abandon(NowNs(), &stats_);
}

int64_t Session::UpdateInFlightNs() const {
  return state_->writer.in_flight_ns(NowNs());
}

PhaseStats RunSerialUpdates(const Workload& w, uint16_t port,
                            size_t first, size_t last) {
  PhaseStats st;
  Client c(port, 1);
  for (size_t k = first; k < last; ++k) {
    const int64_t sent = NowNs();
    c.Send(0, Workload::UpdateLine(w.deltas(k)));
    ++st.updates_sent;
    const std::optional<std::string> answer = AwaitLine(c, 0, kDrainNs);
    const int64_t at = NowNs();
    uint64_t epoch = 0;
    if (!answer || ClassifyReply(*answer) != Reply::kOk ||
        !ParseNumberField(*answer, "epoch", &epoch) || epoch != k + 1) {
      ++st.updates_failed;
      break;
    }
    if (k >= 1) st.update_ms.push_back(static_cast<double>(at - sent) / 1e6);
  }
  return st;
}

std::vector<double> SerialRoundTrips(uint16_t port, std::string_view line,
                                     size_t count) {
  std::vector<double> rtt_us;
  Client c(port, 1);
  for (size_t k = 0; k < count; ++k) {
    const int64_t sent = NowNs();
    c.Send(0, line);
    if (!AwaitLine(c, 0, kDrainNs)) break;
    rtt_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
  }
  return rtt_us;
}

std::string Exchange(uint16_t port, std::string_view line) {
  Client c(port, 1);
  c.Send(0, line);
  return AwaitLine(c, 0, kDrainNs).value_or("");
}

}  // namespace perfbench
