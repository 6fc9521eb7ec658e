#include "server/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"

namespace hc2l {

namespace {

using Clock = std::chrono::steady_clock;

/// Socket read size per readable event. Level-triggered epoll refires while
/// more bytes wait, so one chunk per event keeps the loop fair across
/// connections.
constexpr size_t kReadChunk = 16384;

/// A streaming worker blocks (backpressure) while a connection's output
/// buffer holds more than this; the event thread releases it as the socket
/// drains. Bounds per-connection memory for arbitrarily large streams.
constexpr size_t kStreamHighWater = size_t{4} << 20;

/// Extra ready connections one worker pulls into a coalescing group while
/// it has staged requests pending. Bounds the batching latency and the
/// parallelism a single worker can absorb.
constexpr size_t kCoalesceFanIn = 4;

void CloseFd(int fd) {
  if (fd >= 0) {
    while (::close(fd) != 0 && errno == EINTR) {
    }
  }
}

/// recv() with the "server.recv" fault point in front: the chaos suite can
/// turn any read into an EINTR/ECONNRESET failure, a short read, or a
/// premature EOF without a cooperating client.
ssize_t RecvSome(int fd, char* buf, size_t cap) {
  const auto act = HC2L_FAULT_ON_IO("server.recv", cap);
  if (act.fail) {
    errno = act.err != 0 ? act.err : ECONNRESET;
    return -1;
  }
  if (act.eof) return 0;
  return ::recv(fd, buf, std::min(act.bytes, cap), 0);
}

/// send() with the "server.send" fault point in front. An injected failure
/// (or EOF) reads as a dead peer, exactly like the thread-per-connection
/// server treated it.
ssize_t SendSome(int fd, const char* data, size_t size) {
  const auto act = HC2L_FAULT_ON_IO("server.send", size);
  if (act.fail) {
    errno = act.err != 0 ? act.err : EPIPE;
    return -1;
  }
  if (act.eof) {
    errno = EPIPE;
    return -1;
  }
  return ::send(fd, data, std::min(act.bytes, size), MSG_NOSIGNAL);
}

void AppendDeadlineResponse(const char* what, std::string* out) {
  out->append("{\"ok\":false,\"code\":\"DeadlineExceeded\",\"message\":\"");
  out->append(what);
  out->append("\"}\n");
}

}  // namespace

struct Reactor::Impl {
  /// One client connection. The event thread owns the fd and the fields
  /// below the mutex comment; the mutex guards the buffer hand-off between
  /// the event thread and the (at most one) worker the connection is
  /// scheduled to.
  struct Conn {
    int fd = -1;

    std::mutex mu;
    std::condition_variable cv;  // streaming backpressure release
    std::string inbuf;           // guarded by mu: raw bytes from the socket
    std::string outbuf;          // guarded by mu: responses awaiting write
    bool scheduled = false;      // guarded by mu: queued for/owned by worker
    bool more_input = false;     // guarded by mu: input arrived while owned
    bool discarding = false;     // guarded by mu: dropping an oversized line
    bool read_closed = false;    // guarded by mu: EOF seen or reads retired
    bool evict = false;          // guarded by mu: close once output flushed
    bool dead = false;           // guarded by mu: close now; workers abort

    // Worker-owned (only touched while scheduled).
    RequestHandler handler;
    uint64_t served = 0;  // responses produced on this connection

    // Event-thread-owned.
    std::string write_pending;  // bytes handed to the socket write path
    bool want_out = false;      // EPOLLOUT armed
    bool in_paused = false;     // EPOLLIN parked: input buffer high water
    bool in_wake = false;       // guarded by wake_mu: queued for event thread
    Clock::time_point last_byte{};
    Clock::time_point line_start{};
    bool line_open = false;
    Clock::time_point write_blocked_since{};
    bool write_blocked = false;

    explicit Conn(ServerHooks hooks) : handler(std::move(hooks)) {}
  };

  int listen_fd = -1;
  ReactorEnv env;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::thread event_thread;
  std::vector<std::thread> workers;

  // Worker scheduling.
  std::mutex ready_mu;
  std::condition_variable ready_cv;
  std::deque<Conn*> ready;  // guarded by ready_mu

  // Worker -> event thread wakeups (start writing / finished processing).
  std::mutex wake_mu;
  std::vector<Conn*> wake_list;  // guarded by wake_mu

  // Event-thread-owned connection registry (deadline sweeps, shutdown).
  std::vector<Conn*> conns;

  std::atomic<bool> stop{false};
  std::atomic<bool> draining{false};

  // Drain()/Stop() coordination.
  std::mutex shutdown_mu;  // serializes Drain/Stop callers
  bool stopped = false;    // guarded by shutdown_mu
  std::mutex drain_mu;
  std::condition_variable drain_cv;  // notified as connections close

  size_t input_high_water = 0;

  // ----- shared helpers -----

  void SignalWake(Conn* c) {
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      if (c != nullptr) {
        if (c->in_wake) {
          c = nullptr;  // already queued; still poke the eventfd below
        } else {
          c->in_wake = true;
          wake_list.push_back(c);
        }
      }
    }
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  // ----- worker side -----

  /// One member of a worker's processing group: the connection, its
  /// in-order responses for this cycle, and the unconsumed input tail.
  struct GroupConn {
    Conn* c = nullptr;
    std::string pending;
    std::string leftover;
    bool evict = false;
    bool hit_cap = false;
    bool finished = false;  // handed back by FinishConn; never touch again
  };

  /// The coalescing run shared by a group: combined pairwise ids plus one
  /// slot per staged request, in staging order.
  struct Run {
    struct Slot {
      size_t group_idx;
      RequestHandler::StagePlan plan;
    };
    std::vector<Vertex> sources;
    std::vector<Vertex> targets;
    std::vector<Slot> slots;
    std::vector<Dist> dists;
    /// Group indices with slots in the run — a later non-staged response on
    /// one of these connections must flush first to stay in order.
    bool HasConn(size_t gi) const {
      for (const Slot& s : slots) {
        if (s.group_idx == gi) return true;
      }
      return false;
    }
    void Clear() {
      sources.clear();
      targets.clear();
      slots.clear();
    }
  };

  /// Executes the run's combined pairwise batch and demultiplexes the
  /// distance slices into each staged request's response, in order.
  void FlushRun(Run* run, std::vector<GroupConn>* group) {
    if (run->slots.empty()) return;
    const ServingSnapshot snap = env.snapshot();
    const auto start = Clock::now();
    QueryRequest request;
    request.kind = QueryKind::kPointBatch;
    request.sources = run->sources;
    request.targets = run->targets;
    run->dists.resize(run->targets.size());
    QueryOutput output;
    output.distances = run->dists;
    const Result<QueryResponse> response =
        snap.threaded->Execute(request, output);
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    if (env.metrics != nullptr) {
      env.metrics->RecordCoalescedBatch(run->slots.size());
    }
    for (const Run::Slot& slot : run->slots) {
      GroupConn& g = (*group)[slot.group_idx];
      if (response.ok()) {
        g.c->handler.AppendStagedResponse(slot.plan, run->dists, &g.pending);
      } else {
        // Cannot happen for staged requests (ids validated, no deadline),
        // but an engine error must still answer every request.
        AppendWireError(response.status(), &g.pending);
      }
      g.c->handler.ReleaseStaged();
      if (env.metrics != nullptr) {
        env.metrics->RecordLatency(slot.plan.is_batch ? "batch" : "point",
                                   ns);
      }
    }
    run->Clear();
  }

  /// Streaming flush hook for `c`: moves the stream bytes into the
  /// connection's output buffer, wakes the event thread, and blocks while
  /// the buffer is over the high-water mark. Returns false (abort the
  /// stream) when the connection died or the reactor is stopping.
  bool FlushStream(Conn* c, std::string* out) {
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->dead) return false;
      c->outbuf.append(*out);
    }
    out->clear();
    SignalWake(c);
    std::unique_lock<std::mutex> lock(c->mu);
    c->cv.wait(lock, [&] {
      return c->dead || stop.load(std::memory_order_relaxed) ||
             c->outbuf.size() <= kStreamHighWater;
    });
    return !c->dead && !stop.load(std::memory_order_relaxed);
  }

  /// Consumes every complete request line currently buffered on `g->c`,
  /// appending responses (in request order) to g->pending and staging
  /// coalescible requests into `run`.
  void ProcessConn(GroupConn* g, Run* run, size_t group_idx,
                   const RequestHandler::CoalescePolicy* policy) {
    Conn* c = g->c;
    std::string work;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->dead) return;
      work.swap(c->inbuf);
    }
    size_t consumed = 0;
    const std::string_view view(work);
    if (c->discarding) {
      // Finish dropping the oversized line (state is worker-owned while
      // scheduled; the event thread also drops bytes arriving mid-discard).
      const size_t nl = view.find('\n');
      if (nl == std::string_view::npos) {
        return;  // still inside the oversized line
      }
      consumed = nl + 1;
      std::lock_guard<std::mutex> lock(c->mu);
      c->discarding = false;
    }
    std::string scratch;
    const ServerLimits& limits = env.options.limits;
    for (;;) {
      const size_t nl = view.find('\n', consumed);
      if (nl == std::string_view::npos) break;
      const std::string_view line = view.substr(consumed, nl - consumed);
      consumed = nl + 1;
      // The CURRENT serving snapshot per line: a hot reload lands between
      // requests of one connection.
      const ServingSnapshot snap = env.snapshot();
      scratch.clear();
      RequestHandler::StagePlan plan;
      const RequestHandler::LineAction action =
          c->handler.Prepare(line, *snap.router, *snap.threaded, policy,
                             &run->sources, &run->targets, &plan, &scratch);
      if (action == RequestHandler::LineAction::kStaged) {
        run->slots.push_back({group_idx, plan});
        ++c->served;
      } else if (action == RequestHandler::LineAction::kExecute) {
        // Flush staged work from this connection first: responses must
        // leave in request order.
        if (run->HasConn(group_idx)) FlushRun(run, ParentGroup());
        c->handler.ExecuteParsed(*snap.router, *snap.threaded, &g->pending);
        ++c->served;
      } else if (action == RequestHandler::LineAction::kBlocking) {
        ReleaseGroup(run, group_idx);
        c->handler.ExecuteParsed(*snap.router, *snap.threaded, &g->pending);
        ++c->served;
      } else if (!scratch.empty()) {
        if (run->HasConn(group_idx)) FlushRun(run, ParentGroup());
        g->pending.append(scratch);
        ++c->served;
      } else {
        continue;  // blank keepalive line: no response, no budget charge
      }
      if (limits.max_requests_per_connection != 0 &&
          c->served >= limits.max_requests_per_connection) {
        g->evict = true;
        break;
      }
    }
    g->leftover.assign(view.substr(consumed));
  }

  /// Runs before group member `self` blocks this worker in a reload or
  /// update_weights (an index open or a whole label repair): answers every
  /// staged request, finishes the other members so their responses go out
  /// and they can be rescheduled to another worker, and hands `self`'s
  /// responses so far to its socket. Nothing in the group then waits
  /// behind the blocking op.
  void ReleaseGroup(Run* run, size_t self) {
    std::vector<GroupConn>& group = *ParentGroup();
    FlushRun(run, &group);
    for (size_t gi = 0; gi < group.size(); ++gi) {
      GroupConn& g = group[gi];
      if (gi != self) {
        if (!g.finished) FinishConn(&g);
        continue;
      }
      if (g.pending.empty()) continue;
      {
        std::lock_guard<std::mutex> lock(g.c->mu);
        if (!g.c->dead) g.c->outbuf.append(g.pending);
      }
      g.pending.clear();
      SignalWake(g.c);
    }
  }

  // ProcessConn needs the enclosing group to flush a run mid-connection;
  // the group lives on the worker's stack, so thread it through a
  // thread-local (one group per worker at a time).
  static thread_local std::vector<GroupConn>* tls_group;
  std::vector<GroupConn>* ParentGroup() { return tls_group; }

  /// Finishes one group connection: hands responses/leftover back under the
  /// connection mutex, applies the line cap, reschedules if more input
  /// arrived meanwhile, and wakes the event thread.
  void FinishConn(GroupConn* g) {
    g->finished = true;
    Conn* c = g->c;
    bool repush = false;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (!c->dead) {
        c->outbuf.append(g->pending);
        // Unconsumed partial line goes back IN FRONT of whatever the event
        // thread appended while we were processing.
        if (!g->leftover.empty()) {
          c->inbuf.insert(0, g->leftover);
        }
        if (g->evict) {
          c->evict = true;
          c->read_closed = true;
          c->inbuf.clear();
        }
        // The per-line byte cap: a partial line longer than the cap gets
        // one error response, then its bytes are dropped to the newline.
        if (!c->evict && !c->discarding &&
            c->inbuf.find('\n') == std::string::npos &&
            c->inbuf.size() > env.options.max_line_bytes) {
          c->outbuf.append(
              "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
              "\"request line exceeds the per-line byte cap\"}\n");
          c->inbuf.clear();
          c->discarding = true;
        }
      }
      if (c->more_input && !c->dead && !c->evict) {
        c->more_input = false;
        repush = true;  // keep c->scheduled: straight back onto the queue
      } else {
        c->more_input = false;
        c->scheduled = false;
      }
    }
    if (repush) {
      {
        std::lock_guard<std::mutex> lock(ready_mu);
        ready.push_back(c);
      }
      ready_cv.notify_one();
    }
    SignalWake(c);
  }

  void WorkerLoop() {
    RequestHandler::CoalescePolicy policy;
    const bool coalesce = env.options.coalesce;
    std::vector<GroupConn> group;
    Run run;
    for (;;) {
      Conn* first = nullptr;
      {
        std::unique_lock<std::mutex> lock(ready_mu);
        ready_cv.wait(lock, [&] {
          return !ready.empty() || stop.load(std::memory_order_relaxed);
        });
        if (ready.empty()) return;  // stop requested and queue drained
        first = ready.front();
        ready.pop_front();
      }
      group.clear();
      run.Clear();
      tls_group = &group;
      group.emplace_back().c = first;
      ProcessConn(&group[0], &run, 0, coalesce ? &policy : nullptr);
      // Pull a few more ready connections into the batch while staged
      // requests wait: this is the cross-connection coalescing window.
      while (!run.slots.empty() && group.size() < 1 + kCoalesceFanIn) {
        Conn* extra = nullptr;
        {
          std::lock_guard<std::mutex> lock(ready_mu);
          if (ready.empty()) break;
          extra = ready.front();
          ready.pop_front();
        }
        group.emplace_back().c = extra;
        ProcessConn(&group.back(), &run, group.size() - 1, &policy);
      }
      FlushRun(&run, &group);
      for (GroupConn& g : group) {
        if (!g.finished) FinishConn(&g);
      }
      tls_group = nullptr;
    }
  }

  // ----- event-thread side -----

  void UpdateEvents(Conn* c) {
    epoll_event ev{};
    ev.data.ptr = c;
    ev.events = 0;
    bool read_open;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      read_open = !c->read_closed;
    }
    if (read_open && !c->in_paused) ev.events |= EPOLLIN;
    if (c->want_out) ev.events |= EPOLLOUT;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  /// Closes and frees a connection. Deferred (dead=true) while a worker
  /// owns it; the worker's finish wakeup completes the close.
  void CloseConn(Conn* c) {
    bool deferred;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->dead = true;
      deferred = c->scheduled;
    }
    c->cv.notify_all();  // abort a blocked streaming worker
    if (deferred) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::shutdown(c->fd, SHUT_RDWR);
    CloseFd(c->fd);
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      if (c->in_wake) {
        wake_list.erase(std::find(wake_list.begin(), wake_list.end(), c));
        c->in_wake = false;
      }
    }
    conns.erase(std::find(conns.begin(), conns.end(), c));
    delete c;
    env.live_connections->fetch_sub(1, std::memory_order_relaxed);
    drain_cv.notify_all();
  }

  /// Nonblocking write pump: moves outbuf into the socket until it would
  /// block. Worker->event-thread wakeups and EPOLLOUT both land here.
  void PumpOut(Conn* c) {
    for (;;) {
      if (c->write_pending.empty()) {
        bool over_water = false;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          over_water = c->outbuf.size() > kStreamHighWater;
          c->write_pending.swap(c->outbuf);
        }
        if (over_water) c->cv.notify_all();  // backpressure release
        if (c->write_pending.empty()) {
          if (c->want_out) {
            c->want_out = false;
            UpdateEvents(c);
          }
          c->write_blocked = false;
          return;
        }
      }
      size_t sent = 0;
      while (sent < c->write_pending.size()) {
        const ssize_t n = SendSome(c->fd, c->write_pending.data() + sent,
                                   c->write_pending.size() - sent);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            c->write_pending.erase(0, sent);
            if (!c->write_blocked) {
              c->write_blocked = true;
              c->write_blocked_since = Clock::now();
            }
            if (!c->want_out) {
              c->want_out = true;
              UpdateEvents(c);
            }
            return;
          }
          CloseConn(c);  // dead peer (EPIPE/ECONNRESET or injected fault)
          return;
        }
        if (n == 0) {
          CloseConn(c);
          return;
        }
        sent += static_cast<size_t>(n);
      }
      c->write_pending.clear();
      c->write_blocked = false;
    }
  }

  /// Closes a connection that has nothing left to do: output flushed and
  /// either evicted or past EOF/drain with no completable input.
  void MaybeClose(Conn* c) {
    if (!c->write_pending.empty()) return;
    bool close_now = false;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->dead) {
        close_now = !c->scheduled;
      } else if (!c->scheduled && c->outbuf.empty()) {
        if (c->evict) {
          close_now = true;
        } else if (c->read_closed) {
          // Half-close, or the drain sweep retired this socket's reads
          // (never the draining flag alone: until BeginDrain has swept the
          // socket, request bytes may still sit unread in the kernel
          // buffer). All complete requests are answered; a trailing partial
          // line can never complete.
          close_now = c->inbuf.find('\n') == std::string::npos;
        }
      }
    }
    if (close_now) CloseConn(c);
  }

  /// Appends freshly read bytes to the connection's input buffer, keeps the
  /// slowloris line clock, and schedules a worker when a complete line (or
  /// an over-cap partial) is buffered.
  void HandleInput(Conn* c, const char* data, size_t n) {
    c->last_byte = Clock::now();
    const std::string_view chunk(data, n);
    const size_t last_nl = chunk.rfind('\n');
    // Slowloris clock over the raw byte stream: (re)starts whenever a new
    // partial line begins.
    if (last_nl == std::string_view::npos) {
      if (!c->line_open) {
        c->line_open = true;
        c->line_start = c->last_byte;
      }
    } else {
      c->line_open = last_nl + 1 < chunk.size();
      c->line_start = c->last_byte;
    }
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      if (c->evict || c->dead) return;
      std::string_view rest = chunk;
      if (c->discarding) {
        // Keep dropping the oversized line while its bytes stream in.
        const size_t nl = rest.find('\n');
        if (nl == std::string_view::npos) return;
        rest = rest.substr(nl + 1);
        c->discarding = false;
        if (rest.empty()) return;
      }
      c->inbuf.append(rest);
      const bool actionable =
          rest.find('\n') != std::string_view::npos ||
          c->inbuf.size() > env.options.max_line_bytes;
      if (actionable) {
        if (c->scheduled) {
          c->more_input = true;
        } else {
          c->scheduled = true;
          schedule = true;
        }
      }
      if (c->inbuf.size() > input_high_water && !c->in_paused) {
        c->in_paused = true;  // read backpressure: stop EPOLLIN until drained
      }
    }
    if (c->in_paused) UpdateEvents(c);
    if (schedule) {
      {
        std::lock_guard<std::mutex> lock(ready_mu);
        ready.push_back(c);
      }
      ready_cv.notify_one();
    }
  }

  void HandleReadable(Conn* c) {
    char buf[kReadChunk];
    const ssize_t n = RecvSome(c->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(c);
      return;
    }
    if (n == 0) {
      // Half-close: answer what is already buffered, then close. Requests
      // pipelined before the client's shutdown(SHUT_WR) still get answers.
      bool schedule = false;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        c->read_closed = true;
        if (!c->inbuf.empty() && !c->scheduled) {
          c->scheduled = true;
          schedule = true;
        }
      }
      UpdateEvents(c);
      if (schedule) {
        {
          std::lock_guard<std::mutex> lock(ready_mu);
          ready.push_back(c);
        }
        ready_cv.notify_one();
      }
      MaybeClose(c);
      return;
    }
    HandleInput(c, buf, static_cast<size_t>(n));
  }

  void HandleAccept() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, or the listener was shut down
      }
      env.accepted->fetch_add(1, std::memory_order_relaxed);
      if (stop.load(std::memory_order_relaxed) ||
          draining.load(std::memory_order_relaxed)) {
        CloseFd(fd);
        continue;
      }
      if (env.options.limits.max_connections != 0 &&
          conns.size() >= env.options.limits.max_connections) {
        // Connection-level load shedding: one best-effort Overloaded line
        // (the socket's send buffer is empty, so this will not block), then
        // close — never a backlog of accepted-but-unserved sockets.
        env.connections_shed->fetch_add(1, std::memory_order_relaxed);
        std::string line;
        AppendOverloadedResponse(env.options.limits.retry_after_ms,
                                 "server is at its connection limit", &line);
        ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        CloseFd(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ServerHooks hooks = env.hooks ? env.hooks() : ServerHooks{};
      auto* conn = new Conn(ServerHooks{});  // hooks wired below (needs conn)
      hooks.flush = [this, conn](std::string* out) {
        return FlushStream(conn, out);
      };
      conn->handler = RequestHandler(std::move(hooks));
      conn->fd = fd;
      conn->last_byte = Clock::now();
      conns.push_back(conn);
      env.live_connections->fetch_add(1, std::memory_order_relaxed);
      epoll_event ev{};
      ev.data.ptr = conn;
      ev.events = EPOLLIN;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        CloseConn(conn);
      }
    }
  }

  /// Drains the wakeup queue: connections whose worker produced output,
  /// finished processing, or released stream chunks.
  void DrainWakes() {
    uint64_t counter = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(wake_fd, &counter, sizeof(counter));
    std::vector<Conn*> local;
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      local.swap(wake_list);
      for (Conn* c : local) c->in_wake = false;
    }
    for (Conn* c : local) {
      // Resume reads if the worker drained the input below the high water.
      if (c->in_paused) {
        bool resume;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          resume = c->inbuf.size() <= input_high_water / 2;
        }
        if (resume) {
          c->in_paused = false;
          UpdateEvents(c);
        }
      }
      PumpOut(c);
      // PumpOut may have closed (and freed) c; it removes closed conns
      // from `conns`, so probe membership before touching c again.
      if (std::find(conns.begin(), conns.end(), c) == conns.end()) continue;
      MaybeClose(c);
    }
  }

  /// Deadline sweep: evicts idle and slowloris connections (one polite
  /// DeadlineExceeded line, flush, close) and hard-closes write-stalled
  /// ones. Returns the epoll timeout until the nearest future deadline.
  int SweepDeadlines() {
    const ServerLimits& limits = env.options.limits;
    const Clock::time_point now = Clock::now();
    Clock::time_point nearest = Clock::time_point::max();
    std::vector<Conn*> evict_polite;
    std::vector<Conn*> evict_hard;
    for (Conn* c : conns) {
      if (c->write_blocked && limits.write_timeout_ms != 0) {
        const auto deadline =
            c->write_blocked_since +
            std::chrono::milliseconds(limits.write_timeout_ms);
        if (deadline <= now) {
          evict_hard.push_back(c);
          continue;
        }
        nearest = std::min(nearest, deadline);
      }
      bool busy;
      bool evicting;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        busy = c->scheduled;
        evicting = c->evict || c->dead || c->read_closed;
      }
      // A connection being processed (or paused for backpressure) is not
      // idle; recheck it on a later sweep.
      if (busy || evicting || c->in_paused) continue;
      const char* reason = nullptr;
      Clock::time_point deadline = Clock::time_point::max();
      if (limits.idle_timeout_ms != 0) {
        deadline =
            c->last_byte + std::chrono::milliseconds(limits.idle_timeout_ms);
        reason = "connection evicted: idle timeout";
      }
      if (c->line_open && limits.read_timeout_ms != 0) {
        const auto read_deadline =
            c->line_start + std::chrono::milliseconds(limits.read_timeout_ms);
        if (read_deadline < deadline) {
          deadline = read_deadline;
          reason = "connection evicted: request line not completed in time";
        }
      }
      if (deadline == Clock::time_point::max()) continue;
      if (deadline <= now) {
        {
          std::lock_guard<std::mutex> lock(c->mu);
          AppendDeadlineResponse(reason, &c->outbuf);
          c->evict = true;
          c->read_closed = true;
        }
        evict_polite.push_back(c);
      } else {
        nearest = std::min(nearest, deadline);
      }
    }
    for (Conn* c : evict_hard) CloseConn(c);
    for (Conn* c : evict_polite) {
      UpdateEvents(c);
      PumpOut(c);
      if (std::find(conns.begin(), conns.end(), c) != conns.end()) {
        MaybeClose(c);
      }
    }
    if (nearest == Clock::time_point::max()) return 1000;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(nearest - now)
            .count();
    return static_cast<int>(std::clamp<long long>(left, 0, 1000));
  }

  /// Graceful-drain entry (event thread): retire the listener, sweep every
  /// connection's socket for requests already sent, then let each close as
  /// its answers flush.
  void BeginDrain() {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    ::shutdown(listen_fd, SHUT_RDWR);
    char buf[kReadChunk];
    for (Conn* c : std::vector<Conn*>(conns)) {
      for (;;) {
        const ssize_t n = RecvSome(c->fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        HandleInput(c, buf, static_cast<size_t>(n));
      }
      {
        std::lock_guard<std::mutex> lock(c->mu);
        c->read_closed = true;
      }
      UpdateEvents(c);
      MaybeClose(c);
    }
  }

  void EventLoop() {
    bool drain_started = false;
    epoll_event events[64];
    int timeout_ms = 1000;
    for (;;) {
      const int rc = ::epoll_wait(epoll_fd, events,
                                  static_cast<int>(std::size(events)),
                                  timeout_ms);
      const Clock::time_point wake = Clock::now();
      if (rc < 0 && errno != EINTR) break;
      if (stop.load(std::memory_order_relaxed)) {
        for (Conn* c : std::vector<Conn*>(conns)) CloseConn(c);
        if (conns.empty()) break;
        // Workers still own some connections; their finish wakeups complete
        // the closes. Keep looping (DrainWakes below) until all are gone.
      }
      if (draining.load(std::memory_order_relaxed) && !drain_started) {
        drain_started = true;
        BeginDrain();
      }
      for (int i = 0; i < std::max(rc, 0); ++i) {
        void* ptr = events[i].data.ptr;
        if (ptr == nullptr) {
          // The listener (events carry nullptr for it; conns carry Conn*).
          HandleAccept();
          continue;
        }
        if (ptr == &wake_fd) {
          DrainWakes();
          continue;
        }
        auto* c = static_cast<Conn*>(ptr);
        // A connection freed by an earlier event in this batch cannot be
        // in `conns` anymore; skip its stale events.
        if (std::find(conns.begin(), conns.end(), c) == conns.end()) continue;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          CloseConn(c);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) {
          PumpOut(c);
          if (std::find(conns.begin(), conns.end(), c) == conns.end()) {
            continue;
          }
          MaybeClose(c);
          if (std::find(conns.begin(), conns.end(), c) == conns.end()) {
            continue;
          }
        }
        if ((events[i].events & EPOLLIN) != 0) HandleReadable(c);
      }
      timeout_ms = SweepDeadlines();
      if (env.metrics != nullptr) {
        env.metrics->RecordLoopLag(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 wake)
                .count()));
      }
    }
  }

  Status Start() {
    input_high_water = env.options.max_line_bytes + 4 * kReadChunk;
    const int flags = ::fcntl(listen_fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Status::Unavailable(std::string("fcntl(listen): ") +
                                 std::strerror(errno));
    }
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      return Status::Unavailable(std::string("epoll_create1(): ") +
                                 std::strerror(errno));
    }
    wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd < 0) {
      return Status::Unavailable(std::string("eventfd(): ") +
                                 std::strerror(errno));
    }
    epoll_event lev{};
    lev.data.ptr = nullptr;  // the listener's marker
    lev.events = EPOLLIN;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &lev) != 0) {
      return Status::Unavailable(std::string("epoll_ctl(listen): ") +
                                 std::strerror(errno));
    }
    epoll_event wev{};
    wev.data.ptr = &wake_fd;  // the eventfd's marker
    wev.events = EPOLLIN;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &wev) != 0) {
      return Status::Unavailable(std::string("epoll_ctl(eventfd): ") +
                                 std::strerror(errno));
    }
    uint32_t n = env.options.reactor_threads;
    if (n == 0) {
      const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
      n = std::clamp(hw / 2, 2u, 8u);
    }
    for (uint32_t i = 0; i < n; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    event_thread = std::thread([this] { EventLoop(); });
    return Status::Ok();
  }

  void StopLocked() {
    stop.store(true, std::memory_order_relaxed);
    SignalWake(nullptr);
    // Unblock any worker parked on streaming backpressure: the event thread
    // marks its connection dead, but a belt-and-braces broadcast here keeps
    // shutdown independent of sweep timing.
    if (event_thread.joinable()) event_thread.join();
    {
      std::lock_guard<std::mutex> lock(ready_mu);
    }
    ready_cv.notify_all();
    for (std::thread& w : workers) {
      if (w.joinable()) w.join();
    }
    workers.clear();
    CloseFd(epoll_fd);
    epoll_fd = -1;
    CloseFd(wake_fd);
    wake_fd = -1;
  }
};

thread_local std::vector<Reactor::Impl::GroupConn>* Reactor::Impl::tls_group =
    nullptr;

Reactor::Reactor(int listen_fd, ReactorEnv env)
    : impl_(std::make_unique<Impl>()) {
  impl_->listen_fd = listen_fd;
  impl_->env = std::move(env);
}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start() { return impl_->Start(); }

bool Reactor::Drain(std::chrono::milliseconds budget) {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
    if (impl_->stopped) return true;
  }
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->SignalWake(nullptr);
  bool drained;
  {
    std::unique_lock<std::mutex> lock(impl_->drain_mu);
    drained = impl_->drain_cv.wait_for(lock, budget, [this] {
      return impl_->env.live_connections->load(std::memory_order_relaxed) ==
             0;
    });
  }
  Stop();
  return drained;
}

void Reactor::Stop() {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
  if (impl_->stopped) return;
  impl_->stopped = true;
  impl_->StopLocked();
}

}  // namespace hc2l
