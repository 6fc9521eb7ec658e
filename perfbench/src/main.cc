// perfbench: hc2ld end to end, and layer by layer.
//
// For one workload and seed it generates a road network and a request
// stream, builds the index and serves it from an in-process QueryServer
// (set-up, repeated), then drives the server over loopback TCP from one
// client thread: a closed loop (throughput), an open loop at a fixed rate
// (latency from each request's due time) and weight updates. Every answer
// is checked. With --trace 1 it repeats the loops with client spans on,
// then replays the workload's inputs through each layer's public functions
// under spans and prints the per-layer metrics.
//
// Usually run through run.py, which builds this program and passes the
// workload's configuration from workloads.json:
//   python3 perfbench/run.py --workload city-point --seed 1 --seconds 10
//       --trace 0
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/hc2l.h"
#include "graph/road_network_generator.h"
#include "harness.h"
#include "hc2l/router.h"
#include "hc2l/server.h"
#include "hierarchy/contraction.h"
#include "loadgen.h"
#include "partition/balanced_cut.h"
#include "server/wire.h"

namespace perfbench {
namespace {

using hc2l::Router;

struct Args {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  WorkloadConfig cfg;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (!key.starts_with("--") || i + 1 >= argc) Die("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  Args a;
  WorkloadConfig& c = a.cfg;
  auto num = [&](const char* k, auto* out) {
    auto it = kv.find(k);
    if (it == kv.end()) return;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') Die(std::string("bad --") + k);
    *out = static_cast<std::remove_pointer_t<decltype(out)>>(v);
    kv.erase(it);
  };
  if (!kv.count("workload")) Die("--workload is required");
  c.name = kv["workload"];
  kv.erase("workload");
  if (kv.count("work-dir")) {
    a.work_dir = kv["work-dir"];
    kv.erase("work-dir");
  }
  double trace = 0, live = 0;
  num("seed", &a.seed);
  num("seconds", &a.seconds);
  num("trace", &trace);
  num("vertices", &c.vertices);
  num("point", &c.point);
  num("batch", &c.batch);
  num("matrix", &c.matrix);
  num("route", &c.route);
  num("pool", &c.pool);
  num("closed-conns", &c.closed_conns);
  num("closed-depth", &c.closed_depth);
  num("open-rate", &c.open_rate);
  num("open-conns", &c.open_conns);
  num("live", &live);
  num("update-interval-ms", &c.update_interval_ms);
  num("quiet-updates", &c.quiet_updates);
  num("setups", &c.setups);
  num("rounds", &c.rounds);
  if (!kv.empty()) Die("unknown argument --" + kv.begin()->first);
  a.trace = trace != 0;
  c.live = live != 0;
  const uint32_t conns = std::max(c.closed_conns, c.open_conns) + c.live;
  if (a.seconds <= 0 || c.setups < 1 || c.rounds < 1 || c.rounds > 255 ||
      c.vertices < 16 || conns < 2 ||
      conns > std::max(2u, std::thread::hardware_concurrency())) {
    Die("configuration out of range (connections must fit in nproc)");
  }
  return a;
}

// --------------------------------------------------------------- output ---

std::string Num(double v) {
  if (!std::isfinite(v)) v = 1e18;  // failed requests count as infinitely late
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* prefix, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s%-34s %14s %s\n", prefix, m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& ms) {
  std::string j = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) j += ", ";
    j += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return j + "}}";
}

// ---------------------------------------------------- machine controls ---

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Runs fn on `threads` threads at once; returns the wall seconds.
template <typename F>
double Concurrently(int threads, F fn) {
  const int64_t t0 = NowNs();
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i) ts.emplace_back(fn, i);
  for (std::thread& t : ts) t.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Pure-ALU spin and a memory stream, each on 1 and 2 threads: they tell
/// "the code does not scale" from "the box cannot". Reported, not gated.
std::vector<Metric> Calibrate() {
  constexpr uint64_t kSpin = 40'000'000;
  static std::atomic<uint64_t> sink{0};
  auto spin = [&](int id) {
    uint64_t x = 0x9e3779b97f4a7c15ULL + id;
    for (uint64_t i = 0; i < kSpin; ++i) x = (x ^ (x >> 7)) * 0xbf58476d1ce4e5b9ULL;
    sink += x;
  };
  constexpr size_t kWords = (32u << 20) / sizeof(uint64_t);  // 32 MB each
  std::vector<std::vector<uint64_t>> arrays(2, std::vector<uint64_t>(kWords, 1));
  auto stream = [&](int id) {
    uint64_t sum = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t v : arrays[id]) sum += v;
    }
    sink += sum;
  };
  const double alu1 = Concurrently(1, spin), alu2 = Concurrently(2, spin);
  const double mem1 = Concurrently(1, stream), mem2 = Concurrently(2, stream);
  const double bytes = 3.0 * kWords * sizeof(uint64_t);
  return {{"machine.alu_ns_per_iter_1t", alu1 * 1e9 / kSpin, "ns"},
          {"machine.alu_speedup_2t", 2 * alu1 / alu2, "x"},
          {"machine.stream_gbs_1t", bytes / mem1 / 1e9, "GB/s"},
          {"machine.stream_gbs_2t", 2 * bytes / mem2 / 1e9, "GB/s"}};
}

/// Share of CPU time the hypervisor gave to others since `from` (the
/// "steal" column of /proc/stat); returns the current counters in *now.
/// 0 where the kernel does not report it.
double StealSince(const std::vector<uint64_t>& from, std::vector<uint64_t>* now) {
  now->clear();
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (uint64_t v; now->size() < 8 && in >> v;) now->push_back(v);
  if (from.size() != 8 || now->size() != 8) return 0;
  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) total += (*now)[i] - from[i];
  return total ? static_cast<double>((*now)[7] - from[7]) / total : 0;
}

/// Wall time of a fixed ALU spin on `cpu` (moves the calling thread there).
int64_t SpinOn(int cpu) {
  static std::atomic<uint64_t> sink{0};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  const int64_t t0 = NowNs();
  uint64_t x = static_cast<uint64_t>(cpu) + 1;
  for (int i = 0; i < 2'000'000; ++i) x = (x ^ (x >> 7)) * 0xbf58476d1ce4e5b9ULL;
  sink += x;
  return NowNs() - t0;
}

/// Restricts this thread, and every thread it creates afterwards (the
/// server's), to the `cpus` fastest CPUs it may run on; returns the previous
/// set. On a VM whose vCPUs the host places and deschedules independently,
/// every wake-up that crosses vCPUs can wait for the host, which made
/// latencies 2-10x higher and unsteady; on one CPU the hand-offs between
/// client, event thread and workers are local context switches. A vCPU the
/// host currently shares with another busy one runs slower, so a short spin
/// on each CPU ranks them first.
cpu_set_t PinToCpus(uint32_t cpus) {
  cpu_set_t old;
  sched_getaffinity(0, sizeof(old), &old);
  if (cpus == 0) return old;
  std::vector<std::pair<int64_t, int>> ranked;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &old)) {
      ranked.emplace_back(std::min(SpinOn(cpu), SpinOn(cpu)), cpu);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (size_t i = 0; i < ranked.size() && i < cpus; ++i) {
    CPU_SET(ranked[i].second, &pinned);
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
  return old;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

// ---------------------------------------------------------- end to end ---

struct Served {
  std::unique_ptr<Router> router;
  double setup_s = 0;
  uint32_t build_span = 0;  // the median set-up's Router::Build span
  double index_mb = 0;
  double peak_rss_mb = 0;
};

hc2l::ServerOptions FixedServerOptions() {
  hc2l::ServerOptions so;
  so.num_threads = kEngineThreads;
  so.reactor_threads = kReactorThreads;
  return so;
}

/// Builds the index and starts a server on it `setups` times; keeps the
/// last router. setup_s is the median of Build + Start.
Served SetUp(const hc2l::Graph& g, const WorkloadConfig& c, Tracer& tr) {
  Served s;
  hc2l::BuildOptions bo;
  bo.num_threads = kBuildThreads;
  std::vector<std::pair<double, uint32_t>> runs;
  for (uint32_t k = 0; k < c.setups; ++k) {
    s.router.reset();
    const int64_t t0 = NowNs();
    hc2l::Result<Router> r = Router::Build(g, bo);
    const int64_t t1 = NowNs();
    if (!r.ok()) Die("build failed: " + r.status().ToString());
    s.router = std::make_unique<Router>(std::move(r).value());
    hc2l::Result<hc2l::QueryServer> srv =
        hc2l::QueryServer::Start(*s.router, FixedServerOptions());
    const int64_t t2 = NowNs();
    if (!srv.ok()) Die("server start failed: " + srv.status().ToString());
    srv->Stop();
    const uint32_t setup = tr.Add("setup", Tracer::kRoot, t0, t2);
    const uint32_t build = tr.Add("core.build", setup, t0, t1);
    tr.Add("server.start", setup, t1, t2);
    runs.emplace_back(static_cast<double>(t2 - t0) / 1e9, build);
  }
  std::vector<std::pair<double, uint32_t>> sorted = runs;
  std::sort(sorted.begin(), sorted.end());
  s.setup_s = sorted[(sorted.size() - 1) / 2].first;
  s.build_span = sorted[(sorted.size() - 1) / 2].second;
  s.peak_rss_mb = PeakRssMb();
  const hc2l::IndexInfo info = s.router->Info();
  s.index_mb = static_cast<double>(info.heap_bytes + info.mapped_bytes) / 1e6;
  return s;
}

struct E2E {
  PhaseStats all;
  hc2l::QueryServer::Stats closed_stats;  // counters of the closed rounds
  uint64_t shed = 0;                      // requests + connections shed
  std::string open_info;  // "info" of a fresh server after one open phase
  double qps = 0, p50 = 0, p90 = 0, update_ms = 0;
  size_t host_delayed = 0;  // latency samples left out as the host's
  LatencySummary latency;
  std::vector<double> round_qps, round_p50, round_p90, round_steal;
  std::vector<double> round_updating;  // share of the round an update was in flight
};

/// Adds the closed-round share of the monotonic serving counters.
void AddCounters(const hc2l::QueryServer::Stats& before,
                 const hc2l::QueryServer::Stats& after,
                 hc2l::QueryServer::Stats* sum) {
  sum->requests_admitted += after.requests_admitted - before.requests_admitted;
  sum->requests_coalesced += after.requests_coalesced - before.requests_coalesced;
  sum->coalesced_batches += after.coalesced_batches - before.coalesced_batches;
}

/// One end-to-end pass on one server: `rounds` closed rounds alternating
/// with `rounds` open rounds, then (without live updates) serial updates.
/// With a tracer, the client records a span per burst and per request, and
/// a short open loop on a fresh server captures the reactor's histograms.
E2E RunEndToEnd(const Workload& w, AnswerBook& book, const Router& router,
                const Args& a, Tracer* tracer) {
  const WorkloadConfig& c = w.config();
  E2E e;
  const int rounds = static_cast<int>(c.rounds);
  const double closed_s = a.seconds * kClosedShare / rounds;
  const double open_s = a.seconds * (1 - kClosedShare) / rounds;
  hc2l::Result<hc2l::QueryServer> srv =
      hc2l::QueryServer::Start(router, FixedServerOptions());
  if (!srv.ok()) Die("server start failed: " + srv.status().ToString());
  const uint32_t pass = tracer ? tracer->Begin("e2e.pass") : 0;
  // Live: update batch 0 fills the server's repair cache, unmeasured.
  if (c.live) e.all.Merge(RunSerialUpdates(w, srv->port(), 0, 1));
  {
    Session session(w, book, srv->port(), a.seed * 1000, tracer, pass);
    std::vector<uint64_t> cpu, next;
    StealSince({}, &cpu);
    for (int r = 0; r < rounds; ++r) {
      const hc2l::QueryServer::Stats before = srv->stats();
      const int64_t t0 = NowNs(), updating0 = session.UpdateInFlightNs();
      e.round_qps.push_back(session.ClosedRound(closed_s));
      AddCounters(before, srv->stats(), &e.closed_stats);
      session.OpenRound(open_s, static_cast<uint8_t>(r));
      e.round_steal.push_back(StealSince(cpu, &next));
      cpu.swap(next);
      if (c.live) {
        e.round_updating.push_back(
            static_cast<double>(session.UpdateInFlightNs() - updating0) /
            static_cast<double>(NowNs() - t0));
      }
    }
    session.Finish();
    e.all.Merge(session.stats());
  }
  if (!c.live) {
    e.all.Merge(RunSerialUpdates(w, srv->port(), 0, 1 + c.quiet_updates));
  }
  const hc2l::QueryServer::Stats end = srv->stats();
  e.shed = end.requests_shed + end.connections_shed;
  srv->Stop();
  if (tracer) tracer->End(pass, e.all.sent);

  if (tracer != nullptr) {
    hc2l::Result<hc2l::QueryServer> fresh =
        hc2l::QueryServer::Start(router, FixedServerOptions());
    if (!fresh.ok()) Die("server start failed");
    const uint32_t span = tracer->Begin("reactor.histograms");
    {
      if (c.live) e.all.Merge(RunSerialUpdates(w, fresh->port(), 0, 1));
      Session session(w, book, fresh->port(), a.seed * 1000 + 7, nullptr, 0);
      session.OpenRound(std::min(1.0, open_s * rounds), 0);
      session.Finish();
      PhaseStats st = session.stats();
      st.latency_us.clear();
      st.latency_window.clear();
      st.gen_late_ms.clear();
      st.round_late_ms.clear();
      st.latency_due_ns.clear();
      st.freezes.clear();
      st.open_steal_ns = 0;
      e.all.Merge(st);
    }
    e.open_info = Exchange(fresh->port(), "{\"op\":\"info\"}\n");
    tracer->End(span);
    const hc2l::QueryServer::Stats fs = fresh->stats();
    e.shed += fs.requests_shed + fs.connections_shed;
    fresh->Stop();
  }

  e.latency = Summarize(e.all.latency_us);
  e.update_ms = Median(e.all.update_ms);
  // On a shared host the hypervisor takes the benchmark's CPU away for
  // milliseconds at a time, and every request in flight waits: with a few
  // percent steal, p90 reads the host, not the program. Without writes every
  // read is short, so leave out the requests HostDelayed charges to the
  // steal the host reported. Live reads can wait for a repair for most of a
  // second, and long reads would be left out more often than short ones:
  // live workloads keep every sample.
  std::vector<double> latency;
  std::vector<uint8_t> window;
  const std::vector<bool> host =
      c.live ? std::vector<bool>(e.all.latency_us.size(), false)
             : HostDelayed(e.all.freezes, e.all.open_steal_ns,
                           e.all.latency_due_ns, e.all.latency_us);
  for (size_t i = 0; i < host.size(); ++i) {
    if (host[i]) {
      ++e.host_delayed;
    } else {
      latency.push_back(e.all.latency_us[i]);
      window.push_back(e.all.latency_window[i]);
    }
  }
  e.round_p50 = PerWindowPercentiles(latency, window, rounds, 50);
  e.round_p90 = PerWindowPercentiles(latency, window, rounds, 90);
  // Live: an update is in flight through (nearly) every round, as
  // round_updating records, and how reads fare beside a repair varies from
  // round to round: take the median round. Otherwise the rounds repeat one
  // measurement, and a disturbance of the machine only ever slows a round
  // down: take the fastest quartile of rounds.
  const double across = c.live ? 50 : 25;
  e.qps = Percentile(e.round_qps, 100 - across);
  e.p50 = WindowedPercentile(latency, window, rounds, 50, across);
  e.p90 = WindowedPercentile(latency, window, rounds, 90, across);
  return e;
}

std::vector<Metric> EndToEndMetrics(const Served& s, const E2E& e) {
  return {{"setup_s", s.setup_s, "s"},
          {"qps", e.qps, "req/s"},
          {"p50_us", e.p50, "us"},
          {"p90_us", e.p90, "us"},
          {"update_ms", e.update_ms, "ms"},
          {"index_mb", s.index_mb, "MB"},
          {"peak_rss_mb", s.peak_rss_mb, "MB"}};
}

void PrintDiagnostics(const char* prefix, const E2E& e) {
  const uint64_t reads = e.all.sent;
  std::printf(
      "%sfail_frac %s ratio (reads %llu: shed %llu, errors %llu, wrong %llu, "
      "unanswered %llu; updates %llu sent, %llu failed)\n",
      prefix,
      Num(reads ? static_cast<double>(e.all.failed()) / reads : 0).c_str(),
      static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(e.all.shed),
      static_cast<unsigned long long>(e.all.errors),
      static_cast<unsigned long long>(e.all.wrong),
      static_cast<unsigned long long>(e.all.unanswered),
      static_cast<unsigned long long>(e.all.updates_sent),
      static_cast<unsigned long long>(e.all.updates_failed));
  std::printf(
      "%slatency us (n=%zu): all rounds pooled p50 %s p90 %s p99 %s (%zu "
      "beyond), p99.9 %s (%zu beyond); generator late p99 %s ms; updates "
      "measured %zu\n",
      prefix, e.latency.count, Num(e.latency.p50).c_str(),
      Num(e.latency.p90).c_str(), Num(e.latency.p99).c_str(),
      e.latency.beyond_p99, Num(e.latency.p999).c_str(),
      e.latency.beyond_p999, Num(Percentile(e.all.gen_late_ms, 99)).c_str(),
      e.all.update_ms.size());
  int64_t frozen_ns = 0;
  for (const Freeze& f : e.all.freezes) frozen_ns += f.end_ns - f.start_ns;
  std::printf(
      "%shost: client sent late in %zu freezes, %s ms in all; steal %s ms; "
      "latency samples left out %zu\n",
      prefix, e.all.freezes.size(), Num(frozen_ns / 1e6).c_str(),
      Num(e.all.open_steal_ns / 1e6).c_str(), e.host_delayed);
  std::printf("%sper round: qps", prefix);
  for (double q : e.round_qps) std::printf(" %.0f", q);
  std::printf("; p90_us");
  for (double q : e.round_p90) std::printf(" %.1f", q);
  std::printf("; p50_us");
  for (double q : e.round_p50) std::printf(" %.1f", q);
  std::printf("; late ms");
  for (double q : e.all.round_late_ms) std::printf(" %.2f", q);
  std::printf("; steal %%");
  for (double q : e.round_steal) std::printf(" %.1f", 100 * q);
  if (!e.round_updating.empty()) {
    std::printf("; update in flight %%");
    for (double q : e.round_updating) std::printf(" %.0f", 100 * q);
  }
  std::printf("\n");
}

// ---------------------------------------------------------- layer replay ---

/// Repeats fn() until at least min_s seconds passed; returns repetitions.
template <typename F>
uint64_t RepeatFor(double min_s, F fn) {
  const int64_t t0 = NowNs();
  uint64_t reps = 0;
  do {
    fn();
    ++reps;
  } while (static_cast<double>(NowNs() - t0) < min_s * 1e9);
  return reps;
}

struct Replay {
  std::vector<Request> requests;
  std::vector<std::string> lines;  // without the '\n'
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<std::vector<Vertex>> matrix_sources, matrix_targets;
  std::vector<std::pair<Vertex, Vertex>> routes;
};

/// The workload's own inputs, drawn from its open-loop stream.
Replay MakeReplay(const Workload& w, uint64_t seed) {
  Replay r;
  hc2l::Rng rng(seed * 1000 + 1);
  std::string line;
  while (r.requests.size() < 4096 && r.pairs.size() < 65536) {
    line.clear();
    const Request q = w.Next(rng, &line);
    line.pop_back();
    r.requests.push_back(q);
    r.lines.push_back(line);
    w.AppendPairs(q, &r.pairs);
    if (q.op == Op::kMatrix) {
      r.matrix_sources.push_back(w.pool(q.pool).sources);
      r.matrix_targets.push_back(w.pool(q.pool).targets);
    }
    if (q.op == Op::kRoute) r.routes.emplace_back(q.s, q.t);
  }
  // Workloads without matrices or routes replay their own pairs as such.
  const size_t side = kMatrixSide;
  for (size_t at = 0; r.matrix_sources.empty() && at + side <= r.pairs.size();
       at += side) {
    std::vector<Vertex> s, t;
    for (size_t i = at; i < at + side; ++i) {
      s.push_back(r.pairs[i].first);
      t.push_back(r.pairs[i].second);
    }
    r.matrix_sources.push_back(std::move(s));
    r.matrix_targets.push_back(std::move(t));
    if (r.matrix_sources.size() == 64) break;
  }
  if (r.routes.empty()) {
    r.routes.assign(r.pairs.begin(),
                    r.pairs.begin() + std::min<size_t>(256, r.pairs.size()));
  }
  return r;
}

hc2l::QueryKind KindOf(const std::string& op) {
  if (op == "matrix") return hc2l::QueryKind::kMatrix;
  if (op == "route") return hc2l::QueryKind::kRoute;
  return hc2l::QueryKind::kPointBatch;
}

std::vector<Metric> LayerReplay(const Workload& w, Served& s, const Args& a,
                                const E2E& traced, Tracer& tr) {
  const WorkloadConfig& c = w.config();
  const hc2l::Graph& g = w.graph();
  Router& router = *s.router;
  const Replay rp = MakeReplay(w, a.seed);
  std::vector<Metric> m;
  auto span_ns = [&](uint32_t id) { return tr.DurationNs(id); };

  // hierarchy + partition: the first build steps, on the workload's graph.
  std::vector<double> contract_s, cut_s;
  size_t cut_size = 0;
  for (int k = 0; k < 3; ++k) {
    const uint32_t id = tr.Begin("hierarchy.contract");
    hc2l::DegreeOneContraction contraction(g);
    tr.End(id);
    contract_s.push_back(span_ns(id) / 1e9);
    const uint32_t cut = tr.Begin("partition.top_cut");
    const hc2l::BalancedCutResult r = hc2l::BalancedCut(contraction.CoreGraph(), 0.2);
    tr.End(cut);
    cut_s.push_back(span_ns(cut) / 1e9);
    cut_size = r.cut.size();
  }
  m.push_back({"hierarchy.contract_s", Median(contract_s), "s"});
  m.push_back({"partition.top_cut_s", Median(cut_s), "s"});
  m.push_back({"partition.top_cut_size", static_cast<double>(cut_size), "count"});

  // core: labelling alone, as a replayed child of the median build.
  const uint32_t label = tr.Begin("core.labelling", s.build_span);
  if (!router.RebuildLabels(g, true, kBuildThreads).ok()) Die("relabel failed");
  tr.End(label);
  m.push_back({"core.labelling_s", span_ns(label) / 1e9, "s"});
  m.push_back({"core.hierarchy_s", tr.SelfNs(s.build_span) / 1e9, "s"});
  const hc2l::IndexInfo info = router.Info();
  m.push_back({"core.label_entries", static_cast<double>(info.label_entries), "count"});
  m.push_back({"core.resident_over_logical",
               static_cast<double>(info.label_resident_bytes) /
                   static_cast<double>(info.label_logical_bytes),
               "ratio"});

  uint64_t sink = 0;
  {
    const uint32_t id = tr.Begin("core.point");
    const uint64_t reps = RepeatFor(0.2, [&] {
      for (const auto& [u, v] : rp.pairs) sink += router.DistanceUnchecked(u, v);
    });
    tr.End(id, reps * rp.pairs.size());
    m.push_back({"core.point_ns", span_ns(id) / (reps * rp.pairs.size()), "ns"});
  }
  std::vector<Dist> out;
  auto matrix_replay = [&](const char* name, auto& engine) {
    size_t pairs = 0;
    const uint32_t id = tr.Begin(name);
    const uint64_t reps = RepeatFor(0.2, [&] {
      for (size_t i = 0; i < rp.matrix_sources.size(); ++i) {
        out.resize(rp.matrix_sources[i].size() * rp.matrix_targets[i].size());
        (void)engine.DistanceMatrixInto(rp.matrix_sources[i],
                                        rp.matrix_targets[i], out);
        pairs += out.size();
        sink += out[0];
      }
    });
    (void)reps;
    tr.End(id, pairs);
    return span_ns(id) / static_cast<double>(pairs);
  };
  m.push_back({"core.matrix_ns_per_pair", matrix_replay("core.matrix", router), "ns"});
  hc2l::ParallelOptions po;
  po.num_threads = kEngineThreads;
  hc2l::Result<hc2l::ThreadedRouter> threaded = router.WithThreads(po);
  if (!threaded.ok()) Die("WithThreads failed");
  m.push_back({"query_engine.matrix_ns_per_pair",
               matrix_replay("query_engine.matrix", *threaded), "ns"});
  {
    std::vector<Vertex> path(g.NumVertices());
    Dist weight = 0;
    const uint32_t id = tr.Begin("core.route");
    const uint64_t reps = RepeatFor(0.2, [&] {
      for (const auto& [u, v] : rp.routes) {
        const hc2l::Result<size_t> n = router.RouteInto(u, v, path, &weight);
        sink += (n.ok() ? *n : 0) + weight;
      }
    });
    tr.End(id, reps * rp.routes.size());
    m.push_back({"core.route_ns", span_ns(id) / (reps * rp.routes.size()), "ns"});
  }

  // core repair: Router::UpdateWeights on the workload's update batches
  // (the router's repair cache is warm after the relabel above).
  const size_t batches = std::min<size_t>(2, w.num_deltas() - 1);
  {
    std::vector<double> repair_ms;
    std::unique_ptr<Router> cur;
    for (size_t k = 1; k <= batches; ++k) {
      const Router& from = cur ? *cur : router;
      const uint32_t id = tr.Begin("core.repair");
      hc2l::Result<Router> next =
          from.UpdateWeights(w.deltas(k), true, kEngineThreads);
      tr.End(id);
      if (!next.ok()) Die("UpdateWeights failed: " + next.status().ToString());
      cur = std::make_unique<Router>(std::move(next).value());
      repair_ms.push_back(span_ns(id) / 1e6);
    }
    m.push_back({"core.repair_ms", Median(repair_ms), "ms"});
  }
  {
    // The same batches through Hc2lIndex::RepairLabels, for what the
    // repair recomputed; and the hub counts of the workload's pairs.
    std::filesystem::create_directories(a.work_dir);
    const std::string path = a.work_dir + "/" + c.name + ".idx";
    if (!router.Save(path).ok()) Die("save failed");
    hc2l::Result<hc2l::Hc2lIndex> index = hc2l::Hc2lIndex::Load(path);
    std::filesystem::remove(path);
    if (!index.ok()) Die("load failed");
    uint64_t hubs = 0;
    for (const auto& [u, v] : rp.pairs) {
      uint64_t h = 0;
      sink += index->QueryCountingHubs(u, v, &h);
      hubs += h;
    }
    m.push_back({"core.hubs_per_query",
                 static_cast<double>(hubs) / rp.pairs.size(), "count"});
    if (!index->RebuildLabels(g, true, kEngineThreads).ok()) Die("relabel failed");
    hc2l::Graph updated = g;
    double recomputed = 0, total = 0;
    for (size_t k = 1; k <= batches; ++k) {
      for (const EdgeDelta& d : w.deltas(k)) updated.UpdateEdgeWeight(d.u, d.v, d.weight);
      if (!index->RepairLabels(updated, w.deltas(k), true, kEngineThreads).ok()) {
        Die("RepairLabels failed");
      }
      const hc2l::RepairStats& rs = index->LastRepairStats();
      recomputed += static_cast<double>(rs.recomputed_entries);
      total += static_cast<double>(rs.recomputed_entries + rs.reused_entries);
    }
    m.push_back({"core.repair_recomputed_frac", recomputed / total, "ratio"});
  }

  // wire: parse, engine and HandleLine replays of the workload's lines.
  {
    std::vector<hc2l::WireRequest> parsed(rp.lines.size());
    for (size_t i = 0; i < rp.lines.size(); ++i) {
      if (!hc2l::ParseRequestLine(rp.lines[i], &parsed[i]).ok()) Die("unparsable line");
    }
    hc2l::RequestHandler handler;
    std::string response;
    uint64_t bytes = 0;
    const uint32_t handle = tr.Begin("wire.handle");
    const uint64_t reps = RepeatFor(0.3, [&] {
      for (const std::string& line : rp.lines) {
        response.clear();
        handler.HandleLine(line, router, *threaded, &response);
        bytes += response.size();
      }
    });
    const uint64_t lines = reps * rp.lines.size();
    tr.End(handle, lines);
    hc2l::WireRequest req;
    const uint32_t parse = tr.Begin("wire.parse", handle);
    for (uint64_t r = 0; r < reps; ++r) {
      for (const std::string& line : rp.lines) {
        (void)hc2l::ParseRequestLine(line, &req);
      }
    }
    tr.End(parse, lines);
    std::vector<Dist> dists(hc2l::RequestHandler::kMaxResultEntries);
    std::vector<Vertex> verts(g.NumVertices());
    const uint32_t engine = tr.Begin("query_engine.execute", handle);
    for (uint64_t r = 0; r < reps; ++r) {
      for (const hc2l::WireRequest& p : parsed) {
        hc2l::QueryRequest q;
        q.kind = KindOf(p.op);
        q.sources = p.sources;
        q.targets = p.targets;
        const size_t n = q.kind == hc2l::QueryKind::kMatrix
                             ? p.sources.size() * p.targets.size()
                             : (q.kind == hc2l::QueryKind::kRoute ? 1
                                                                  : p.targets.size());
        hc2l::QueryOutput o;
        o.distances = std::span<Dist>(dists.data(), n);
        if (q.kind == hc2l::QueryKind::kRoute) o.vertices = verts;
        sink += threaded->Execute(q, o).ok();
      }
    }
    tr.End(engine, lines);
    m.push_back({"wire.parse_ns", span_ns(parse) / lines, "ns"});
    m.push_back({"wire.handle_ns", span_ns(handle) / lines, "ns"});
    m.push_back({"wire.format_ns", tr.SelfNs(handle) / lines, "ns"});
    m.push_back({"wire.response_bytes", static_cast<double>(bytes) / lines, "B"});
  }

  // reactor: serial pings on a quiet server; the traced loops' counters.
  {
    hc2l::Result<hc2l::QueryServer> srv =
        hc2l::QueryServer::Start(router, FixedServerOptions());
    if (!srv.ok()) Die("server start failed");
    const uint32_t id = tr.Begin("reactor.ping");
    const std::vector<double> rtt =
        SerialRoundTrips(srv->port(), "{\"op\":\"ping\"}\n", 2000);
    tr.End(id, rtt.size());
    srv->Stop();
    m.push_back({"reactor.ping_rtt_us", Median(rtt), "us"});
  }
  const bool matrix_heavy = c.matrix >= c.point && c.matrix >= c.batch;
  uint64_t op_p50 = 0, lag_p50 = 0;
  ParseNestedField(traced.open_info, matrix_heavy ? "matrix" : "point", "p50",
                   &op_p50);
  ParseNestedField(traced.open_info, "loop_lag_ns", "p50", &lag_p50);
  m.push_back({"reactor.op_p50_us", static_cast<double>(op_p50) / 1e3, "us"});
  m.push_back({"reactor.loop_lag_p50_us", static_cast<double>(lag_p50) / 1e3, "us"});
  const hc2l::QueryServer::Stats& cs = traced.closed_stats;
  m.push_back({"reactor.coalesce_batch_mean",
               cs.coalesced_batches ? static_cast<double>(cs.requests_coalesced) /
                                          cs.coalesced_batches
                                    : 0.0,
               "req"});
  m.push_back({"reactor.coalesced_frac",
               cs.requests_admitted ? static_cast<double>(cs.requests_coalesced) /
                                          cs.requests_admitted
                                    : 0.0,
               "ratio"});
  m.push_back({"reactor.shed", static_cast<double>(traced.shed), "count"});
  double core_repair_ms = 0;
  for (const Metric& x : m) {
    if (x.name == "core.repair_ms") core_repair_ms = x.value;
  }
  m.push_back({"server.swap_ms", traced.update_ms - core_repair_ms, "ms"});
  m.push_back({"client.gen_late_p99_ms", Percentile(traced.all.gen_late_ms, 99), "ms"});
  if (sink == 42) std::printf(" ");  // keeps the replays from being elided
  return m;
}

int Run(const Args& a) {
  const WorkloadConfig& c = a.cfg;
  std::printf("machine cpu=\"%s\" nproc=%u simd=%s\n", CpuModel().c_str(),
              std::thread::hardware_concurrency(), hc2l::simd::kKernelName);
  std::printf(
      "config workload=%s seed=%llu seconds=%s vertices=%llu build_threads=%u "
      "engine_threads=%u reactor_threads=%u cpus=%u closed=%ux%u (%s of the "
      "time) open=%s/s over %u conns live=%d\n",
      c.name.c_str(), static_cast<unsigned long long>(a.seed),
      Num(a.seconds).c_str(), static_cast<unsigned long long>(c.vertices),
      kBuildThreads, kEngineThreads, kReactorThreads, kCpus, c.closed_conns,
      c.closed_depth, Num(kClosedShare).c_str(), Num(c.open_rate).c_str(),
      c.open_conns, c.live ? 1 : 0);

  const cpu_set_t all_cpus = PinToCpus(kCpus);
  Tracer tr(a.trace);
  hc2l::RoadNetworkOptions ro;
  ro.seed = a.seed;
  const hc2l::Graph g =
      hc2l::GenerateRoadNetwork(hc2l::RoadNetworkOptionsForVertices(c.vertices, ro));
  const size_t batches =
      2 + static_cast<size_t>(std::ceil(a.seconds * 1000 / c.update_interval_ms)) +
      c.quiet_updates;
  const Workload w(g, c, a.seed, batches);
  std::printf("graph vertices=%zu edges=%zu pool=%zu\n", g.NumVertices(),
              g.NumEdges(), w.pool_size());

  Served s = SetUp(g, c, tr);
  AnswerBook book(w, *s.router);
  {
    // The independent oracle: Dijkstra rows from request sources.
    std::vector<Vertex> sources;
    hc2l::Rng rng(a.seed + 99);
    for (size_t i = 0; sources.size() < kDijkstraSources; ++i) {
      sources.push_back(i < w.pool_size() ? w.pool(static_cast<int32_t>(i)).sources[0]
                                          : static_cast<Vertex>(rng.Below(g.NumVertices())));
    }
    book.VerifyAgainstDijkstra(*s.router, g, sources);
  }

  E2E plain = RunEndToEnd(w, book, *s.router, a, nullptr);
  E2E traced;
  std::vector<Metric> layers;
  if (a.trace) {
    tr.Reserve(1 << 20);
    traced = RunEndToEnd(w, book, *s.router, a, &tr);
  }
  if (c.live) book.CheckDeferred();
  if (a.trace) layers = LayerReplay(w, s, a, traced, tr);

  const std::vector<Metric> e2e = EndToEndMetrics(s, plain);
  PrintMetrics("", e2e);
  PrintDiagnostics("", plain);
  std::vector<Metric> out = e2e;
  if (a.trace) {
    const std::vector<Metric> e2e_traced = EndToEndMetrics(s, traced);
    PrintMetrics("traced ", e2e_traced);
    PrintDiagnostics("traced ", traced);
    layers.push_back({"trace.qps_ratio", traced.qps / plain.qps, "ratio"});
    layers.push_back({"trace.p50_ratio", traced.p50 / plain.p50, "ratio"});
    layers.push_back({"trace.p90_ratio", traced.p90 / plain.p90, "ratio"});
    PrintMetrics("layer ", layers);
    out = layers;
    std::filesystem::create_directories(a.work_dir);
    // One file per workload, overwritten by the next traced run.
    const std::string path = a.work_dir + "/trace-" + c.name + ".jsonl";
    if (tr.WriteJsonl(path)) {
      std::printf("spans %zu written to %s\n", tr.size(), path.c_str());
    }
  }
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  PrintMetrics("", Calibrate());

  PhaseStats all = plain.all;
  all.Merge(traced.all);
  const uint64_t wrong = book.wrong();
  const uint64_t attempted = all.sent + all.updates_sent;
  const uint64_t failed = all.shed + all.errors + all.unanswered + wrong +
                          all.updates_failed;
  const bool correct =
      wrong == 0 && book.oracle_failures() == 0 && all.updates_failed == 0;
  if (!correct) {
    std::printf(
        "WRONG: %llu wrong answers, %llu Dijkstra disagreements, %llu failed "
        "updates; first: %s\n",
        static_cast<unsigned long long>(wrong),
        static_cast<unsigned long long>(book.oracle_failures()),
        static_cast<unsigned long long>(all.updates_failed),
        book.first_error().c_str());
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
