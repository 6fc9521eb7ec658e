// Checks of the benchmark's own arithmetic: percentile selection, due-time
// latency under an injected generator stall, the requests charged to host
// freezes, span self time, response scanning, and the answer checker
// rejecting corrupted distances and routes. run.py runs it before every
// benchmark run; exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void Percentiles() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(Percentile(v, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Expect(Percentile(v, 90) == 90, "p90 of 1..100 is 90");
  Expect(Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(v, 100) == 100, "p100 is the maximum");
  Expect(Percentile({7}, 50) == 7, "a single sample is every percentile");
  Expect(Percentile({}, 50) == 0, "empty sample reads 0");
  Expect(perfbench::Median({3, 1, 2, 10}) == 2, "median of 4 takes rank 2");
  std::vector<double> big(2000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i + 1);
  const perfbench::LatencySummary s = perfbench::Summarize(big);
  Expect(s.count == 2000 && s.p50 == 1000 && s.p90 == 1800 && s.p99 == 1980,
         "Summarize picks nearest ranks");
  Expect(s.beyond_p99 == 20 && s.p999 == 1998 && s.beyond_p999 == 2,
         "Summarize counts the samples beyond each tail percentile");
  // Four windows of latencies; window 3 was disturbed.
  std::vector<double> lat;
  std::vector<uint8_t> win;
  for (uint8_t w = 0; w < 4; ++w) {
    for (int i = 1; i <= 10; ++i) {
      lat.push_back(w == 3 ? 1000.0 * i : i + w);
      win.push_back(w);
    }
  }
  Expect(perfbench::PerWindowPercentiles(lat, win, 4, 90) ==
             std::vector<double>({9, 10, 11, 9000}),
         "per-window p90s come in window order");
  Expect(perfbench::WindowedPercentile(lat, win, 4, 90, 50) == 10,
         "per-window p90s are 9,10,11,9000; their median is 10");
  Expect(perfbench::WindowedPercentile(lat, win, 4, 50, 25) == 5,
         "the first quartile of per-window medians ignores the disturbed one");
  Expect(perfbench::WindowedPercentile(lat, win, 5, 50, 100) == 5000,
         "empty windows are skipped");
  std::vector<double> with_fail = {1, 2, 3, INFINITY};
  Expect(std::isinf(Percentile(with_fail, 100)) && Percentile(with_fail, 75) == 3,
         "a failed request sorts as infinitely late");
}

void DueTimeLatency() {
  // 1000 req/s from t=0; the server answers 100 us after each send. The
  // generator stalls from 10 ms to 15 ms and then sends the backlog at once.
  const perfbench::OpenLoopSchedule sched(0, 1000.0);
  Expect(sched.Due(0) == 0 && sched.Due(10) == 10'000'000,
         "requests are due at start + i / rate");
  Expect(sched.CountWithin(2.0) == 2000, "2 s at 1000/s is 2000 requests");
  std::vector<double> lat, late;
  for (uint64_t i = 0; i < 20; ++i) {
    const int64_t due = sched.Due(i);
    const int64_t sent = (due >= 10'000'000 && due < 15'000'000) ? 15'000'000 : due;
    const int64_t answered = sent + 100'000;
    lat.push_back(perfbench::DueLatencyUs(due, answered));
    late.push_back(static_cast<double>(sent - due) / 1e6);
  }
  Expect(lat[0] == 100 && lat[9] == 100, "an on-time request waits 100 us");
  Expect(lat[10] == 5100 && lat[14] == 1100,
         "a stalled request's latency includes the stall");
  Expect(perfbench::Percentile(lat, 100) == 5100 &&
             perfbench::Percentile(late, 100) == 5,
         "the stall shows as latency and as generator lateness");
}

void HostStalls() {
  using perfbench::HostDelayed;
  // Requests due every 1 ms (in ms: due 0..19), each answered 0.1 ms later,
  // except those the 5 ms freeze from 10 ms held until 15.1 ms; request 19
  // failed. A 1 ms freeze at 2 ms delayed no request by itself.
  std::vector<int64_t> due;
  std::vector<double> lat;
  for (int64_t i = 0; i < 20; ++i) {
    due.push_back(i * 1'000'000);
    lat.push_back(i >= 10 && i < 15 ? 15'100 - 1000.0 * i : 100);
  }
  lat[19] = INFINITY;
  const std::vector<perfbench::Freeze> freezes = {{10'000'000, 15'000'000},
                                                  {2'000'000, 3'000'000}};
  Expect(HostDelayed(freezes, 0, due, lat) == std::vector<bool>(20, false),
         "without steal no request is left out");
  const std::vector<bool> five = HostDelayed(freezes, 5'000'000, due, lat);
  std::vector<bool> expect(20, false);
  for (int i = 10; i < 19; ++i) expect[i] = true;  // in flight, then backlog
  Expect(five == expect,
         "5 ms of steal is charged to the longest freeze and its backlog; "
         "the failed request stays");
  const std::vector<bool> six = HostDelayed(freezes, 6'000'000, due, lat);
  expect[2] = expect[3] = true;  // the 1 ms freeze and its 1 ms backlog
  Expect(six == expect, "6 ms of steal covers both freezes");
  Expect(HostDelayed(freezes, 4'000'000, due, lat)[2] &&
             !HostDelayed(freezes, 4'000'000, due, lat)[10],
         "a freeze longer than the steal stays the program's");
}

void SpanSelfTime() {
  perfbench::Tracer t;
  const uint32_t build = t.Add("core.build", 0, 0, 1000);
  t.Add("hierarchy.contract", build, 0, 100);        // nested in time
  t.Add("core.labelling", build, 5000, 5600);         // replayed outside
  const uint32_t other = t.Add("other", 0, 2000, 2500);
  t.Add("other.child", other, 2000, 2100);
  Expect(t.DurationNs(build) == 1000, "span duration");
  Expect(t.SelfNs(build) == 300, "self time subtracts every child");
  Expect(t.SelfNs(other) == 400, "self time only subtracts own children");
  Expect(t.SelfNs(other + 1) == 100, "a leaf's self time is its duration");
  perfbench::Tracer off(false);
  Expect(off.Begin("x") == 0 && off.size() == 0, "a disabled tracer records nothing");
}

void ResponseScanning() {
  std::vector<hc2l::Dist> d;
  Expect(perfbench::ParseDistArray(
             "{\"ok\":true,\"op\":\"batch\",\"distances\":[7,null,3]}",
             "distances", &d) &&
             d.size() == 3 && d[0] == 7 && d[1] == hc2l::kInfDist && d[2] == 3,
         "distance arrays parse, null is unreachable");
  Expect(perfbench::ParseDistArray("{\"distances\":[]}", "distances", &d) &&
             d.empty(),
         "empty arrays parse");
  Expect(!perfbench::ParseDistArray("{\"distances\":[1,2", "distances", &d),
         "a truncated array is rejected");
  uint64_t v = 0;
  Expect(perfbench::ParseNumberField("{\"ok\":true,\"epoch\":12}", "epoch", &v) &&
             v == 12,
         "number fields parse");
  Expect(perfbench::ParseNestedField(
             "{\"latency_ns\":{\"point\":{\"count\":5,\"p50\":2048}},"
             "\"loop_lag_ns\":{\"count\":9,\"p50\":512}}",
             "loop_lag_ns", "p50", &v) &&
             v == 512,
         "nested fields are read from the named object");
  Expect(perfbench::ClassifyReply("{\"ok\":true}") == perfbench::Reply::kOk &&
             perfbench::ClassifyReply(
                 "{\"ok\":false,\"code\":\"Overloaded\",\"retry_after_ms\":1}") ==
                 perfbench::Reply::kOverloaded &&
             perfbench::ClassifyReply("{\"ok\":false,\"code\":\"Internal\"}") ==
                 perfbench::Reply::kError,
         "replies classify as ok, shed or error");
}

void AnswerChecker() {
  // 0 -1- 1 -2- 2, and a 10-weight shortcut 0-2; vertex 3 is isolated.
  hc2l::GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  b.AddEdge(0, 2, 10);
  const hc2l::Graph g = std::move(b).Build();
  std::string why;
  const std::vector<hc2l::Vertex> good = {0, 1, 2};
  Expect(perfbench::CheckRoute(g, 0, 2, 3, 3, good, &why), "a shortest route passes");
  Expect(!perfbench::CheckRoute(g, 0, 2, 3, 4, good, &why),
         "a corrupted route distance is rejected");
  Expect(!perfbench::CheckRoute(g, 0, 2, 3, 10, std::vector<hc2l::Vertex>{0, 2}, &why),
         "a longer path is rejected even with its own weight");
  Expect(!perfbench::CheckRoute(g, 0, 2, 3, 3, std::vector<hc2l::Vertex>{0, 3, 2}, &why),
         "a path through a non-edge is rejected");
  Expect(!perfbench::CheckRoute(g, 0, 2, 3, 3, std::vector<hc2l::Vertex>{1, 2}, &why),
         "a path with the wrong endpoints is rejected");
  Expect(!perfbench::CheckRoute(g, 0, 2, 3, 3, std::vector<hc2l::Vertex>{0, 1, 0, 1, 2}, &why),
         "a path that weighs more than reported is rejected");
  Expect(perfbench::CheckRoute(g, 0, 3, hc2l::kInfDist, hc2l::kInfDist, {}, &why),
         "an unreachable pair answers null with no vertices");
  Expect(perfbench::CheckRoute(g, 1, 1, 0, 0, std::vector<hc2l::Vertex>{1}, &why),
         "s == t is the single vertex");
  const std::vector<hc2l::Dist> want = {1, 2, hc2l::kInfDist};
  Expect(perfbench::CheckDistances(want, want, &why), "equal distances pass");
  Expect(!perfbench::CheckDistances(want, std::vector<hc2l::Dist>{1, 3, hc2l::kInfDist}, &why),
         "a corrupted distance is rejected");
  Expect(!perfbench::CheckDistances(want, std::vector<hc2l::Dist>{1, 2}, &why),
         "a short answer is rejected");
}

}  // namespace

int main() {
  Percentiles();
  DueTimeLatency();
  HostStalls();
  SpanSelfTime();
  ResponseScanning();
  AnswerChecker();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
