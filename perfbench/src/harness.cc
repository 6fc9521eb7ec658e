#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Nearest rank ceil(p/100 * n), 1-based, clamped to [1, n]. The epsilon
/// keeps 99.9% of 2000 at rank 1998 despite binary rounding.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(p, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  auto at = [&](double p) { return sorted[NearestRank(p, sorted.size()) - 1]; };
  auto beyond = [&](double v) {
    return static_cast<size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
  };
  s.p50 = at(50);
  s.p90 = at(90);
  s.p99 = at(99);
  s.p999 = at(99.9);
  s.beyond_p99 = beyond(s.p99);
  s.beyond_p999 = beyond(s.p999);
  return s;
}

std::vector<double> PerWindowPercentiles(const std::vector<double>& samples,
                                         const std::vector<uint8_t>& window,
                                         int windows, double p) {
  std::vector<std::vector<double>> split(windows);
  for (size_t i = 0; i < samples.size(); ++i) {
    split[window[i]].push_back(samples[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : split) {
    if (!w.empty()) per_window.push_back(Percentile(std::move(w), p));
  }
  return per_window;
}

double WindowedPercentile(const std::vector<double>& samples,
                          const std::vector<uint8_t>& window, int windows,
                          double p, double across) {
  return Percentile(PerWindowPercentiles(samples, window, windows, p), across);
}

// ----------------------------------------------------------- host stalls ---

std::vector<bool> HostDelayed(std::vector<Freeze> freezes, int64_t steal_ns,
                              const std::vector<int64_t>& due_ns,
                              const std::vector<double>& latency_us) {
  auto length = [](const Freeze& f) { return f.end_ns - f.start_ns; };
  std::sort(freezes.begin(), freezes.end(), [&](const Freeze& a, const Freeze& b) {
    return length(a) > length(b);
  });
  // Charged freezes, each followed by the drain of its backlog.
  std::vector<Freeze> charged;
  int64_t budget = steal_ns;
  for (const Freeze& f : freezes) {
    if (length(f) <= 0 || length(f) > budget) continue;
    budget -= length(f);
    charged.push_back({f.start_ns, f.end_ns + length(f)});
  }
  std::sort(charged.begin(), charged.end(),
            [](const Freeze& a, const Freeze& b) { return a.start_ns < b.start_ns; });
  std::vector<Freeze> merged;
  for (const Freeze& f : charged) {
    if (!merged.empty() && f.start_ns <= merged.back().end_ns) {
      merged.back().end_ns = std::max(merged.back().end_ns, f.end_ns);
    } else {
      merged.push_back(f);
    }
  }
  std::vector<bool> delayed(due_ns.size(), false);
  for (size_t i = 0; i < due_ns.size(); ++i) {
    if (!std::isfinite(latency_us[i])) continue;
    const int64_t answered = due_ns[i] + static_cast<int64_t>(latency_us[i] * 1e3);
    // The first merged interval that ends after the request became due.
    const auto it = std::upper_bound(
        merged.begin(), merged.end(), due_ns[i],
        [](int64_t t, const Freeze& f) { return t < f.end_ns; });
    delayed[i] = it != merged.end() && it->start_ns < answered;
  }
  return delayed;
}

// ---------------------------------------------------------------- tracer ---

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, NowNs(), 0, 1});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id, uint64_t count) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  spans_[id - 1].count = count;
}

uint32_t Tracer::Add(const char* name, uint32_t parent, int64_t start_ns,
                     int64_t end_ns, uint64_t count) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, start_ns, end_ns, count});
  return static_cast<uint32_t>(spans_.size());
}

double Tracer::DurationNs(uint32_t id) const {
  const Span& s = Get(id);
  return static_cast<double>(s.end_ns - s.start_ns);
}

double Tracer::SelfNs(uint32_t id) const {
  double self = DurationNs(id);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) self -= DurationNs(static_cast<uint32_t>(i + 1));
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"count\":%llu}\n",
                 i + 1, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------ response scanning ---

namespace {

/// Position just past `"key":` in line, or npos.
size_t FindValue(std::string_view line, std::string_view key,
                 size_t from = 0) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern.push_back('"');
  pattern.append(key);
  pattern.append("\":");
  const size_t at = line.find(pattern, from);
  return at == std::string_view::npos ? at : at + pattern.size();
}

/// Parses one number or null at line[*pos], advancing *pos.
bool ParseValue(std::string_view line, size_t* pos, uint64_t* out) {
  size_t i = *pos;
  if (line.substr(i, 4) == "null") {
    *out = hc2l::kInfDist;
    *pos = i + 4;
    return true;
  }
  uint64_t v = 0;
  const size_t begin = i;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(line[i] - '0');
    ++i;
  }
  if (i == begin) return false;
  *out = v;
  *pos = i;
  return true;
}

}  // namespace

Reply ClassifyReply(std::string_view line) {
  if (line.starts_with("{\"ok\":true")) return Reply::kOk;
  if (line.find("\"code\":\"Overloaded\"") != std::string_view::npos) {
    return Reply::kOverloaded;
  }
  return Reply::kError;
}

bool ParseDistArray(std::string_view line, std::string_view key,
                    std::vector<Dist>* out) {
  out->clear();
  size_t pos = FindValue(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '[') {
    return false;
  }
  ++pos;
  if (pos < line.size() && line[pos] == ']') return true;
  for (;;) {
    uint64_t v = 0;
    if (!ParseValue(line, &pos, &v)) return false;
    out->push_back(v);
    if (pos >= line.size()) return false;
    if (line[pos] == ']') return true;
    if (line[pos] != ',') return false;
    ++pos;
  }
}

bool ParseNumberField(std::string_view line, std::string_view key,
                      uint64_t* out) {
  size_t pos = FindValue(line, key);
  return pos != std::string_view::npos && ParseValue(line, &pos, out);
}

bool ParseNestedField(std::string_view line, std::string_view object,
                      std::string_view key, uint64_t* out) {
  const size_t obj = FindValue(line, object);
  if (obj == std::string_view::npos) return false;
  const size_t end = line.find('}', obj);
  size_t pos = FindValue(line.substr(0, end), key, obj);
  return pos != std::string_view::npos && ParseValue(line, &pos, out);
}

// --------------------------------------------------------- answer checks ---

bool CheckRoute(const hc2l::Graph& g, Vertex s, Vertex t, Dist expected,
                Dist reported, std::span<const Vertex> path,
                std::string* why) {
  char buf[160];
  if (reported != expected) {
    std::snprintf(buf, sizeof(buf), "route %u->%u: distance %llu, expected %llu",
                  s, t, static_cast<unsigned long long>(reported),
                  static_cast<unsigned long long>(expected));
    *why = buf;
    return false;
  }
  if (expected == hc2l::kInfDist) {
    if (!path.empty()) {
      *why = "unreachable route carries vertices";
      return false;
    }
    return true;
  }
  if (path.empty() || path.front() != s || path.back() != t) {
    std::snprintf(buf, sizeof(buf), "route %u->%u: wrong endpoints", s, t);
    *why = buf;
    return false;
  }
  Dist weight = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Vertex u = path[i], v = path[i + 1];
    if (u >= g.NumVertices() || v >= g.NumVertices()) {
      *why = "route vertex out of range";
      return false;
    }
    Dist best = hc2l::kInfDist;
    for (const hc2l::Arc& a : g.Neighbors(u)) {
      if (a.to == v) best = std::min<Dist>(best, a.weight);
    }
    if (best == hc2l::kInfDist) {
      std::snprintf(buf, sizeof(buf), "route %u->%u: %u-%u is not an edge", s,
                    t, u, v);
      *why = buf;
      return false;
    }
    weight += best;
  }
  if (weight != reported) {
    std::snprintf(buf, sizeof(buf),
                  "route %u->%u: path weighs %llu, reported %llu", s, t,
                  static_cast<unsigned long long>(weight),
                  static_cast<unsigned long long>(reported));
    *why = buf;
    return false;
  }
  return true;
}

bool CheckDistances(std::span<const Dist> expected,
                    std::span<const Dist> reported, std::string* why) {
  if (expected.size() != reported.size()) {
    *why = "answer has " + std::to_string(reported.size()) +
           " distances, expected " + std::to_string(expected.size());
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != reported[i]) {
      *why = "distance " + std::to_string(i) + " is " +
             std::to_string(reported[i]) + ", expected " +
             std::to_string(expected[i]);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
