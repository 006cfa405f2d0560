#include "helpers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) return {};
  if (xs.size() == 1) return {xs[0], xs[0]};
  std::sort(xs.begin(), xs.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i*m/4 (1-based), clamped into the data, then interpolated.
  const auto m = static_cast<long>(xs.size()) + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(xs.size()) - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (xs[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            xs[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  return {cut(1), cut(3)};
}

Tail tail_percentile(std::vector<double> xs, std::size_t min_beyond) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.empty()) return tail;
  std::sort(xs.begin(), xs.end());
  static constexpr std::array<double, 5> kLadder = {50.0, 90.0, 99.0, 99.9,
                                                    99.99};
  for (double pct : kLadder) {
    // Nearest rank: the smallest rank r with r >= pct% of n.
    const auto n = static_cast<double>(xs.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    const std::size_t beyond = xs.size() - rank;
    if (beyond < min_beyond) break;
    tail.pct = pct;
    tail.value = xs[rank - 1];
    tail.beyond = beyond;
  }
  return tail;
}

std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.begin) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.begin;  // everything before is accounted
  for (const Interval& c : children) {
    const std::uint64_t b = std::max(c.begin, cursor);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e <= b) continue;
    covered += e - b;
    cursor = e;
  }
  return (parent.end - parent.begin) - covered;
}

std::size_t bit_mismatches(std::span<const float> got,
                           std::span<const float> want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::size_t bad = std::max(got.size(), want.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) ++bad;
  }
  return bad;
}

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":" + json_quote(s.name) + ",\"ph\":\"X\",\"pid\":1" +
           ",\"tid\":" + std::to_string(s.tid) +
           ",\"ts\":" + number(static_cast<double>(s.start_ns) / 1e3) +
           ",\"dur\":" + number(static_cast<double>(s.dur_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  return out + "]}\n";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
