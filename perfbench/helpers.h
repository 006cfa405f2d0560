#pragma once

// Statistics, span and output-check helpers of the repo benchmark. They
// depend on the standard library only, so helpers_test.cpp can pin them
// without building a workload.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> xs);

/// First and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(xs, n=4), the rule the benchmark's spread check
/// uses. Needs at least two values; a single value is returned as both.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> xs);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least `min_beyond` samples strictly above its nearest-rank position.
/// `pct` is 0 when even the median lacks that support.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< all samples the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked above it
};
Tail tail_percentile(std::vector<double> xs, std::size_t min_beyond = 10);

/// Half-open time interval in nanoseconds.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// A span's self time: its duration minus the part of it that the union
/// of `children` covers (children may overlap each other or stick out of
/// the parent; only the covered part of the parent counts).
std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children);

/// Number of positions where `got` and `want` differ bitwise, plus the
/// length difference. The serve check: a response counts as correct only
/// when this is 0 against its reference response.
std::size_t bit_mismatches(std::span<const float> got,
                           std::span<const float> want);

/// One benchmark-owned span. `id` groups the spans of one operation (a
/// request, a search); `parent` is the id of the span that caused it.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// In-memory span log, appended to from any thread and written out once,
/// when the run ends.
class SpanLog {
 public:
  void add(Span span);
  std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Chrome trace-event JSON ("X" events, µs) of `spans`, loadable in
/// https://ui.perfetto.dev.
std::string chrome_trace_json(const std::vector<Span>& spans);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// JSON string literal of `s` (quotes included).
std::string json_quote(const std::string& s);

/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": v, "unit": u}}} on one line, values with all their digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

}  // namespace perfbench
