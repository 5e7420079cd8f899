#pragma once

// Statistics and output of one fcbench run: nearest-rank percentiles, the
// virtual-time open-loop replay, and the two output forms — one
// `name value unit samples` line per metric for people, and one JSON
// object (the run's result, or the full record) for scripts.

#include <cstdint>
#include <string>
#include <vector>

namespace fcbench {

// Nearest-rank percentile of `values`, with the percentile given in
// per-mille (500 = p50, 990 = p99) so the rank ceil(pm·N/1000) is exact
// integer arithmetic. Requires a non-empty input.
double percentile(std::vector<double> values, int per_mille);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 500);
}

// Open-loop replay in virtual time: request i is due at i/rate and
// starts when it is due or when request i−1 finishes, whichever is later;
// its latency is finish − due. `service` holds the measured service times
// in the order they ran; the result holds the latencies in the same unit.
// Because the schedule is virtual, the generator is never late.
std::vector<double> open_loop_latencies(const std::vector<double>& service,
                                        double rate);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;  // measurements the value summarizes
};

// `name value unit samples`, the value printed with every digit.
std::string format_line(const Metric& metric);

// A finite double as a JSON number that reads back bit-identically.
std::string json_number(double value);

// A JSON string literal (quotes and control characters escaped).
std::string json_string(const std::string& text);

// {"name": {"value": v, "unit": u}, ...} in the given order; with
// `with_samples` each entry also carries its sample count.
std::string json_metrics(const std::vector<Metric>& metrics,
                         bool with_samples);

// The run's result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics);

// Peak resident set size of this process, in MB.
double peak_rss_mb();

// 64-bit FNV-1a, for placement and result fingerprints.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace fcbench
