#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fcbench {

double percentile(std::vector<double> values, int per_mille) {
  if (values.empty()) throw std::invalid_argument("percentile of nothing");
  const long n = static_cast<long>(values.size());
  long rank = (static_cast<long>(per_mille) * n + 999) / 1000;
  rank = std::clamp(rank, 1L, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<std::size_t>(rank - 1)];
}

std::vector<double> open_loop_latencies(const std::vector<double>& service,
                                        double rate) {
  std::vector<double> latency(service.size());
  double finish = 0.0;
  for (std::size_t i = 0; i < service.size(); ++i) {
    const double due = static_cast<double>(i) / rate;
    const double start = std::max(due, finish);
    finish = start + service[i];
    latency[i] = finish - due;
  }
  return latency;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite metric value");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string format_line(const Metric& metric) {
  return metric.name + " " + json_number(metric.value) + " " + metric.unit +
         " " + std::to_string(metric.samples);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + json_metrics(metrics, false) + "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Fnv1a::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

}  // namespace fcbench
