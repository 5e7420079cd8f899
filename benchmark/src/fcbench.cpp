// fcbench — the repository benchmark (see benchmark/README.md).
//
//   fcbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//           [--record FILE] [--git-sha SHA]
//   fcbench --smoke       every workload at toy size, with every cross-check
//   fcbench --selftest    unit checks of the statistics and output format
//
// A run prints one `name value unit samples` line per metric, then, as its
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. It exits 1 when a correctness check failed.

#include <sched.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "report.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

using namespace fcbench;

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int usage() {
  std::cerr << "usage: fcbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--record FILE] [--git-sha SHA]\n"
               "       fcbench --smoke | --selftest\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

std::string record_json(const std::string& workload, const RunOptions& opt,
                        const std::string& git_sha, int nproc,
                        const RunOutput& out, const std::vector<Metric>& result) {
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016" PRIx64,
                out.fingerprint);
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += json_string(out.errors[i]);
  }
  errors += "]";
  return "{\"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"trace\": " + (opt.trace ? "1" : "0") +
         ", \"seconds\": " + json_number(opt.seconds) +
         ", \"git_sha\": " + json_string(git_sha) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"threads\": " + std::to_string(opt.threads) +
         ", \"compiler\": " + json_string(FCBENCH_COMPILER) +
         ", \"build_type\": " + json_string(FCBENCH_BUILD_TYPE) +
         ", \"correct\": " + (out.errors.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) +
         ", \"errors\": " + errors +
         ", \"fingerprint\": \"" + fingerprint + "\"" +
         ", \"metrics\": " + json_metrics(result, true) +
         ", \"exact\": " + json_metrics(out.exact, true) +
         ", \"detail\": " + json_metrics(out.detail, true) + "}\n";
}

int run_workload(const Workload& w, RunOptions opt, const std::string& record,
                 const std::string& git_sha) {
  const int nproc = online_cpus();
  // One library thread: on a small shared VM the pool's fork-join
  // wake-ups move multi-threaded solve times by ±10% from run to run,
  // ten times the single-thread spread. --smoke checks that 1 and 4
  // threads give identical outputs.
  opt.threads = 1;
  faircache::util::set_parallel_threads(opt.threads);

  RunOutput out = w.run(opt);
  std::vector<Metric>& result = opt.trace ? out.per_layer : out.end_to_end;
  std::printf("# %s seed=%" PRIu64 " trace=%d threads=%d nproc=%d\n", w.name,
              opt.seed, opt.trace ? 1 : 0, opt.threads, nproc);
  for (const std::vector<Metric>* group : {&result, &out.exact, &out.detail}) {
    for (const Metric& m : *group) std::printf("%s\n", format_line(m).c_str());
  }
  std::printf("attempted %ld count 1\nfailed %ld count 1\n", out.attempted,
              out.failed);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (!record.empty()) {
    std::ofstream file(record);
    file << record_json(w.name, opt, git_sha, nproc, out, result);
    if (!file) std::fprintf(stderr, "could not write %s\n", record.c_str());
  }
  // Metrics are only meaningful from a run whose checks passed; a failed
  // run still reports its counts.
  if (!out.errors.empty()) result.clear();
  std::printf("%s\n", result_json(out.errors.empty(), std::max(1L, out.attempted),
                                  out.failed, result)
                          .c_str());
  std::fflush(stdout);
  return out.errors.empty() ? 0 : 1;
}

// Every workload at toy size, traced, at 1 and 4 library threads: all
// in-run checks, identical fingerprints across thread counts, and the
// churn replay against sim::run_churn. The CI gate for this benchmark.
int run_smoke() {
  const auto start = std::chrono::steady_clock::now();
  int failures = 0;
  for (const Workload& w : workloads()) {
    std::uint64_t fingerprint[2] = {0, 0};
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      faircache::util::set_parallel_threads(threads[i]);
      RunOptions opt;
      opt.seed = w.default_seed;
      opt.seconds = 0.2;
      opt.trace = true;
      opt.toy = true;
      opt.threads = threads[i];
      const RunOutput out = w.run(opt);
      for (const std::string& e : out.errors) {
        std::printf("FAIL %s (threads %d): %s\n", w.name, threads[i],
                    e.c_str());
        ++failures;
      }
      if (out.failed != 0) {
        std::printf("FAIL %s (threads %d): %ld of %ld operations failed\n",
                    w.name, threads[i], out.failed, out.attempted);
        ++failures;
      }
      fingerprint[i] = out.fingerprint;
    }
    if (fingerprint[0] != fingerprint[1]) {
      std::printf("FAIL %s: outputs differ between 1 and 4 threads\n", w.name);
      ++failures;
    } else {
      std::printf("ok   %s %016" PRIx64 "\n", w.name, fingerprint[0]);
    }
  }
  std::vector<std::string> errors;
  check_churn_against_runtime(99, errors);
  for (const std::string& e : errors) std::printf("FAIL churn-repair: %s\n", e.c_str());
  failures += static_cast<int>(errors.size());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("smoke %s in %.1f s\n", failures == 0 ? "passed" : "FAILED",
              seconds);
  return failures == 0 ? 0 : 1;
}

int run_selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL %s\n", what);
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 500) == 50, "p50 of 1..100 is 50");
  expect(percentile(hundred, 990) == 99, "p99 of 1..100 is 99 (rank 99)");
  expect(percentile(hundred, 1000) == 100, "p100 is the maximum");
  expect(percentile(hundred, 1) == 1, "p0.1 of 100 values is the minimum");
  expect(percentile({5, 1, 4, 2, 3}, 500) == 3, "p50 of 5 values is rank 3");
  expect(percentile({1, 2, 3, 4}, 500) == 2, "p50 of 4 values is rank 2");
  expect(percentile({7}, 990) == 7, "any percentile of one value");
  expect(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 900) == 9,
         "p90 of 10 values is rank 9");

  // A 5 ms stall at one request per ms: the three requests behind it wait.
  const std::vector<double> stall =
      open_loop_latencies({1, 5, 1, 1}, /*rate=*/1.0);
  expect(stall == std::vector<double>({1, 5, 5, 5}), "open loop, one stall");
  // At one request per 2 ms the backlog drains by 1 ms per request.
  const std::vector<double> drain = open_loop_latencies({1, 5, 1, 1}, 0.5);
  expect(drain == std::vector<double>({1, 5, 4, 3}), "open loop, draining");
  const std::vector<double> idle = open_loop_latencies({1, 1, 1}, 0.25);
  expect(idle == std::vector<double>({1, 1, 1}), "open loop, no queueing");

  expect(format_line({"op_p50_ms", 1.25, "ms", 30}) == "op_p50_ms 1.25 ms 30",
         "metric line");
  expect(json_number(0.1) == "0.10000000000000001", "every digit kept");
  expect(std::strtod(json_number(1.0 / 3.0).c_str(), nullptr) == 1.0 / 3.0,
         "numbers read back bit-identically");
  expect(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"", "JSON escapes");
  expect(result_json(true, 3, 0, {{"setup_s", 1.5, "s", 5}}) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
         "result line");
  expect(json_metrics({{"a", 2, "count", 4}}, true) ==
             "{\"a\": {\"value\": 2, \"unit\": \"count\", \"samples\": 4}}",
         "record metrics carry sample counts");
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string workload, record, git_sha = "unknown";
  RunOptions opt;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return run_smoke();
    if (arg == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 0);
      seed_given = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
    } else if (arg == "--record") {
      record = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage();
  if (!seed_given) opt.seed = w->default_seed;
  return run_workload(*w, opt, record, git_sha);
}
