// perfbench — the three workloads and what each run reports.
//
// Every workload builds its inputs from the seed alone, runs them
// through the library's public API, checks the outputs, and fills a
// RunResult. The amount of work in a run is a fixed function of
// --seconds (calibrated so a run measures about that long on a 4-core
// machine), so a (seconds, seed) pair always produces the same inputs
// and the same outputs, which expected/<workload>.txt records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/stats.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the trace and per-layer files of a traced run.
  std::string out_dir = ".";
  /// Recorded outputs: the "key=value" tokens for this (seconds, seed),
  /// empty when none were recorded.
  std::map<std::string, std::string> expected;
  /// Print the outputs to record instead of checking them.
  bool record = false;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The end-to-end metrics under BENCHMARK.json's names.
  std::map<std::string, Metric> e2e;
  /// Every per-layer metric this workload measured (traced run).
  std::map<std::string, Metric> layers;
  /// Human-readable lines: the workload's own names for its numbers.
  std::vector<Metric> report;
  /// "key=value" outputs to record for this (seconds, seed).
  std::vector<std::string> digest;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void put(std::map<std::string, Metric>& into, const Metric& m) {
    into[m.name] = m;
  }
  /// Compare an output token against the recorded one (when recorded).
  void expect(const RunConfig& cfg, const std::string& key,
              const std::string& got);
};

[[nodiscard]] RunResult run_ratio_sweep(const RunConfig& cfg);
[[nodiscard]] RunResult run_backlog_stream(const RunConfig& cfg);
[[nodiscard]] RunResult run_serve_mixed(const RunConfig& cfg);

/// Hex of a double's bits (exact, for digests).
[[nodiscard]] std::string hex_bits(double v);
/// FNV-1a style 64-bit mixing used to fold per-task outputs into one
/// digest, in task order.
[[nodiscard]] std::uint64_t fold(std::uint64_t h, std::uint64_t v);
[[nodiscard]] std::uint64_t bits_of(double v);

class Tracer;
/// End a traced run: write the spans to `path` as Chrome trace-event JSON
/// and add each span name's total self time (its spans' durations minus
/// the parts their children cover) to the per-layer numbers as
/// self_s.<span name>.
void write_trace(const Tracer& tr, const std::string& path, RunResult& res);

/// Work sizes derived from --seconds.
[[nodiscard]] std::size_t sweep_tasks_for(double seconds);
[[nodiscard]] std::size_t backlog_arrivals_for(double seconds);

}  // namespace perfbench
