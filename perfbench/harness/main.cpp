// perfbench_runner — runs one workload and prints its result.
//
//   perfbench_runner --workload <ratio_sweep|backlog_stream|serve_mixed>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--expected <file>] [--out <dir>] [--record]
//
// Human-readable metric lines go first; the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (the traced run also writes <out>/<workload>.trace.json
// and <out>/<workload>.layers.json). Exit code 0 when every output check
// passed; 1 when one failed (the JSON line, with "correct": false, is
// still printed), 2 for bad arguments and 3 when a metric is missing.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/workloads.hpp"

namespace {

using perfbench::Metric;

/// BENCHMARK.json's end-to-end metrics, in order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "throughput_per_s", "latency_ms.p50",
    "latency_ms.tail"};

/// BENCHMARK.json's per-layer metrics: every one is measured on every
/// workload (counts and ratios of a layer a workload does not use read 0).
const std::vector<std::string> kPerLayer = {
    "workload.gen_s",
    "workload.jobs",
    "simcore.admit_ns_per_job",
    "simcore.decisions",
    "simcore.events",
    "simcore.completions",
    "simcore.alive_mean",
    "simcore.step_self_us.isrpt",
    "simcore.step_self_us.laps",
    "simcore.step_self_us.equi",
    "sched.decide_us.isrpt",
    "sched.decide_us.laps",
    "sched.decide_us.equi",
    "sched.decide_s",
    "sched.decide_share",
    "speedup.rate_ns_per_elem",
    "speedup.nonzero_share_frac.isrpt",
    "speedup.nonzero_share_frac.laps",
    "speedup.nonzero_share_frac.equi",
    "speedup.bytes_per_step",
    "opt.portfolio_share",
    "exec.idle_frac",
    "exec.steals",
    "serve.bytes_per_req.ndjson",
    "serve.bytes_per_req.pbin",
    "serve.queue_depth.max",
    "serve.rejects",
    "obs.exposition_bytes",
    "trace.overhead_pct",
};

/// Units of the per-layer metrics that read 0 on workloads that do not
/// exercise their layer.
const std::map<std::string, std::string> kZeroWhenUnused = {
    {"opt.portfolio_share", "ratio"},     {"exec.idle_frac", "ratio"},
    {"exec.steals", "count"},             {"serve.bytes_per_req.ndjson", "bytes"},
    {"serve.bytes_per_req.pbin", "bytes"}, {"serve.queue_depth.max", "count"},
    {"serve.rejects", "count"},           {"obs.exposition_bytes", "bytes"},
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::map<std::string, std::string> load_expected(const std::string& path,
                                                 double seconds,
                                                 std::uint64_t seed) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    double s = 0.0;
    std::uint64_t sd = 0;
    if (!(ls >> s >> sd) || s != seconds || sd != seed) continue;
    std::string tok;
    while (ls >> tok) {
      const auto eq = tok.find('=');
      if (eq != std::string::npos) out[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload W "
               "--seed N --seconds S --trace 0|1 [--expected FILE] "
               "[--out DIR] [--record]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string expected_path;
  perfbench::RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--expected") {
        expected_path = value();
      } else if (a == "--out") {
        cfg.out_dir = value();
      } else if (a == "--record") {
        cfg.record = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_seed || !(cfg.seconds > 0.0)) return usage("need --seed and --seconds > 0");
  if (!expected_path.empty()) {
    cfg.expected = load_expected(expected_path, cfg.seconds, cfg.seed);
  }

  perfbench::RunResult res;
  if (workload == "ratio_sweep") {
    res = perfbench::run_ratio_sweep(cfg);
  } else if (workload == "backlog_stream") {
    res = perfbench::run_backlog_stream(cfg);
  } else if (workload == "serve_mixed") {
    res = perfbench::run_serve_mixed(cfg);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (res.e2e.count("peak_rss_mb") == 0) {
    res.put(res.e2e, {"peak_rss_mb", perfbench::peak_rss_mib(), "MiB", 0});
  }

  if (cfg.record) {
    std::cout << "EXPECT " << num(cfg.seconds) << ' ' << cfg.seed;
    for (const std::string& tok : res.digest) std::cout << ' ' << tok;
    std::cout << '\n';
  } else if (cfg.expected.empty()) {
    std::cout << "note: no recorded outputs for seconds=" << num(cfg.seconds)
              << " seed=" << cfg.seed
              << "; output checks ran without the recorded digest\n";
  }
  for (const std::string& e : res.errors) std::cout << "CHECK FAILED: " << e << '\n';

  // Human-readable lines: the workload's own names, then the metrics.
  for (const Metric& m : res.report) {
    std::cout << workload << ' ' << m.name << ' ' << num(m.value) << ' ' << m.unit;
    if (m.n > 0) std::cout << " (n=" << m.n << ')';
    std::cout << '\n';
  }
  if (cfg.trace) {
    for (const auto& [unused, unit] : kZeroWhenUnused) {
      if (res.layers.count(unused) == 0) res.layers[unused] = {unused, 0.0, unit, 0};
    }
    std::ofstream lf(cfg.out_dir + "/" + workload + ".layers.json");
    lf << "{";
    bool first = true;
    for (const auto& [name, m] : res.layers) {
      std::cout << workload << " layer " << name << ' ' << num(m.value) << ' '
                << m.unit;
      if (m.n > 0) std::cout << " (n=" << m.n << ')';
      std::cout << '\n';
      lf << (first ? "" : ",") << "\n  \"" << name << "\": {\"value\": "
         << num(m.value) << ", \"unit\": \"" << m.unit << "\", \"n\": " << m.n
         << "}";
      first = false;
    }
    lf << "\n}\n";
  }

  const auto& chosen = cfg.trace ? kPerLayer : kEndToEnd;
  const auto& source = cfg.trace ? res.layers : res.e2e;
  std::ostringstream js;
  js << "{\"correct\": " << (res.correct ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto it = source.find(chosen[i]);
    if (it == source.end()) {
      std::fprintf(stderr, "perfbench_runner: %s did not measure %s\n",
                   workload.c_str(), chosen[i].c_str());
      return 3;
    }
    js << (i ? ", " : "") << '"' << chosen[i] << "\": {\"value\": "
       << num(it->second.value) << ", \"unit\": \"" << it->second.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  // The metrics are printed either way; a failed output check still
  // fails the command.
  return res.correct ? 0 : 1;
}
