// backlog_stream: the paper's overloaded regime (Lemma 1 turns on a large
// backlog |A(t)|). One thread, streaming API only: bulk-admit a 10^5-job
// backlog at t = 0, release it with advance_to(0), then admit Poisson
// arrivals at load 1.0 one at a time, each followed by
// advance_to(release). The same stream runs for isrpt, laps:0.5 and
// equi at m = 16, in kRounds rounds. The working set (~20 MB) is far past a
// core's L2, and each policy loads a different engine layer: LAPS the
// sched ordering, ISRPT the simcore rate pass and advance sweep over
// mostly idle jobs, EQUI the speedup rate evaluation over 10^5 running
// jobs. exec, opt and serve do no work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "harness/probe.hpp"
#include "harness/workloads.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "workload/random.hpp"

namespace perfbench {

namespace {

constexpr int kMachines = 16;
constexpr std::size_t kBacklog = 100000;
/// Every policy's pass runs this many times, the policies taking turns,
/// and its percentiles are taken over the arrivals of all rounds.
constexpr int kRounds = 4;

struct StreamInputs {
  std::vector<parsched::Job> backlog;
  std::vector<parsched::Job> arrivals;
};

StreamInputs make_inputs(std::uint64_t seed, std::size_t arrivals) {
  parsched::BatchWorkloadConfig b;
  b.machines = kMachines;
  b.jobs = kBacklog;
  b.P = 64.0;
  b.size_law = parsched::SizeLaw::kBoundedPareto;
  b.alpha_law = parsched::AlphaLaw::kMixed;
  b.alpha_lo = 0.2;
  b.alpha_hi = 0.8;
  b.seed = seed;
  parsched::RandomWorkloadConfig a;
  a.machines = kMachines;
  a.jobs = arrivals;
  a.P = 64.0;
  a.size_law = parsched::SizeLaw::kBoundedPareto;
  a.alpha_law = parsched::AlphaLaw::kMixed;
  a.alpha_lo = 0.2;
  a.alpha_hi = 0.8;
  a.load = 1.0;
  a.seed = seed ^ 0x5bd1e995ULL;
  StreamInputs in;
  in.backlog = parsched::make_batch_instance(b).jobs();
  in.arrivals = parsched::make_random_instance(a).jobs();
  for (parsched::Job& j : in.arrivals) {
    j.id += static_cast<parsched::JobId>(kBacklog);
  }
  return in;
}

/// One policy's pass over the stream.
struct PolicyPass {
  double setup_s = 0.0;
  double gen_s = 0.0;
  double admit_s = 0.0;
  double initial_release_s = 0.0;
  double stream_s = 0.0;  ///< the timed arrival phase
  std::uint64_t stream_decisions = 0;
  std::vector<double> arrival_ms;      ///< wall clock
  std::vector<double> arrival_cpu_ms;  ///< this thread's CPU clock
  parsched::SimResult result;  ///< partial() after the last arrival
  EngineTally tally;
};

PolicyPass run_policy(const std::string& spec, std::uint64_t seed,
                      std::size_t arrivals, Tracer& tr, EngineProbe* probe) {
  PolicyPass p;
  const double t_setup = now_s();
  const StreamInputs in = make_inputs(seed, arrivals);
  p.gen_s = now_s() - t_setup;

  std::unique_ptr<parsched::Scheduler> sched = parsched::make_scheduler(spec);
  TimedScheduler* timed = nullptr;
  if (tr.on()) {
    auto t = std::make_unique<TimedScheduler>(std::move(sched), &tr);
    timed = t.get();
    sched = std::move(t);
  }
  SampleObserver obs(64, 1000000);
  parsched::Engine eng(kMachines);
  if (tr.on()) eng.add_observer(&obs);
  Tracer::Scope root(tr, "simcore.stream." + policy_label(spec));
  eng.begin(*sched);
  double t0 = now_s();
  {
    Tracer::Scope span(tr, "simcore.admit_backlog");
    for (const parsched::Job& j : in.backlog) eng.admit(j);
  }
  p.admit_s = now_s() - t0;
  t0 = now_s();
  {
    Tracer::Scope span(tr, "simcore.initial_release");
    eng.advance_to(0.0);
  }
  p.initial_release_s = now_s() - t0;
  p.setup_s = now_s() - t_setup;

  const std::uint64_t d0 = eng.partial().decisions;
  const double decide0 = tr.on() ? timed->decide_s() : 0.0;
  const std::uint64_t calls0 = tr.on() ? timed->calls() : 0;
  p.arrival_ms.reserve(in.arrivals.size());
  p.arrival_cpu_ms.reserve(in.arrivals.size());
  const double s0 = now_s();
  for (const parsched::Job& j : in.arrivals) {
    const double a0 = now_s();
    const double c0 = thread_cpu_s();
    {
      Tracer::Scope span(tr, "simcore.admit");
      eng.admit(j);
    }
    {
      Tracer::Scope span(tr, "simcore.advance_to");
      eng.advance_to(j.release);
    }
    p.arrival_cpu_ms.push_back((thread_cpu_s() - c0) * 1e3);
    p.arrival_ms.push_back((now_s() - a0) * 1e3);
  }
  p.stream_s = now_s() - s0;
  p.result = eng.partial();
  p.stream_decisions = p.result.decisions - d0;
  if (tr.on()) {
    p.tally.decisions = p.stream_decisions;
    p.tally.events = p.result.events;
    p.tally.completions = p.result.records.size();
    p.tally.alive_sum = obs.alive_sum();
    p.tally.nonzero = obs.nonzero();
    p.tally.engine_s = p.stream_s;
    p.tally.decide_calls = timed->calls() - calls0;
    p.tally.decide_s = timed->decide_s() - decide0;
    probe->add(spec, p.tally, std::move(obs.samples()));
  }
  return p;
}

}  // namespace

std::size_t backlog_arrivals_for(double seconds) {
  // kRounds passes of 15 arrivals per second for each of the three
  // policies: 1800 arrivals per policy at 30 s, enough for a p99 with 10
  // samples beyond it.
  return std::max<std::size_t>(20, static_cast<std::size_t>(seconds * 15.0));
}

RunResult run_backlog_stream(const RunConfig& cfg) {
  RunResult res;
  const std::size_t arrivals = backlog_arrivals_for(cfg.seconds);

  std::vector<double> setup;
  // Two stand-alone set-ups beside the per-policy ones of every round,
  // so the reported set-up time is a median of fourteen. The first one
  // also gives the resident memory an admitted job costs: it runs before anything
  // else has grown the heap, so freed memory cannot hide the growth.
  double bytes_per_job = 0.0;
  for (int i = 0; i < 2; ++i) {
    const double t0 = now_s();
    const StreamInputs in = make_inputs(cfg.seed, arrivals);
    auto sched = parsched::make_scheduler("isrpt");
    parsched::Engine eng(kMachines);
    eng.begin(*sched);
    const double rss0 = current_rss_bytes();
    for (const parsched::Job& j : in.backlog) eng.admit(j);
    eng.advance_to(0.0);
    if (i == 0) bytes_per_job = (current_rss_bytes() - rss0) / static_cast<double>(kBacklog);
    setup.push_back(now_s() - t0);
  }

  // kRounds rounds of the three passes. The speed of a shared host drifts
  // over seconds to minutes; taking turns spreads each policy's samples
  // over the whole run instead of one stretch of it. The rounds must
  // agree bit for bit.
  Tracer off(false);
  std::vector<double> gen;
  std::vector<double> admit_ns;
  std::vector<double> initial;
  std::map<std::string, std::vector<PolicyPass>> rounds;
  for (int k = 0; k < kRounds; ++k) {
    for (const std::string& spec : probe_policies()) {
      PolicyPass p = run_policy(spec, cfg.seed, arrivals, off, nullptr);
      res.attempted += arrivals;
      setup.push_back(p.setup_s);
      gen.push_back(p.gen_s);
      admit_ns.push_back(p.admit_s * 1e9 / static_cast<double>(kBacklog));
      initial.push_back(p.initial_release_s);
      rounds[policy_label(spec)].push_back(std::move(p));
    }
  }
  double stream_s = 0.0;
  std::uint64_t decisions = 0;
  std::map<std::string, PolicyPass> passes;  // every round's timings
  for (auto& [l, ps] : rounds) {
    PolicyPass all = std::move(ps.front());
    const parsched::SimResult& r = all.result;
    res.expect(cfg, l + ".completions", std::to_string(r.records.size()));
    res.expect(cfg, l + ".decisions", std::to_string(r.decisions));
    res.expect(cfg, l + ".total_flow", hex_bits(r.total_flow));
    char frac[40];
    std::snprintf(frac, sizeof frac, "%.17g", r.fractional_flow);
    res.expect(cfg, l + ".fractional_flow", frac);
    for (std::size_t k = 1; k < ps.size(); ++k) {
      const PolicyPass& p = ps[k];
      if (p.result.records.size() != r.records.size() ||
          p.result.decisions != r.decisions ||
          bits_of(p.result.total_flow) != bits_of(r.total_flow) ||
          bits_of(p.result.fractional_flow) != bits_of(r.fractional_flow)) {
        res.fail(l + ": round " + std::to_string(k) + " differs from round 0");
      }
      all.stream_s += p.stream_s;
      all.stream_decisions += p.stream_decisions;
      all.arrival_ms.insert(all.arrival_ms.end(), p.arrival_ms.begin(),
                            p.arrival_ms.end());
      all.arrival_cpu_ms.insert(all.arrival_cpu_ms.end(),
                                p.arrival_cpu_ms.begin(), p.arrival_cpu_ms.end());
    }
    stream_s += all.stream_s;
    decisions += all.stream_decisions;
    passes.emplace(l, std::move(all));
  }

  // The gated latencies use the thread's CPU clock: the work is one
  // compute-bound thread, and on a shared virtual machine the wall clock
  // also counts whatever the hypervisor steals (up to a third of a run).
  // Each policy's percentiles are taken on its own arrivals, and the gated
  // figure is their geometric mean, so a speed-up of any one policy moves
  // it by the same share: pooled, the costly laps arrivals would all sit
  // above the median and the cheap equi ones below the p99. The gated
  // tail is the p90: laps and equi do the same work on every arrival, so
  // their p99 is set by the host's rarest stalls, while isrpt's costly
  // arrivals (a quarter of them) lie above its p90 as well.
  const double per_s = static_cast<double>(decisions) / stream_s;
  res.report = {{"decisions_per_s", per_s, "1/s", decisions}};
  struct Geo {
    double log_sum = 0.0;
    int terms = 0;
    std::size_t n = 0;
    void add(const Percentile& p) {
      log_sum += std::log(p.value);
      ++terms;
      n += p.n;
    }
    [[nodiscard]] double value() const {
      return std::exp(log_sum / static_cast<double>(terms));
    }
  };
  Geo cpu50;
  Geo cpu90;
  Geo cpu99;
  Geo wall50;
  Geo wall99;
  for (const auto& [l, p] : passes) {
    const Percentile c50 = tail(p.arrival_cpu_ms, 0.5);
    const Percentile c90 = tail(p.arrival_cpu_ms, 0.9);
    const Percentile c99 = tail(p.arrival_cpu_ms, 0.99);
    cpu50.add(c50);
    cpu90.add(c90);
    cpu99.add(c99);
    wall50.add(tail(p.arrival_ms, 0.5));
    wall99.add(tail(p.arrival_ms, 0.99));
    res.report.push_back({"advance_ms." + l + ".p50", c50.value, "ms", c50.n});
    res.report.push_back({"advance_ms." + l + ".p90", c90.value, "ms", c90.n});
    res.report.push_back({"advance_ms." + l + ".p99", c99.value, "ms", c99.n});
    res.report.push_back({"stream_s." + l, p.stream_s, "s", 0});
    res.report.push_back(
        {"decisions." + l, static_cast<double>(p.stream_decisions), "count", 0});
  }
  const std::vector<Metric> summary = {
      {"advance_ms.p50", cpu50.value(), "ms", cpu50.n},
      {"advance_ms.p90", cpu90.value(), "ms", cpu90.n},
      {"advance_ms.p99", cpu99.value(), "ms", cpu99.n},
      {"advance_wall_ms.p50", wall50.value(), "ms", wall50.n},
      {"advance_wall_ms.p99", wall99.value(), "ms", wall99.n},
      {"failed_frac", 0.0, "ratio", res.attempted},
  };
  res.report.insert(res.report.begin() + 1, summary.begin(), summary.end());
  res.put(res.e2e, {"setup_s", median(setup), "s", setup.size()});
  res.put(res.e2e, {"throughput_per_s", per_s, "1/s", decisions});
  res.put(res.e2e, {"latency_ms.p50", cpu50.value(), "ms", cpu50.n});
  res.put(res.e2e, {"latency_ms.tail", cpu90.value(), "ms", cpu90.n});
  if (!cfg.trace) return res;

  // Traced run: one more round of the three passes, traced and probed.
  Tracer tr(true);
  EngineProbe probe;
  double traced_s = 0.0;
  for (const std::string& spec : probe_policies()) {
    PolicyPass p = run_policy(spec, cfg.seed, arrivals, tr, &probe);
    traced_s += p.stream_s;
    const std::string l = policy_label(spec);
    if (hex_bits(p.result.total_flow) !=
            hex_bits(passes.at(l).result.total_flow) ||
        p.result.decisions != passes.at(l).result.decisions) {
      res.fail(l + ": traced pass differs from the untraced one");
    }
  }
  for (const Metric& m : engine_layer_metrics(probe, 1.0)) res.put(res.layers, m);
  const std::vector<Metric> layers = {
      {"workload.gen_s", median(gen), "s", gen.size()},
      {"workload.jobs", static_cast<double>(kBacklog + arrivals), "count", 0},
      {"simcore.admit_ns_per_job", median(admit_ns), "ns", kBacklog},
      {"simcore.initial_release_s", median(initial), "s", initial.size()},
      {"simcore.bytes_per_alive_job", bytes_per_job, "bytes", kBacklog},
      {"trace.overhead_pct", 100.0 * (traced_s * kRounds - stream_s) / stream_s,
       "%", 0},
  };
  for (const Metric& m : layers) res.put(res.layers, m);
  write_trace(tr, cfg.out_dir + "/backlog_stream.trace.json", res);
  return res;
}

}  // namespace perfbench
