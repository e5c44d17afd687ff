// ratio_sweep: the closed batch E1-E18 run all day. Random online
// instances are scored like compare_to_opt does it (ALG's simulation,
// opt_lower_bound, run_portfolio), mixed with run_adversary_point calls,
// on an exec::SweepRunner with two workers. The alive set stays
// Theta(m), so this measures per-decision overhead, the portfolio's
// policies (Greedy's reconsideration-heavy decide, Par-SRPT's starved
// backlog), opt and the exec pool, not the large-n engine paths.
#include "harness/ratio_sweep.hpp"

#include <cstdio>
#include <string>

#include "analysis/adversary_eval.hpp"
#include "harness/workloads.hpp"
#include "sched/opt/portfolio.hpp"
#include "sched/opt/relaxations.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "workload/random.hpp"

namespace perfbench {

namespace {

constexpr int kMachines = 16;
constexpr int kThreads = 2;
constexpr std::size_t kJobs = 4000;
constexpr double kAdversaryP[] = {16.0, 32.0, 64.0};

parsched::SimResult simulate_probed(const parsched::Instance& inst,
                                    const std::string& spec, Tracer& tr,
                                    EngineProbe& probe) {
  TimedScheduler sched(parsched::make_scheduler(spec));
  SampleObserver obs(97, 20000);
  Tracer::Scope span(tr, "simcore.simulate");
  const double t0 = now_s();
  parsched::SimResult r = parsched::simulate(inst, sched, {}, {&obs});
  EngineTally t;
  t.decisions = r.decisions;
  t.events = r.events;
  t.completions = r.records.size();
  t.alive_sum = obs.alive_sum();
  t.nonzero = obs.nonzero();
  t.engine_s = now_s() - t0;
  t.decide_s = sched.decide_s();
  t.decide_calls = sched.calls();
  probe.add(spec, t, std::move(obs.samples()));
  return r;
}

TaskOutcome score_instance(const parsched::Instance& inst, Tracer& tr,
                           EngineProbe* probe) {
  TaskOutcome out;
  if (!tr.on()) {
    auto sched = parsched::make_scheduler("isrpt");
    const parsched::SimResult alg = parsched::simulate(inst, *sched);
    out.alg_flow = alg.total_flow;
    out.decisions = alg.decisions;
    out.jobs = alg.jobs();
    double t0 = now_s();
    out.opt_lower = parsched::opt_lower_bound(inst);
    out.lower_bound_s = now_s() - t0;
    t0 = now_s();
    out.opt_upper = parsched::run_portfolio(inst).best_flow;
    out.portfolio_s = now_s() - t0;
    return out;
  }
  // Traced: the same three steps, with run_portfolio unrolled into its
  // per-policy simulations so each policy's engine runs are probed.
  const parsched::SimResult alg = simulate_probed(inst, "isrpt", tr, *probe);
  out.alg_flow = alg.total_flow;
  out.decisions = alg.decisions;
  out.jobs = alg.jobs();
  double t0 = now_s();
  {
    Tracer::Scope span(tr, "opt.lower_bound");
    out.opt_lower = parsched::opt_lower_bound(inst);
  }
  out.lower_bound_s = now_s() - t0;
  t0 = now_s();
  {
    Tracer::Scope span(tr, "opt.portfolio");
    double best = 0.0;
    bool first = true;
    for (const std::string& spec : parsched::standard_policy_names()) {
      const double f = simulate_probed(inst, spec, tr, *probe).total_flow;
      if (first || f < best) best = f;
      first = false;
    }
    out.opt_upper = best;
  }
  out.portfolio_s = now_s() - t0;
  return out;
}

}  // namespace

std::vector<SweepTask> make_sweep_tasks(std::uint64_t seed, std::size_t count,
                                        std::size_t jobs) {
  std::vector<SweepTask> tasks(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 4 == 3) {
      parsched::AdversaryConfig a;
      a.machines = kMachines;
      a.P = kAdversaryP[(i / 4) % std::size(kAdversaryP)];
      a.alpha = 0.5;
      tasks[i].adversary = a;
      continue;
    }
    parsched::RandomWorkloadConfig c;
    c.machines = kMachines;
    c.jobs = jobs;
    c.P = 64.0;
    c.size_law = parsched::SizeLaw::kBoundedPareto;
    c.alpha_law = parsched::AlphaLaw::kMixed;
    c.alpha_lo = 0.2;
    c.alpha_hi = 0.8;
    c.load = 0.95;
    c.seed = parsched::exec::task_seed(seed, i);
    tasks[i].instance = parsched::make_random_instance(c);
  }
  return tasks;
}

SweepOutcome run_sweep(const std::vector<SweepTask>& tasks, int threads,
                       Tracer& tracer, EngineProbe* probe) {
  SweepOutcome out;
  parsched::exec::SweepRunner runner({.jobs = threads});
  const std::int64_t map_span = tracer.on() ? tracer.begin("exec.map") : -1;
  const double t0 = now_s();
  out.tasks = runner.map<TaskOutcome>(
      tasks.size(), [&](const parsched::exec::TaskContext& ctx) {
        const SweepTask& task = tasks[ctx.index];
        TaskOutcome r;
        const double ts = now_s();
        const double cs = thread_cpu_s();
        try {
          if (task.instance) {
            Tracer::Scope span(tracer, "analysis.task", ctx.index + 1,
                               map_span);
            r = score_instance(*task.instance, tracer, probe);
          } else {
            Tracer::Scope span(tracer, "analysis.adversary_point",
                               ctx.index + 1, map_span);
            const parsched::AdversaryPoint p =
                parsched::run_adversary_point("isrpt", task.adversary);
            r.alg_flow = p.alg_flow;
            r.jobs = p.jobs;
            r.opt_lower = p.opt_lower;
            r.opt_upper = p.opt_upper;
          }
          r.ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ratio_sweep: task %zu threw: %s\n", ctx.index,
                       e.what());
          r.ok = false;
        }
        r.task_s = now_s() - ts;
        r.task_cpu_s = thread_cpu_s() - cs;
        return r;
      });
  out.wall_s = now_s() - t0;
  if (map_span >= 0) tracer.end(map_span);
  out.stats = runner.last_stats();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const TaskOutcome& r : out.tasks) {
    h = fold(h, bits_of(r.alg_flow));
    h = fold(h, r.decisions);
  }
  out.digest = h;
  return out;
}

std::size_t sweep_tasks_for(double seconds) {
  return std::max<std::size_t>(8, static_cast<std::size_t>(5.0 * seconds));
}

RunResult run_ratio_sweep(const RunConfig& cfg) {
  RunResult res;
  const std::size_t count = sweep_tasks_for(cfg.seconds);

  // Set-up: generating the task inputs, several times; the last copy is
  // the one scored.
  std::vector<double> setup;
  std::vector<SweepTask> tasks;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    tasks = make_sweep_tasks(cfg.seed, count, kJobs);
    setup.push_back(now_s() - t0);
  }
  std::uint64_t total_jobs = 0;
  for (const SweepTask& t : tasks) total_jobs += t.instance ? t.instance->size() : 0;

  Tracer off(false);
  const SweepOutcome run = run_sweep(tasks, kThreads, off, nullptr);
  res.attempted = count;
  for (std::size_t i = 0; i < run.tasks.size(); ++i) {
    const TaskOutcome& r = run.tasks[i];
    if (!r.ok) {
      ++res.failed;
      res.fail("task " + std::to_string(i) + " threw");
      continue;
    }
    if (!(r.opt_lower <= r.opt_upper && r.opt_upper <= r.alg_flow)) {
      res.fail("task " + std::to_string(i) +
               ": opt_lower <= opt_upper <= alg_flow does not hold");
    }
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(run.digest));
  res.expect(cfg, "digest", digest);

  // Task latencies on the worker's CPU clock: a task is compute-bound on
  // one thread, and the wall clock also counts time the hypervisor of a
  // shared virtual machine steals. Wall-clock figures are printed too.
  std::vector<double> task_ms;
  std::vector<double> task_wall_ms;
  for (const TaskOutcome& r : run.tasks) {
    task_ms.push_back(r.task_cpu_s * 1e3);
    task_wall_ms.push_back(r.task_s * 1e3);
  }
  const Percentile p50 = tail(task_ms, 0.5);
  const Percentile p90 = tail(task_ms, 0.9);
  const double per_s = static_cast<double>(count) / run.wall_s;
  res.put(res.e2e, {"setup_s", median(setup), "s", setup.size()});
  res.put(res.e2e, {"throughput_per_s", per_s, "1/s", count});
  res.put(res.e2e, {"latency_ms.p50", p50.value, "ms", p50.n});
  res.put(res.e2e, {"latency_ms.tail", p90.value, "ms", p90.n});
  res.report = {
      {"sweep_instances_per_s", per_s, "1/s", count},
      {"analysis.task_ms.p50", p50.value, "ms", p50.n},
      {"analysis.task_ms.p90", p90.value, "ms", p90.n},
      {"analysis.task_wall_ms.p50", tail(task_wall_ms, 0.5).value, "ms", count},
      {"analysis.task_wall_ms.p90", tail(task_wall_ms, 0.9).value, "ms", count},
      {"failed_frac", static_cast<double>(res.failed) / static_cast<double>(count),
       "ratio", count},
  };
  if (!cfg.trace) return res;

  // Traced run: the same tasks again, traced and probed.
  Tracer tr(true);
  EngineProbe probe;
  const SweepOutcome traced = run_sweep(tasks, kThreads, tr, &probe);
  if (traced.digest != run.digest) {
    res.fail("traced sweep digest differs from the untraced one");
  }
  std::vector<double> task_s;
  double lb_s = 0.0;
  double pf_s = 0.0;
  double busy_s = 0.0;
  std::size_t scored = 0;
  for (const TaskOutcome& r : traced.tasks) {
    task_s.push_back(r.task_s);
    lb_s += r.lower_bound_s;
    pf_s += r.portfolio_s;
    if (r.decisions > 0) {
      busy_s += r.task_s;
      ++scored;
    }
  }
  // Engine::admit on the same jobs, outside the sweep (the sweep's
  // engines admit inside run()).
  double admit_s = 0.0;
  std::size_t admitted = 0;
  for (const SweepTask& t : tasks) {
    if (!t.instance) continue;
    Tracer::Scope span(tr, "simcore.admit");
    auto sched = parsched::make_scheduler("isrpt");
    parsched::Engine eng(kMachines);
    eng.begin(*sched);
    const double t0 = now_s();
    for (const parsched::Job& j : t.instance->jobs()) eng.admit(j);
    admit_s += now_s() - t0;
    admitted += t.instance->size();
  }
  for (const Metric& m : engine_layer_metrics(probe, 1.0)) res.put(res.layers, m);
  const auto& st = traced.stats;
  const std::vector<Metric> layers = {
      {"workload.gen_s", median(setup), "s", setup.size()},
      {"workload.jobs", static_cast<double>(total_jobs), "count", 0},
      {"simcore.admit_ns_per_job", admit_s * 1e9 / static_cast<double>(admitted),
       "ns", admitted},
      {"opt.lower_bound_ms", lb_s * 1e3 / static_cast<double>(scored), "ms",
       scored},
      {"opt.portfolio_s", pf_s / static_cast<double>(scored), "s", scored},
      {"opt.portfolio_share", busy_s > 0.0 ? pf_s / busy_s : 0.0, "ratio",
       scored},
      {"analysis.task_s.p50", tail(task_s, 0.5).value, "s", task_s.size()},
      {"analysis.task_s.max",
       *std::max_element(task_s.begin(), task_s.end()), "s", task_s.size()},
      {"exec.idle_frac", st.idle_fraction(), "ratio", 0},
      {"exec.steals", static_cast<double>(st.steals), "count", 0},
      {"exec.merge_s", st.merge_seconds, "s", 0},
      {"exec.task_s_sum", st.task_seconds, "s", st.tasks},
      {"trace.overhead_pct", 100.0 * (traced.wall_s - run.wall_s) / run.wall_s,
       "%", 0},
  };
  for (const Metric& m : layers) res.put(res.layers, m);
  write_trace(tr, cfg.out_dir + "/ratio_sweep.trace.json", res);
  return res;
}

}  // namespace perfbench
