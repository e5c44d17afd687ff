// perfbench — ratio_sweep internals, exposed for the benchmark's tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/sweep.hpp"
#include "harness/probe.hpp"
#include "harness/trace.hpp"
#include "simcore/instance.hpp"
#include "workload/adversary.hpp"

namespace perfbench {

/// One sweep task: a random online instance scored against OPT, or a
/// Section-4 adaptive-adversary point.
struct SweepTask {
  std::optional<parsched::Instance> instance;
  parsched::AdversaryConfig adversary;
};

struct TaskOutcome {
  bool ok = false;
  double alg_flow = 0.0;
  std::uint64_t decisions = 0;  ///< ALG decisions (0 for adversary points)
  std::uint64_t jobs = 0;
  double opt_lower = 0.0;
  double opt_upper = 0.0;
  double task_s = 0.0;      ///< wall clock
  double task_cpu_s = 0.0;  ///< the worker thread's CPU clock
  double lower_bound_s = 0.0;
  double portfolio_s = 0.0;
};

struct SweepOutcome {
  std::vector<TaskOutcome> tasks;
  parsched::exec::SweepStats stats;
  double wall_s = 0.0;
  std::uint64_t digest = 0;  ///< (alg_flow, decisions) folded in task order
};

/// The task list for a seed: about three quarters random instances
/// (m = 16, `jobs` jobs, load 0.95, bounded-Pareto sizes with P = 64,
/// mixed alpha in 0.2-0.8), the rest adversary points at a few P.
[[nodiscard]] std::vector<SweepTask> make_sweep_tasks(std::uint64_t seed,
                                                      std::size_t count,
                                                      std::size_t jobs);

/// Score every task on an exec::SweepRunner with `threads` workers.
/// With `tracer` on, each task records spans and the engine runs go
/// through the probes (`probe` must then be set).
[[nodiscard]] SweepOutcome run_sweep(const std::vector<SweepTask>& tasks,
                                     int threads, Tracer& tracer,
                                     EngineProbe* probe);

}  // namespace perfbench
