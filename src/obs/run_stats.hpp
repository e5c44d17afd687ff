// parsched — per-run engine profiling buckets.
//
// When EngineConfig::collect_stats is set, the engine splits each run's
// wall time into three buckets and fills two histograms, returning the
// result as SimResult::stats. With the flag off (the default) the hot
// path takes one predictable branch per decision and RunStats is never
// even constructed — the uninstrumented path stays zero-overhead.
//
// Bucket semantics:
//   decide_seconds    time inside Scheduler::allocate()
//   observer_seconds  time inside Observer::on_decision callbacks
//   solver_seconds    everything else in the event loop: exact event-time
//                     solving, state advance, completions, and every
//                     admission pass — the ones that follow a decision
//                     step, the run's first one and the ones after an
//                     idle jump alike (on_arrival/on_completion callbacks
//                     included)
//   wall_seconds      whole run; >= the sum of the three buckets
//
// Two sub-buckets of solver_seconds name the layers a decision step
// spends it in (they never leave it, so rates + sweep <= solver):
//   rates_seconds     share validation, Γ rates and the event-time minimum
//                     of each fresh decision (Engine::compute_rates)
//   sweep_seconds     the advance sweep through completion bookkeeping
//                     (remaining work, fractional flow, phase changes,
//                     the completion swap-remove), on_completion
//                     callbacks excluded
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace parsched::obs {

/// Decision-interval histogram bounds (seconds of simulated time,
/// log-spaced): adversarial instances produce dt down to the engine's
/// time tolerance, random ones cluster around the mean service time.
[[nodiscard]] inline std::vector<double> decision_interval_bounds() {
  return {1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4};
}

/// Alive-count histogram bounds (jobs): every power of two from 1 to
/// 2^20. The paper's adversary sustains Θ(m log P) backlog and random
/// critical load Θ(m), while the dense-alive and backlog benchmarks run
/// at 10^5–10^6 alive jobs.
[[nodiscard]] inline std::vector<double> alive_count_bounds() {
  std::vector<double> bounds;
  for (int e = 0; e <= 20; ++e) bounds.push_back(static_cast<double>(1 << e));
  return bounds;
}

struct RunStats {
  double wall_seconds = 0.0;
  double decide_seconds = 0.0;
  double solver_seconds = 0.0;
  double observer_seconds = 0.0;
  double rates_seconds = 0.0;  ///< part of solver_seconds
  double sweep_seconds = 0.0;  ///< part of solver_seconds

  std::uint64_t decisions = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  /// Jobs the advance sweeps touched: the running jobs of every decision
  /// plus each fresh job with a rate-0 event. Idle jobs are not visited,
  /// so an SRPT-style run stays near m per decision at any backlog.
  std::uint64_t visited_jobs = 0;

  /// Simulated time between consecutive decision points.
  HistogramData decision_interval{decision_interval_bounds()};
  /// Alive-job count at each decision point.
  HistogramData alive_count{alive_count_bounds()};
};

}  // namespace parsched::obs
