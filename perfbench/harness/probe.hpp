// perfbench — engine-level probes used only by the traced run.
//
// TimedScheduler is a forwarding Scheduler that times every allocate()
// call (the `sched` layer); SampleObserver is an Observer that counts
// what each decision asked of the rate kernel and keeps a sample of the
// (kind, alpha, share) arrays so speedup::rate_batch can be replayed on
// them afterwards (the `speedup` layer). Neither exists in the untraced
// run, so the end-to-end numbers never pay for them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "simcore/observer.hpp"
#include "simcore/scheduler.hpp"

namespace perfbench {

/// Per-policy engine counters gathered by the probes.
struct EngineTally {
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double alive_sum = 0.0;     ///< summed alive count over decisions
  double nonzero = 0.0;       ///< shares > 0 over decisions
  double engine_s = 0.0;      ///< time inside the engine's stepping calls
  double decide_s = 0.0;      ///< time inside Scheduler::allocate
  std::uint64_t decide_calls = 0;

  void merge(const EngineTally& o);
};

class TimedScheduler final : public parsched::Scheduler {
 public:
  /// With `spans` set, each allocate() also records a "sched.allocate"
  /// span under the caller's open span.
  explicit TimedScheduler(std::unique_ptr<parsched::Scheduler> inner,
                          Tracer* spans = nullptr)
      : inner_(std::move(inner)), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void allocate(const parsched::SchedulerContext& ctx,
                parsched::Allocation& out) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string save_state() const override {
    return inner_->save_state();
  }
  void load_state(const std::string& state) override {
    inner_->load_state(state);
  }

  [[nodiscard]] double decide_s() const { return decide_s_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<parsched::Scheduler> inner_;
  Tracer* spans_;
  double decide_s_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// The (kind, alpha, share) arrays of one sampled decision.
struct RateSample {
  std::vector<std::uint8_t> kind;
  std::vector<double> alpha;
  std::vector<double> share;
};

class SampleObserver final : public parsched::Observer {
 public:
  /// Keep every `stride`-th decision's arrays, up to `max_elems` elements.
  SampleObserver(std::uint64_t stride, std::size_t max_elems)
      : stride_(stride), max_elems_(max_elems) {}

  void on_decision(double t, std::span<const parsched::AliveJob> alive,
                   std::span<const double> shares) override;

  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] double alive_sum() const { return alive_sum_; }
  [[nodiscard]] double nonzero() const { return nonzero_; }
  [[nodiscard]] std::vector<RateSample>& samples() { return samples_; }

 private:
  std::uint64_t stride_;
  std::size_t max_elems_;
  std::size_t kept_ = 0;
  std::uint64_t decisions_ = 0;
  double alive_sum_ = 0.0;
  double nonzero_ = 0.0;
  std::vector<RateSample> samples_;
};

/// Replay speedup::rate_batch over the samples until about `budget_s`
/// seconds have passed; returns nanoseconds per element (0 when empty).
[[nodiscard]] double replay_rate_ns_per_elem(
    const std::vector<RateSample>& samples, double budget_s);

/// Thread-safe collection of tallies and rate samples per policy.
class EngineProbe {
 public:
  void add(const std::string& policy, const EngineTally& t,
           std::vector<RateSample> samples = {});
  [[nodiscard]] std::map<std::string, EngineTally> tallies() const;
  [[nodiscard]] std::vector<RateSample> samples() const;

 private:
  mutable std::mutex mu_;  // guards both maps
  std::map<std::string, EngineTally> tallies_;
  std::vector<RateSample> samples_;
};

/// Registry spec of the three policies every workload reports on.
[[nodiscard]] const std::vector<std::string>& probe_policies();
/// A registry spec without its parameter ("laps:0.5" -> "laps"): the key
/// tallies are kept under.
[[nodiscard]] std::string policy_label(const std::string& spec);

/// The engine-layer metrics every workload reports from its probe:
/// simcore.{decisions,events,completions,alive_mean},
/// simcore.step_self_us.<p>, sched.decide_us.<p>, sched.decide_s,
/// sched.decide_share, speedup.nonzero_share_frac.<p>,
/// speedup.rate_ns_per_elem and speedup.bytes_per_step, for the three
/// probe policies.
[[nodiscard]] std::vector<Metric> engine_layer_metrics(
    const EngineProbe& probe, double replay_budget_s);

}  // namespace perfbench
