#include "harness/probe.hpp"

#include <algorithm>

#include "harness/stats.hpp"
#include "speedup/kernel.hpp"

namespace perfbench {

void EngineTally::merge(const EngineTally& o) {
  decisions += o.decisions;
  events += o.events;
  completions += o.completions;
  alive_sum += o.alive_sum;
  nonzero += o.nonzero;
  engine_s += o.engine_s;
  decide_s += o.decide_s;
  decide_calls += o.decide_calls;
}

void TimedScheduler::allocate(const parsched::SchedulerContext& ctx,
                              parsched::Allocation& out) {
  const std::int64_t span =
      spans_ != nullptr ? spans_->begin("sched.allocate") : -1;
  const double t0 = now_s();
  inner_->allocate(ctx, out);
  decide_s_ += now_s() - t0;
  ++calls_;
  if (span >= 0) spans_->end(span);
}

void SampleObserver::on_decision(double /*t*/,
                                 std::span<const parsched::AliveJob> alive,
                                 std::span<const double> shares) {
  ++decisions_;
  alive_sum_ += static_cast<double>(alive.size());
  for (const double x : shares) nonzero_ += x > 0.0 ? 1.0 : 0.0;
  if (decisions_ % stride_ != 0 || kept_ + alive.size() > max_elems_) return;
  RateSample s;
  s.kind.reserve(alive.size());
  s.alpha.reserve(alive.size());
  for (const parsched::AliveJob& a : alive) {
    s.kind.push_back(static_cast<std::uint8_t>(a.curve.kind()));
    s.alpha.push_back(a.curve.alpha());
  }
  s.share.assign(shares.begin(), shares.end());
  kept_ += alive.size();
  samples_.push_back(std::move(s));
}

double replay_rate_ns_per_elem(const std::vector<RateSample>& samples,
                               double budget_s) {
  std::size_t elems = 0;
  std::size_t widest = 0;
  for (const RateSample& s : samples) {
    elems += s.share.size();
    widest = std::max(widest, s.share.size());
  }
  if (elems == 0) return 0.0;
  std::vector<double> out(widest);
  double sink = 0.0;
  std::size_t done = 0;
  const double t0 = now_s();
  double t1 = t0;
  do {
    for (const RateSample& s : samples) {
      const std::span<double> o(out.data(), s.share.size());
      parsched::speedup::rate_batch(s.kind, s.alpha, s.share, 1.0, o);
      if (!o.empty()) sink += o[0];
    }
    done += elems;
    t1 = now_s();
  } while (t1 - t0 < budget_s);
  // Keep the replay observable so it cannot be optimized away.
  if (sink < 0.0) done += 1;
  return (t1 - t0) * 1e9 / static_cast<double>(done);
}

void EngineProbe::add(const std::string& policy, const EngineTally& t,
                      std::vector<RateSample> samples) {
  std::lock_guard<std::mutex> lock(mu_);
  tallies_[policy_label(policy)].merge(t);
  for (RateSample& s : samples) samples_.push_back(std::move(s));
}

std::map<std::string, EngineTally> EngineProbe::tallies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tallies_;
}

std::vector<RateSample> EngineProbe::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

const std::vector<std::string>& probe_policies() {
  static const std::vector<std::string> names = {"isrpt", "laps:0.5", "equi"};
  return names;
}

std::string policy_label(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

std::vector<Metric> engine_layer_metrics(const EngineProbe& probe,
                                         double replay_budget_s) {
  // Bytes the rate pass touches per alive job: kind (1) + alpha (8) +
  // share (8) + rate out (8).
  constexpr double kRateBytesPerJob = 25.0;
  const auto tallies = probe.tallies();
  EngineTally all;
  for (const auto& [name, t] : tallies) all.merge(t);
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double alive_mean =
      per(all.alive_sum, static_cast<double>(all.decisions));
  std::vector<Metric> out = {
      {"simcore.decisions", static_cast<double>(all.decisions), "count", 0},
      {"simcore.events", static_cast<double>(all.events), "count", 0},
      {"simcore.completions", static_cast<double>(all.completions), "count",
       0},
      {"simcore.alive_mean", alive_mean, "count", all.decisions},
      {"sched.decide_s", all.decide_s, "s", all.decide_calls},
      {"sched.decide_share", per(all.decide_s, all.engine_s), "ratio", 0},
  };
  for (const std::string& spec : probe_policies()) {
    const std::string p = policy_label(spec);
    const auto it = tallies.find(p);
    const EngineTally t = it == tallies.end() ? EngineTally{} : it->second;
    const auto d = static_cast<double>(t.decisions);
    out.push_back({"simcore.step_self_us." + p,
                   per(t.engine_s - t.decide_s, d) * 1e6, "us", t.decisions});
    out.push_back({"sched.decide_us." + p,
                   per(t.decide_s, static_cast<double>(t.decide_calls)) * 1e6,
                   "us", t.decide_calls});
    out.push_back({"speedup.nonzero_share_frac." + p,
                   per(t.nonzero, t.alive_sum), "ratio", t.decisions});
  }
  const std::vector<RateSample> samples = probe.samples();
  out.push_back({"speedup.rate_ns_per_elem",
                 replay_rate_ns_per_elem(samples, replay_budget_s), "ns",
                 samples.size()});
  out.push_back({"speedup.bytes_per_step", alive_mean * kRateBytesPerJob,
                 "bytes", all.decisions});
  return out;
}

}  // namespace perfbench
