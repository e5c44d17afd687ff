#include "simcore/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "check/alloc_guard.hpp"
#include "check/contract.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "speedup/kernel.hpp"
#include "util/env.hpp"
#include "util/mathx.hpp"

namespace parsched {

namespace {

/// speedup::PwlRateFn trampoline for piecewise-linear curves: the flat
/// (kind, alpha) arrays cannot encode a knot vector, so those elements
/// delegate to the AliveJob's own curve — the exact code path the
/// pre-SoA scalar loop took, hence bit-identical.
double pwl_rate_from_alive(const void* ctx, std::size_t i, double x) {
  const auto* alive = static_cast<const AliveJob*>(ctx);
  return alive[i].curve.rate(x);
}

/// A job has a pending rate-0 event when it would complete, or advance a
/// phase, on its first visit without being served: only fresh admissions
/// can (a swept survivor is above tolerance on both counts).
bool has_rate0_event(const AliveJob& a, double remaining,
                     double phase_remaining, double ctol) {
  const double tol = ctol * std::max(1.0, a.size);
  return remaining <= tol ||
         (a.phase + 1 < a.phases.size() && phase_remaining <= tol);
}

/// Flag bit striking out a due_ entry whose job runs this step (and is
/// visited as such). The position bits stay, so the list stays sorted.
constexpr std::size_t kStruck = std::size_t{1} << 63;

template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, v.capacity() * 2));
}

}  // namespace

void AliveSoA::clear() {
  remaining.clear();
  size.clear();
  phase_remaining.clear();
  alpha.clear();
  kind.clear();
  qfix.clear();
}

void AliveSoA::reserve(std::size_t n) {
  grow(remaining, n);
  grow(size, n);
  grow(phase_remaining, n);
  grow(alpha, n);
  grow(kind, n);
  grow(qfix, n);
}

void AliveSoA::push_back(const AliveJob& a) {
  remaining.push_back(a.remaining);
  size.push_back(a.size);
  phase_remaining.push_back(a.phase_remaining);
  alpha.push_back(a.curve.alpha());
  kind.push_back(static_cast<std::uint8_t>(a.curve.kind()));
  qfix.push_back(to_qfix(a.remaining / a.size));
}

void AliveSoA::set_curve(std::size_t i, const SpeedupCurve& curve) {
  alpha[i] = curve.alpha();
  kind[i] = static_cast<std::uint8_t>(curve.kind());
}

void AliveSoA::swap_remove(std::size_t i, std::size_t last) {
  if (i == last) return;
  remaining[i] = remaining[last];
  size[i] = size[last];
  phase_remaining[i] = phase_remaining[last];
  alpha[i] = alpha[last];
  kind[i] = kind[last];
  qfix[i] = qfix[last];
}

void AliveSoA::resize(std::size_t n) {
  remaining.resize(n);
  size.resize(n);
  phase_remaining.resize(n);
  alpha.resize(n);
  kind.resize(n);
  qfix.resize(n);
}

void AliveSoA::rebuild(std::span<const AliveJob> alive) {
  clear();
  reserve(alive.size());
  for (const AliveJob& a : alive) push_back(a);
}

// PARSCHED_AUDIT cross-check: every column the records also keep current
// (size, alpha, kind) must mirror them bit-for-bit, qfix must be the
// coefficient of the job's current remaining work, and q_all_ their exact
// sum. A divergence means a sync site (admit / advance / phase change /
// completion swap / restore) was missed, and trips here at the step that
// caused it rather than surfacing later as a wrong rate or flow.
// (remaining and phase_remaining have no record to mirror: the columns
// hold the authoritative copies.)
void Engine::audit_soa() const {
  const std::size_t n = alive_.size();
  PARSCHED_CHECK(soa_.count() == n && soa_.size.size() == n &&
                     soa_.phase_remaining.size() == n &&
                     soa_.alpha.size() == n && soa_.kind.size() == n &&
                     soa_.qfix.size() == n,
                 "SoA columns diverged from alive set size");
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  QSum q = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AliveJob& a = alive_[i];
    PARSCHED_CHECK(same(soa_.size[i], a.size),
                   "SoA size diverged from alive job");
    PARSCHED_CHECK(same(soa_.alpha[i], a.curve.alpha()),
                   "SoA alpha diverged from alive job");
    PARSCHED_CHECK(soa_.kind[i] == static_cast<std::uint8_t>(a.curve.kind()),
                   "SoA curve kind diverged from alive job");
    PARSCHED_CHECK(soa_.qfix[i] == to_qfix(soa_.remaining[i] / a.size),
                   "SoA qfix diverged from the job's remaining work");
    q += soa_.qfix[i];
  }
  PARSCHED_CHECK(q == q_all_, "fractional-flow sum diverged from sum of qfix");
}

void Engine::audit_support() const {
  const Allocation& alloc = cached_alloc_;
  if (alloc.dense()) return;
  const std::span<const double> shares = alloc.shares();
  std::vector<std::uint8_t> seen(shares.size(), 0);
  for (const std::size_t i : alloc.support()) {
    PARSCHED_CHECK(i < shares.size(), "support index out of range");
    PARSCHED_CHECK(seen[i] == 0, "support lists a job twice");
    PARSCHED_CHECK(shares[i] != 0.0,  // lint: float-eq-ok
                   "support lists a job without a share");
    seen[i] = 1;
  }
  for (std::size_t i = 0; i < shares.size(); ++i) {
    PARSCHED_CHECK(seen[i] != 0 || shares[i] == 0.0,  // lint: float-eq-ok
                   "a nonzero share lies outside the support");
  }
}

namespace {

std::string stall_message(double t) {
  std::ostringstream os;
  os << "simulation stalled at t=" << t
     << ": alive jobs but zero rates and no future arrival or "
        "reconsideration point";
  return os.str();
}

std::string stall_message(double t, const std::string& detail) {
  std::ostringstream os;
  os << "simulation stalled at t=" << t << ": " << detail;
  return os.str();
}

/// The snapshot fields whose bad values the engine cannot survive: a
/// non-finite clock or release spins the event loop forever, a release
/// out of order or behind the frontier is silently admitted at the wrong
/// time, and a remaining work outside [0, size] (NaN included) poisons
/// every flow figure. import_state() checks them before it touches any
/// engine state, so a rejected snapshot leaves the engine as it was.
void validate_state(const EngineState& s) {
  if (!(std::isfinite(s.now) && std::isfinite(s.frontier))) {
    throw std::invalid_argument("snapshot time and frontier must be finite");
  }
  if (s.frontier < s.now) {
    throw std::invalid_argument("snapshot frontier precedes its time");
  }
  for (std::size_t i = 0; i < s.pending.size(); ++i) {
    const Job& j = s.pending[i];
    validate_job(j);
    if (j.release < s.frontier) {
      throw std::invalid_argument(
          "snapshot pending release precedes the frontier");
    }
    if (i > 0 && j.release < s.pending[i - 1].release) {
      throw std::invalid_argument("snapshot pending releases out of order");
    }
  }
  for (const AliveJob& a : s.alive) {
    if (!(std::isfinite(a.remaining) && a.remaining >= 0.0 &&
          a.remaining <= a.size)) {
      throw std::invalid_argument(
          "snapshot alive remaining work must be finite and in [0, size]");
    }
  }
}

}  // namespace

SimulationStall::SimulationStall(double t)
    : std::runtime_error(stall_message(t)) {}

SimulationStall::SimulationStall(double t, const std::string& detail)
    : std::runtime_error(stall_message(t, detail)) {}

Engine::Engine(int machines, EngineConfig config)
    : m_(machines), cfg_(config) {
  if (machines < 1) throw std::invalid_argument("need at least one machine");
  if (!(cfg_.speed > 0.0)) {
    throw std::invalid_argument("engine speed must be positive");
  }
  if (!std::isfinite(cfg_.speed)) {
    throw std::invalid_argument("engine speed must be finite");
  }
  audit_allocs_ = env::get_flag("PARSCHED_AUDIT");
}

void Engine::add_observer(Observer* obs) {
  PARSCHED_CHECK(obs != nullptr, "null observer");
  observers_.push_back(obs);
}

double Engine::remaining_tagged(JobTag::Class cls, int phase) const {
  double total = 0.0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    const AliveJob& a = alive_[i];
    if (a.tag.cls == cls && (phase < 0 || a.tag.phase == phase)) {
      total += soa_.remaining[i];
    }
  }
  return total;
}

std::size_t Engine::alive_tagged(JobTag::Class cls, int phase) const {
  std::size_t n = 0;
  for (const AliveJob& a : alive_) {
    if (a.tag.cls == cls && (phase < 0 || a.tag.phase == phase)) ++n;
  }
  return n;
}

void Engine::begin_run(Scheduler& sched) {
  sched_ = &sched;
  sched.reset();
  alive_.clear();
  completed_.clear();
  pending_.clear();
  now_ = 0.0;
  frontier_ = 0.0;
  arrival_seq_ = 0;
  streaming_ = false;
  has_cached_alloc_ = false;
  cached_alloc_ = Allocation{};
  result_ = SimResult{};
  zero_dt_streak_ = 0;
  alloc_warm_n_ = 0;
  soa_.clear();
  q_all_ = 0;
  due_.clear();
  visited_total_ = 0;
  orders_.clear();
  rates_valid_ = false;
  stats_ = nullptr;
  // Profiling is opt-in: with collect_stats off (the default) `stats_` is
  // null, every instrumentation site is one predictable branch, and no
  // clock is ever read — the hot path stays uninstrumented.
  if (cfg_.collect_stats) {
    result_.stats.emplace();
    stats_ = &*result_.stats;
  }
  run_start_ = cfg_.collect_stats ? obs::monotonic_seconds() : 0.0;
}

void Engine::finalize_run() {
  if (stats_ != nullptr) {
    stats_->wall_seconds = obs::monotonic_seconds() - run_start_;
    stats_->completions = result_.records.size();
    stats_->arrivals = result_.events - stats_->completions;
    stats_->decisions = result_.decisions;
  }
  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    reg.counter("engine.runs").inc();
    reg.counter("engine.decisions").inc(result_.decisions);
    reg.counter("engine.completions").inc(result_.records.size());
    reg.counter("engine.arrivals")
        .inc(result_.events - result_.records.size());
    reg.counter("engine.visited_jobs").inc(visited_total_);
    if (stats_ != nullptr) {
      reg.timer("engine.run").add(stats_->wall_seconds);
      reg.timer("engine.decide").add(stats_->decide_seconds);
      reg.timer("engine.solver").add(stats_->solver_seconds);
      reg.timer("engine.observer").add(stats_->observer_seconds);
      reg.timer("engine.rates").add(stats_->rates_seconds);
      reg.timer("engine.sweep").add(stats_->sweep_seconds);
    }
  }
}

SimResult Engine::take_result() {
  SimResult out = std::move(result_);
  result_ = SimResult{};
  stats_ = nullptr;
  sched_ = nullptr;
  return out;
}

void Engine::record_failure(bool contract_trip, std::uint64_t id,
                            const char* reason) noexcept {
  // The last event the black box sees before the exception escapes: the
  // failure itself, followed by an automatic dump when a path is armed.
  // Cold path by construction — this runs once, right before a throw.
  if (cfg_.recorder == nullptr) return;
  cfg_.recorder->record(contract_trip ? obs::FlightEvent::kGuardTrip
                                      : obs::FlightEvent::kStall,
                        id, now_, 0.0,
                        static_cast<std::uint32_t>(alive_.size()));
  cfg_.recorder->dump_to_file(reason);
}

void Engine::reserve_scratch() {
  // Geometric growth, amortized O(1) per admission, paid here — outside
  // the guarded scopes — so every per-step buffer (the SoA columns, the
  // rates scratch, the completion list: each at most one entry per alive
  // job) already has room when a decision step runs, even a
  // mass-completion one.
  const std::size_t n = alive_.size();
  soa_.reserve(n);
  grow(run_rate_, n);
  grow(comp_idx_, n);
  orders_.reserve(n);
}

void Engine::admit_job_now(Job j) {
  j.normalize_phases();
  // Batch sources hand jobs straight to this point; a streamed job passed
  // admit() already, but its size is only now derived from its phases
  // (whose sum can overflow), so check again.
  validate_job(j);
  AliveJob a;
  a.id = j.id;
  a.release = j.release;
  a.size = j.size;
  a.remaining = j.size;
  a.weight = j.weight;
  a.curve = j.curve;
  a.arrival_seq = arrival_seq_++;
  a.tag = j.tag;
  a.phases = j.phases;
  a.phase = 0;
  a.phase_remaining = j.phases.empty() ? j.size : j.phases[0].work;
  alive_.push_back(std::move(a));
  reserve_scratch();
  const AliveJob& added = alive_.back();
  const std::size_t idx = alive_.size() - 1;
  soa_.push_back(added);
  q_all_ += soa_.qfix.back();
  if (has_rate0_event(added, added.remaining, added.phase_remaining,
                      cfg_.completion_tol)) {
    due_.push_back(idx);
  }
  orders_.insert(added, idx);
  ++result_.events;
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kAdmit,
                          static_cast<std::uint64_t>(j.id), now_, j.release,
                          static_cast<std::uint32_t>(alive_.size()));
  }
  for (Observer* obs : observers_) obs->on_arrival(now_, j);
}

void Engine::admit_pending(ArrivalSource& source) {
  const double t0 = stats_ != nullptr ? obs::monotonic_seconds() : 0.0;
  for (;;) {
    const double nt = source.next_time(*this);
    if (!(nt <= now_ + cfg_.time_tol)) break;
    std::vector<Job> jobs = source.take(nt, *this);
    if (jobs.empty()) {
      // Pure decision point: the source must make progress.
      PARSCHED_CHECK(source.next_time(*this) > nt,
                     "arrival source failed to advance past a pure "
                     "decision point");
      continue;
    }
    for (Job& j : jobs) admit_job_now(std::move(j));
  }
  if (stats_ != nullptr) {
    stats_->solver_seconds += obs::monotonic_seconds() - t0;  // admissions
  }
}

void Engine::release_due() {
  // The streaming twin of admit_pending(): pending_ is kept sorted by
  // release (stable among equals), so admission order — and therefore
  // arrival_seq — matches what a VectorSource over the same jobs yields.
  const double t0 = stats_ != nullptr ? obs::monotonic_seconds() : 0.0;
  while (!pending_.empty() &&
         pending_.front().release <= now_ + cfg_.time_tol) {
    Job j = std::move(pending_.front());
    pending_.pop_front();
    admit_job_now(std::move(j));
  }
  if (stats_ != nullptr) {
    stats_->solver_seconds += obs::monotonic_seconds() - t0;  // admissions
  }
}

PARSCHED_HOT void Engine::compute_rates(bool validate) {
  // The decision's shares → rates pass, over the allocation's support
  // only: validate and sum the given shares, evaluate Γ_i(x_i) through
  // the batch kernels (the same per-element arithmetic as the scalar
  // SpeedupCurve::rate()), and keep the running jobs for the event-time
  // scan and the advance sweep. A job outside the support has share +0.0,
  // hence rate +0.0, and nothing here needs to look at it. Every buffer
  // is engine scratch sized at admission, so nothing here reallocates —
  // the AllocGuard fence around this call stays armed.
  const Allocation& alloc = cached_alloc_;
  const std::span<const double> shares = alloc.shares();
  const auto checked = [&](double s) {
    if (validate && !(s >= 0.0)) {
      throw std::logic_error("negative share from policy " +  // lint: alloc-ok
                             sched_->name());
    }
    return s;
  };
  const auto check_total = [&](double total) {
    if (validate && total > static_cast<double>(m_) * (1.0 + 1e-9) + 1e-9) {
      throw std::logic_error("overcommitted shares from " +  // lint: alloc-ok
                             sched_->name());
    }
  };
  const speedup::PwlRateFn pwl{&pwl_rate_from_alive, alive_.data()};
  double sum = 0.0;
  double dt_complete = kInf;
  std::size_t running = 0;
  run_dense_ = alloc.dense();
  run_uniform_ = alloc.uniform() && !shares.empty() && shares[0] <= 1.0;
  if (run_uniform_) {
    // fill(s) with s <= 1: every curve is Γ(x) = x on [0, 1], so every
    // job runs at speed·s — the bits rate_batch would give each element —
    // and no per-job rate is stored. Correctly rounded division by r > 0
    // is monotone, so min(phase_remaining) / r is exactly the minimum of
    // the per-job quotients the general scan takes. The n equal shares
    // total n·s, rounded once; the bound's 1e-9 slack dwarfs the rounding.
    const std::size_t n = shares.size();
    const double s = checked(shares[0]);
    check_total(s * static_cast<double>(n));
    uniform_rate_ = cfg_.speed * s;
    run_n_ = n;
    if (uniform_rate_ > 0.0) {
      double least = kInf;
      for (const double pr : soa_.phase_remaining) least = std::min(least, pr);
      dt_complete = least / uniform_rate_;
      running = n;
    }
    dt_complete_ = dt_complete;
    rates_nonzero_ = running;
    rates_valid_ = true;
    return;
  }
  if (run_dense_) {
    // fill(): every alive job holds the share, so the kernels run straight
    // over the columns and run_rate_ is indexed by alive position.
    const std::size_t n = shares.size();
    for (std::size_t i = 0; i < n; ++i) sum += checked(shares[i]);
    check_total(sum);
    run_rate_.resize(n);
    if (cfg_.fast_rate_kernel) {
      speedup::rate_batch_fast(soa_.kind, soa_.alpha, shares, cfg_.speed,
                               run_rate_, pwl);
    } else {
      speedup::rate_batch(soa_.kind, soa_.alpha, shares, cfg_.speed,
                          run_rate_, pwl);
    }
  } else {
    // give(): run_rate_ is aligned with the support, which stays frozen
    // in cached_alloc_ for as long as the decision does.
    const std::span<const std::size_t> support = alloc.support();
    for (const std::size_t i : support) sum += checked(shares[i]);
    check_total(sum);
    run_rate_.resize(support.size());
    if (cfg_.fast_rate_kernel) {
      speedup::rate_gather_fast(support, soa_.kind, soa_.alpha, shares,
                                cfg_.speed, run_rate_, pwl);
    } else {
      speedup::rate_gather(support, soa_.kind, soa_.alpha, shares, cfg_.speed,
                           run_rate_, pwl);
    }
  }
  // The end of the current *phase* is the next per-job event (for a
  // single-phase job, its completion). The minimum is order-independent,
  // so taking it in support order gives the bits an index-order scan
  // would.
  run_n_ = run_rate_.size();
  for (std::size_t j = 0; j < run_rate_.size(); ++j) {
    const double r = run_rate_[j];
    if (r > 0.0) {
      ++running;
      dt_complete =
          std::min(dt_complete, soa_.phase_remaining[run_index(j)] / r);
    }
  }
  dt_complete_ = dt_complete;
  rates_nonzero_ = running;
  rates_valid_ = true;
}

PARSCHED_HOT Engine::Step Engine::decision_step(double t_arrive,
                                                double horizon,
                                                double& t_section) {
  // One decision interval of the simulation, shared verbatim between the
  // batch loop (horizon = kInf, never defers) and the streaming loop. The
  // allocation is computed at most once per decision point: a step
  // deferred past the horizon caches it — the context the policy saw
  // (now_, machines, alive_) cannot change while deferred, because
  // admissions land in pending_ and time only moves inside this function.
  if (!has_cached_alloc_) {
    if (++result_.decisions > cfg_.max_decisions) {
      throw std::runtime_error("engine exceeded max_decisions guard");
    }
    SchedulerContext ctx(now_, m_, alive_, soa_.remaining, orders_);
    // PARSCHED_AUDIT: warm allocate+rates sections must not touch the
    // heap — every scratch buffer is capacity-stable once a step at this
    // alive count has completed. (A policy-error throw inside the scope
    // surfaces as the guard's ContractViolation under audit, since
    // building the error message allocates; the diagnostic still names
    // the offending region.)
    std::optional<AllocGuard> fence;
    if (audit_allocs_ && alive_.size() <= alloc_warm_n_) {
      fence.emplace("Engine decision step: allocate+rates");
    }
    const double t_decide0 = stats_ != nullptr ? obs::monotonic_seconds()
                                               : 0.0;
    sched_->allocate(ctx, cached_alloc_);
    if (stats_ != nullptr) {
      t_section = obs::monotonic_seconds();
      stats_->decide_seconds += t_section - t_decide0;
      stats_->alive_count.add(static_cast<double>(alive_.size()));
    }
    if (cached_alloc_.size() != alive_.size()) {
      fence.reset();
      throw std::logic_error("allocation size mismatch from policy " +
                             sched_->name());
    }
    compute_rates(cfg_.validate_allocations);
    fence.reset();
    if (audit_allocs_) audit_support();
    alloc_warm_n_ = std::max(alloc_warm_n_, alive_.size());
    if (stats_ != nullptr) {
      const double t = obs::monotonic_seconds();
      stats_->solver_seconds += t - t_section;  // validation + rates
      stats_->rates_seconds += t - t_section;
      t_section = t;
    }
    if (!observers_.empty()) {
      // The column is the live copy of remaining work; observers read the
      // records, so refresh them first (O(n), as every observer already
      // is per decision). No observer, no refresh.
      for (std::size_t i = 0; i < alive_.size(); ++i) {
        alive_[i].remaining = soa_.remaining[i];
      }
      for (Observer* obs : observers_) {
        obs->on_decision(now_, alive_, cached_alloc_.shares());
      }
    }
    if (stats_ != nullptr) {
      const double t = obs::monotonic_seconds();
      stats_->observer_seconds += t - t_section;
      t_section = t;
    }
    has_cached_alloc_ = true;
  } else {
    if (stats_ != nullptr) t_section = obs::monotonic_seconds();
    // Resuming a deferred decision: the context the policy saw is frozen
    // (that is the deferral contract), so the rates computed at decision
    // time are still exact. Only a snapshot restore — which does not
    // serialize scratch — needs them rebuilt, from the same frozen
    // inputs, hence bit-identically.
    if (!rates_valid_) compute_rates(false);
  }
  const Allocation& alloc = cached_alloc_;
  if (alloc.reconsider_at != kInf && alloc.reconsider_at <= now_) {
    throw std::logic_error("policy " + sched_->name() +
                           " requested reconsideration in the past");
  }
  double dt = dt_complete_;
  dt = std::min(dt, t_arrive - now_);
  dt = std::min(dt, alloc.reconsider_at - now_);
  if (dt == kInf) {
    if (horizon == kInf) {
      record_failure(false, 0, "simulation_stall");
      throw SimulationStall(now_);
    }
    return Step::kDeferred;
  }
  dt = std::max(dt, 0.0);
  if (now_ + dt > horizon) return Step::kDeferred;
  has_cached_alloc_ = false;
  if (stats_ != nullptr) stats_->decision_interval.add(dt);
  const double t_sweep0 = stats_ != nullptr ? obs::monotonic_seconds() : 0.0;

  // Advance remaining work and the fractional-flow integral, move
  // multi-phase jobs whose current phase drained to the next phase (which
  // exposes its speedup curve to the policy from now on), and detect
  // completions. The sweep visits only the jobs that move — the running
  // set compute_rates() kept — plus the due list (fresh jobs with a
  // rate-0 event). An idle job's remaining work, phase and completion
  // state cannot change, and its fractional-flow term is its qfix, which
  // q_all_ already sums: the step adds
  //   (q_all_ − Σ_visited qfix_old + Σ_visited c) · 2⁻⁶² · dt
  // with c the visited job's trapezoid coefficient 0.5·(r + r')/size in
  // fixed point. The integer sum is exact, so the result does not depend
  // on the order jobs are visited in.
  bool phase_advanced = false;
  comp_idx_.clear();
  // PARSCHED_AUDIT: the sweep is pure per-job arithmetic over
  // capacity-stable buffers (comp_idx_ is pre-reserved at admission), so
  // on a warm step it must not allocate. Completion record-keeping below
  // is result accumulation, not scratch, and stays outside the fence.
  std::optional<AllocGuard> sweep_fence;
  if (audit_allocs_ && alive_.size() <= alloc_warm_n_) {
    sweep_fence.emplace("Engine decision step: advance sweep");
  }
  const double ctol = cfg_.completion_tol;
  // Pick the SRPT heap's key-maintenance mode for this sweep. With
  // a sparse allocation (SRPT-style: at most m of n jobs run) each
  // changed key costs one O(log n) sift; when most keys move at once
  // (EQUI-style dense allocations, > n/8 nonzero rates) n sifts lose to
  // one O(n) rebuild, so declare a lazy-decay epoch instead — the SRPT
  // heap goes stale and is regathered at the next query (never, for
  // policies that only consume latest-arrival order, whose keys are
  // immutable). dt == 0 moves no key, and a heap already stale stays
  // stale for free.
  bool srpt_eager = false;
  // Exact-zero test on purpose: dt == 0 steps (simultaneous events)
  // change no remaining-work key bit, so the heap needs no maintenance.
  if (dt != 0.0 && !orders_.srpt_stale()) {  // lint: float-eq-ok
    if (rates_nonzero_ * 8 > alive_.size()) {
      orders_.decay_epoch();
    } else {
      srpt_eager = true;
    }
  }
  // The per-job arithmetic reads and writes the columns through raw
  // pointers and sums into two local integers, so the dense (EQUI) loop
  // stays in registers. A job whose phase or whole work fell within
  // tolerance goes on comp_idx_ and is settled after the loop.
  double* const rem = soa_.remaining.data();
  double* const phase_rem = soa_.phase_remaining.data();
  const double* const sizes = soa_.size.data();
  std::int64_t* const qfix = soa_.qfix.data();
  QSum flow_delta = 0;  // Σ (c − qfix_old) over visited jobs
  QSum q_delta = 0;     // Σ (qfix_new − qfix_old) over visited jobs
  std::size_t visited = 0;
  const auto advance = [&](std::size_t i, double r)
                           __attribute__((always_inline)) {
    ++visited;
    const double size = sizes[i];
    const double before = rem[i];
    const double after = std::max(0.0, before - r * dt);
    const std::int64_t q_old = qfix[i];
    const std::int64_t q_new = to_qfix(after / size);
    flow_delta += to_qfix(0.5 * (before + after) / size) - q_old;
    q_delta += q_new - q_old;
    qfix[i] = q_new;
    rem[i] = after;
    const double pr = std::max(0.0, phase_rem[i] - r * dt);
    phase_rem[i] = pr;
    const double tol = ctol * std::max(1.0, size);
    if (std::min(pr, after) <= tol) comp_idx_.push_back(i);
  };
  if (run_uniform_) {
    const double r = uniform_rate_;
    if (r != 0.0) {  // lint: float-eq-ok
      for (std::size_t i = 0; i < alive_.size(); ++i) advance(i, r);
    }
  } else if (run_dense_) {
    const double* const rate = run_rate_.data();
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (rate[i] != 0.0) advance(i, rate[i]);  // lint: float-eq-ok
    }
  } else {
    // A due job that also runs is visited once, here, at its rate: strike
    // it from the due list (ascending, and all due jobs are fresh, i.e. at
    // the back of the alive order).
    const std::span<const std::size_t> support = cached_alloc_.support();
    const std::size_t due_lo = due_.empty() ? alive_.size() : due_.front();
    for (std::size_t j = 0; j < support.size(); ++j) {
      const double r = run_rate_[j];
      if (r == 0.0) continue;  // lint: float-eq-ok
      const std::size_t i = support[j];
      advance(i, r);
      if (i >= due_lo) {
        const auto it = std::lower_bound(
            due_.begin(), due_.end(), i,
            [](std::size_t e, std::size_t v) { return (e & ~kStruck) < v; });
        if (it != due_.end() && *it == i) *it |= kStruck;
      }
    }
  }
  for (const std::size_t i : due_) {
    if ((i & kStruck) != 0) continue;
    if (run_dense_ && run_rate(i) != 0.0) continue;  // lint: float-eq-ok
    advance(i, 0.0);
  }
  due_.clear();  // a swept job has no rate-0 event left
  if (srpt_eager) {
    for (std::size_t j = 0; j < run_n_; ++j) {
      if (run_rate(j) != 0.0) {  // lint: float-eq-ok
        const std::size_t i = run_index(j);
        orders_.update_remaining(i, rem[i]);
      }
    }
  }
  // Settle the candidates: move a job whose phase drained to its next
  // phase (exposing that phase's curve to the policy from now on), and
  // keep the jobs that completed.
  std::size_t n_done = 0;
  for (const std::size_t i : comp_idx_) {
    AliveJob& a = alive_[i];
    const double tol = ctol * std::max(1.0, sizes[i]);
    while (phase_rem[i] <= tol && a.phase + 1 < a.phases.size()) {
      ++a.phase;
      phase_rem[i] = a.phases[a.phase].work;
      a.curve = a.phases[a.phase].curve;
      soa_.set_curve(i, a.curve);
      phase_advanced = true;
    }
    if (rem[i] <= tol) comp_idx_[n_done++] = i;
  }
  comp_idx_.resize(n_done);
  result_.fractional_flow +=
      static_cast<double>(q_all_ + flow_delta) * 0x1p-62 * dt;
  q_all_ += q_delta;
  for (const std::size_t i : comp_idx_) q_all_ -= soa_.qfix[i];
  // The swap-remove replay below walks the completed positions ascending.
  std::sort(comp_idx_.begin(), comp_idx_.end());
  visited_total_ += visited;
  if (stats_ != nullptr) stats_->visited_jobs += visited;
  sweep_fence.reset();
  now_ += dt;
  const std::size_t first_new_record = result_.records.size();
  if (!comp_idx_.empty()) {
    std::size_t end = alive_.size();
    std::size_t lo = 0;
    std::size_t hi = comp_idx_.size();
    while (lo < hi) {
      std::size_t i = comp_idx_[lo++];
      for (;;) {
        AliveJob& a = alive_[i];
        JobRecord rec;
        rec.job.id = a.id;
        rec.job.release = a.release;
        rec.job.size = a.size;
        rec.job.weight = a.weight;
        rec.job.curve = a.phases.empty() ? a.curve : a.phases.front().curve;
        rec.job.tag = a.tag;
        rec.job.phases = std::move(a.phases);
        rec.completion = now_;
        result_.total_flow += rec.flow();
        result_.weighted_flow += a.weight * rec.flow();
        result_.makespan = std::max(result_.makespan, now_);
        completed_.insert(a.id);
        ++result_.events;
        if (cfg_.recorder != nullptr) {
          cfg_.recorder->record(obs::FlightEvent::kComplete,
                                static_cast<std::uint64_t>(rec.job.id), now_,
                                rec.flow(),
                                static_cast<std::uint32_t>(end - 1));
        }
        result_.records.push_back(std::move(rec));
        --end;
        // Mirror the swap-remove into the orders: delete index i, remap
        // the back entry (alive index `end`) to i — the same move the
        // alive_ line below performs.
        orders_.remove_swap(i, end);
        soa_.swap_remove(i, end);
        if (i == end) break;
        alive_[i] = std::move(alive_[end]);
        if (hi > lo && comp_idx_[hi - 1] == end) {
          --hi;  // the element swapped in is itself complete: remove in place
          continue;
        }
        break;
      }
    }
    alive_.resize(end);
    soa_.resize(end);
  }
  if (stats_ != nullptr) {
    stats_->sweep_seconds += obs::monotonic_seconds() - t_sweep0;
  }
  const std::size_t n_completed = result_.records.size() - first_new_record;
  if (n_completed > 0 && !observers_.empty()) {
    completion_order_.resize(n_completed);
    for (std::size_t i = 0; i < n_completed; ++i) {
      completion_order_[i] = first_new_record + i;
    }
    std::sort(completion_order_.begin(), completion_order_.end(),
              [this](std::size_t a, std::size_t b) {
                return result_.records[a].job.id < result_.records[b].job.id;
              });
    for (const std::size_t r : completion_order_) {
      for (Observer* obs : observers_) {
        obs->on_completion(now_, result_.records[r].job);
      }
    }
  }

  // Zero-dt livelock guard: a step with dt == 0 that advanced no phase
  // and completed no job left the engine exactly where it was, and with a
  // stateless policy it will do so forever (e.g. FP drift leaving a
  // multi-phase job's last phase at exactly 0 while `remaining` sits just
  // above tolerance). Stateful policies may legitimately need a few
  // zero-dt decisions to rotate out of the corner, so only a streak
  // longer than any one policy's state cycle — alive_.size() + 2 covers
  // every in-tree policy — is declared a stall, with a diagnostic naming
  // the stuck job instead of silently burning the max_decisions budget.
  if (dt > 0.0 || phase_advanced || n_completed > 0) {
    zero_dt_streak_ = 0;
  } else if (++zero_dt_streak_ > alive_.size() + 2) {
    std::ostringstream os;  // lint: alloc-ok (stall diagnostic, cold path)
    os << "zero-length decision intervals are making no progress";
    // Name the lowest-positioned running job whose phase has drained (no
    // job completed this step, so the running set still indexes alive_).
    std::size_t stuck_at = alive_.size();
    for (std::size_t j = 0; j < run_n_; ++j) {
      const std::size_t i = run_index(j);
      if (run_rate(j) > 0.0 && soa_.phase_remaining[i] <= 0.0) {
        stuck_at = std::min(stuck_at, i);
      }
    }
    std::uint64_t stuck = 0;
    if (stuck_at < alive_.size()) {
      const AliveJob& a = alive_[stuck_at];
      stuck = static_cast<std::uint64_t>(a.id);
      os << "; stuck job id=" << a.id << " (phase " << (a.phase + 1) << "/"
         << (a.phases.empty() ? std::size_t{1} : a.phases.size())
         << " drained, remaining=" << soa_.remaining[stuck_at]
         << " still above completion tolerance)";
    }
    record_failure(false, stuck, "simulation_stall");
    throw SimulationStall(now_, os.str());
  }
  // PARSCHED_AUDIT: after every advanced step, cross-check the
  // persistent orders against the alive set — key payloads, position
  // maps, the heap property, the latest array's sortedness and tombstone
  // count (O(n), audit runs only). A divergence here trips a contract
  // failure at the step that caused it instead of surfacing decisions
  // later as a wrong ordering.
  if (audit_allocs_) orders_.audit(alive_, soa_.remaining);
  if (audit_allocs_) audit_soa();
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kDecision, result_.decisions,
                          now_, dt,
                          static_cast<std::uint32_t>(alive_.size()));
  }
  return Step::kAdvanced;
}

SimResult Engine::run(Scheduler& sched, ArrivalSource& source) {
  begin_run(sched);
  source.reset();

  // Start the clock at the first arrival.
  {
    const double first = source.next_time(*this);
    if (first == kInf) {
      finalize_run();
      return take_result();
    }
    now_ = std::max(0.0, first);
  }
  admit_pending(source);

  for (;;) {
    if (alive_.empty()) {
      const double nt = source.next_time(*this);
      if (nt == kInf) break;  // all done
      PARSCHED_CHECK(nt >= now_ - cfg_.time_tol,
                     "arrival source moved backwards in time");
      now_ = std::max(now_, nt);
      admit_pending(source);
      continue;
    }

    // The engine state the source sees here is exactly the state at the
    // top of the iteration (allocate() does not touch it), so querying
    // the next arrival before the decision step keeps adaptive sources'
    // answers unchanged.
    const double t_arrive = source.next_time(*this);
    double t_section = 0.0;
    try {
      decision_step(t_arrive, kInf, t_section);  // horizon kInf: never defers
    } catch (const ContractViolation&) {
      // An alloc-guard / contract trip escaping a decision step is a
      // flight-recorder moment: dump the ring before the exception
      // unwinds past the engine.
      record_failure(true, 0, "contract_trip");
      throw;
    }
    if (stats_ != nullptr) {
      stats_->solver_seconds += obs::monotonic_seconds() - t_section;
    }
    admit_pending(source);
  }

  for (Observer* obs : observers_) obs->on_done(now_);
  finalize_run();
  return take_result();
}

// ---- Streaming API --------------------------------------------------------

void Engine::begin(Scheduler& sched) {
  begin_run(sched);
  streaming_ = true;
}

void Engine::admit(Job job) {
  PARSCHED_CHECK(streaming_, "Engine::admit() outside a streaming run");
  // NaN fails every test: a NaN release would never fall due (finish()
  // would spin), an infinite size would surface much later as a
  // SimulationStall, and a NaN weight would poison weighted_flow.
  validate_job(job);
  if (!(job.release >= frontier_)) {
    std::ostringstream os;
    os << "admission in the past: release " << job.release
       << " < frontier " << frontier_;
    throw std::invalid_argument(os.str());
  }
  const auto it = std::upper_bound(
      pending_.begin(), pending_.end(), job.release,
      [](double r, const Job& j) { return r < j.release; });
  pending_.insert(it, std::move(job));
}

void Engine::advance_to(double t) {
  PARSCHED_CHECK(streaming_, "Engine::advance_to() outside a streaming run");
  // The frontier stays finite, as import_state() requires of a snapshot
  // (finish() alone runs to the end; a NaN target used to be a no-op).
  if (!std::isfinite(t)) {
    throw std::invalid_argument("advance target must be finite");
  }
  frontier_ = std::max(frontier_, t);
  drain_to(frontier_);
}

void Engine::drain_to(double horizon) {
  for (;;) {
    if (alive_.empty()) {
      if (pending_.empty()) return;
      const double nt = pending_.front().release;
      if (nt > horizon) return;
      // Identical arithmetic to the batch idle jump (and to the batch
      // clock start, where now_ is still 0).
      now_ = std::max(now_, nt);
      release_due();
      continue;
    }
    const double t_arrive =
        pending_.empty() ? kInf : pending_.front().release;
    double t_section = 0.0;
    Step step;
    try {
      step = decision_step(t_arrive, horizon, t_section);
    } catch (const ContractViolation&) {
      record_failure(true, 0, "contract_trip");  // see run(): black-box dump
      throw;
    }
    if (stats_ != nullptr) {
      stats_->solver_seconds += obs::monotonic_seconds() - t_section;
    }
    if (step == Step::kDeferred) return;
    release_due();
  }
}

SimResult Engine::finish() {
  PARSCHED_CHECK(streaming_, "Engine::finish() outside a streaming run");
  frontier_ = kInf;
  drain_to(kInf);
  streaming_ = false;
  for (Observer* obs : observers_) obs->on_done(now_);
  finalize_run();
  return take_result();
}

EngineState Engine::export_state() const {
  PARSCHED_CHECK(streaming_, "Engine::export_state() outside a streaming run");
  EngineState s;
  s.machines = m_;
  s.config = cfg_;
  s.now = now_;
  s.frontier = frontier_;
  s.arrival_seq = arrival_seq_;
  s.alive = alive_;
  // The columns hold the authoritative remaining and phase_remaining (the
  // sweep does not write them back into the records).
  for (std::size_t i = 0; i < s.alive.size(); ++i) {
    s.alive[i].remaining = soa_.remaining[i];
    s.alive[i].phase_remaining = soa_.phase_remaining[i];
  }
  s.completed.assign(completed_.begin(), completed_.end());
  std::sort(s.completed.begin(), s.completed.end());
  s.pending.assign(pending_.begin(), pending_.end());
  s.has_cached_alloc = has_cached_alloc_;
  s.cached_alloc = cached_alloc_;
  s.result = result_;
  s.result.stats.reset();  // wall-time profiling is measurement, not state
  return s;
}

void Engine::import_state(const EngineState& s, Scheduler& sched) {
  if (s.machines != m_) {
    throw std::invalid_argument("snapshot machine count mismatch");
  }
  // The config fields that enter the decision arithmetic must match the
  // donor exactly, or the continuation silently diverges bit-by-bit from
  // the run that produced the snapshot. (The profiling/guard knobs are
  // deliberately not checked: they do not affect the computed
  // trajectory.)
  if (s.config.speed != cfg_.speed) {
    throw std::invalid_argument("snapshot engine speed mismatch");
  }
  if (s.config.completion_tol != cfg_.completion_tol) {
    throw std::invalid_argument("snapshot completion_tol mismatch");
  }
  if (s.config.time_tol != cfg_.time_tol) {
    throw std::invalid_argument("snapshot time_tol mismatch");
  }
  // Unlike the profiling/guard knobs, the kernel arm changes the decision
  // arithmetic (exp(α·log x) vs pow), so a continuation under a
  // different arm would drift from the donor trajectory ULP-by-ULP.
  if (s.config.fast_rate_kernel != cfg_.fast_rate_kernel) {
    throw std::invalid_argument("snapshot rate-kernel arm mismatch");
  }
  if (s.has_cached_alloc && s.cached_alloc.size() != s.alive.size()) {
    throw std::invalid_argument("snapshot cached allocation size mismatch");
  }
  validate_state(s);
  sched_ = &sched;  // no reset(): the caller restored the policy's state
  streaming_ = true;
  now_ = s.now;
  frontier_ = s.frontier;
  arrival_seq_ = s.arrival_seq;
  alive_ = s.alive;
  completed_ =
      std::unordered_set<JobId>(s.completed.begin(), s.completed.end());
  pending_.assign(s.pending.begin(), s.pending.end());
  has_cached_alloc_ = s.has_cached_alloc;
  // The support is derived state: rebuild it from the nonzero shares.
  cached_alloc_.assign(
      {s.cached_alloc.shares().begin(), s.cached_alloc.shares().end()});
  cached_alloc_.reconsider_at = s.cached_alloc.reconsider_at;
  result_ = s.result;
  result_.stats.reset();
  zero_dt_streak_ = 0;  // scratch, not state: restart the livelock guard
  alloc_warm_n_ = 0;  // scratch is cold after a restore; re-warm unguarded
  soa_.rebuild(alive_);
  q_all_ = 0;
  for (const std::int64_t q : soa_.qfix) q_all_ += q;
  due_.clear();
  reserve_scratch();
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (has_rate0_event(alive_[i], soa_.remaining[i], soa_.phase_remaining[i],
                        cfg_.completion_tol)) {
      due_.push_back(i);
    }
  }
  visited_total_ = 0;
  // The orders are derived state: rebuild the latest array from the
  // restored alive set now and leave the SRPT heap lazily stale — the
  // first SRPT query regathers it, bit-identically to the donor.
  orders_.rebuild(alive_);
  rates_valid_ = false;  // a deferred decision recomputes its rates once
  stats_ = nullptr;  // profiling does not continue across a restore
  run_start_ = 0.0;
}

SimResult simulate(const Instance& instance, Scheduler& sched,
                   const EngineConfig& config,
                   const std::vector<Observer*>& observers) {
  Engine engine(instance.machines(), config);
  for (Observer* obs : observers) engine.add_observer(obs);
  VectorSource source(instance.jobs());
  return engine.run(sched, source);
}

}  // namespace parsched
