// Sparse decision steps: the Allocation support contract, admission
// validation, the fixed-point fractional-flow accounting checked against
// a reference integral of the recorded trajectories, the due-list edge
// cases (pinned to the dense engine's results), snapshot continuation
// from a deferred decision, and the visited-jobs counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "obs/metrics.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/registry.hpp"
#include "serve/snapshot.hpp"
#include "simcore/engine.hpp"
#include "simcore/trajectory.hpp"
#include "workload/phased.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInfinity = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Job make_job(JobId id, double release, double size, SpeedupCurve curve) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = size;
  j.curve = curve;
  return j;
}

// ------------------------------------------------------- Allocation support

TEST(AllocationSupport, GiveRecordsEachJobOnceInGiveOrder) {
  Allocation a;
  a.reset(5);
  a.give(3, 1.0);
  a.give(1, 0.5);
  a.give(3, 2.0);  // replaces, does not re-enter the support
  a.give(4, 0.0);  // zero to a job without a share: no-op
  EXPECT_FALSE(a.dense());
  EXPECT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(std::vector<double>(a.shares().begin(), a.shares().end()),
            (std::vector<double>{0.0, 0.5, 0.0, 2.0, 0.0}));
}

TEST(AllocationSupport, ResetZeroesThePreviousDecision) {
  Allocation a;
  a.reset(4);
  a.give(2, 1.0);
  a.reconsider_at = 3.0;
  a.reset(6);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_TRUE(a.support().empty());
  EXPECT_EQ(a.reconsider_at, kInf);
  for (const double s : a.shares()) EXPECT_EQ(s, 0.0);
  a.fill(0.25);
  EXPECT_TRUE(a.dense());
  a.reset(3);  // shrink out of a dense decision
  EXPECT_FALSE(a.dense());
  EXPECT_EQ(a.size(), 3u);
  for (const double s : a.shares()) EXPECT_EQ(s, 0.0);
}

TEST(AllocationSupport, GiveCannotRevokeAShare) {
  Allocation a;
  a.reset(2);
  a.give(0, 1.0);
  EXPECT_THROW(a.give(0, 0.0), ContractViolation);
}

TEST(AllocationSupport, FillIsDenseAndGiveStillWrites) {
  Allocation a;
  a.reset(3);
  a.fill(0.5);
  a.give(1, 2.0);
  EXPECT_TRUE(a.dense());
  EXPECT_TRUE(a.support().empty());
  EXPECT_EQ(std::vector<double>(a.shares().begin(), a.shares().end()),
            (std::vector<double>{0.5, 2.0, 0.5}));
}

TEST(AllocationSupport, OnlyAnUnbrokenFillIsUniform) {
  Allocation a;
  a.reset(3);
  EXPECT_FALSE(a.uniform());
  a.fill(0.5);
  EXPECT_TRUE(a.uniform());
  EXPECT_TRUE(a.dense());
  a.give(1, 0.5);  // same share, but written per job: dense, not uniform
  EXPECT_FALSE(a.uniform());
  EXPECT_TRUE(a.dense());
  a.reset(3);
  a.fill(0.0);  // DenseCopy's pattern: fill(0), then give()
  a.give(2, 1.0);
  EXPECT_TRUE(a.dense());
  EXPECT_FALSE(a.uniform());
  a.fill(0.25);
  a.reset(3);
  EXPECT_FALSE(a.uniform());
  a.fill(0.25);
  a.assign({0.25, 0.25, 0.25});
  EXPECT_FALSE(a.uniform());
}

TEST(AllocationSupport, AssignRebuildsTheSupportFromNonzeroShares) {
  Allocation a;
  a.assign({0.0, 1.5, 0.0, -0.0, 0.25});
  EXPECT_FALSE(a.dense());
  EXPECT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            (std::vector<std::size_t>{1, 4}));
}

// ------------------------------------------------------------ validate_job

TEST(ValidateJob, InstanceRejectsNonFiniteAndNonpositiveFields) {
  const Job good = make_job(0, 0.0, 1.0, SpeedupCurve::power_law(0.5));
  std::vector<Job> bad;
  for (const double size : {kNaN, kInfinity, 0.0, -1.0}) {
    bad.push_back(make_job(1, 0.0, size, SpeedupCurve::power_law(0.5)));
  }
  for (const double weight : {kNaN, kInfinity, 0.0}) {
    Job j = make_job(1, 0.0, 1.0, SpeedupCurve::power_law(0.5));
    j.weight = weight;
    bad.push_back(j);
  }
  for (const double release : {kNaN, kInfinity, -1.0}) {
    bad.push_back(make_job(1, release, 1.0, SpeedupCurve::power_law(0.5)));
  }
  for (const double work : {kNaN, kInfinity}) {
    Job j;
    j.id = 1;
    j.phases = {{1.0, SpeedupCurve::sequential()},
                {work, SpeedupCurve::fully_parallel()}};
    bad.push_back(j);
  }
  for (std::size_t k = 0; k < bad.size(); ++k) {
    EXPECT_THROW(Instance(2, {good, bad[k]}), std::invalid_argument)
        << "case " << k;
  }
}

/// An adaptive source that hands the engine one NaN-size job.
class NaNSizeSource final : public ArrivalSource {
 public:
  double next_time(const EngineView& /*view*/) override {
    return sent_ ? kInf : 0.0;
  }
  std::vector<Job> take(double t, const EngineView& /*view*/) override {
    sent_ = true;
    return {make_job(0, t, kNaN, SpeedupCurve::power_law(0.5))};
  }
  void reset() override { sent_ = false; }

 private:
  bool sent_ = false;
};

TEST(ValidateJob, RunRejectsANaNSizeJobFromACustomSource) {
  IntermediateSrpt sched;
  NaNSizeSource source;
  Engine engine(2);
  EXPECT_THROW((void)engine.run(sched, source), std::invalid_argument);
}

// ------------------------------------------- fractional flow vs reference

/// Neumaier-compensated sum.
struct CompensatedSum {
  double sum = 0.0;
  double carry = 0.0;
  void add(double x) {
    const double t = sum + x;
    carry += std::fabs(sum) >= std::fabs(x) ? (sum - t) + x : (x - t) + sum;
    sum = t;
  }
  [[nodiscard]] double value() const { return sum + carry; }
};

/// ∫ Σ_j p_j(t)/p_j dt over every recorded trajectory: each is exact
/// piecewise-linear between decision points, so the trapezoid rule per
/// segment is the exact integral.
double reference_fractional_flow(const TrajectoryRecorder& rec) {
  std::vector<JobId> ids;
  for (const auto& [id, jt] : rec.trajectories()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  CompensatedSum total;
  for (const JobId id : ids) {
    const JobTrajectory& jt = rec.trajectories().at(id);
    const std::vector<double>& ts = jt.remaining.times();
    const std::vector<double>& vs = jt.remaining.values();
    for (std::size_t k = 0; k + 1 < ts.size(); ++k) {
      total.add(0.5 * (vs[k] + vs[k + 1]) * (ts[k + 1] - ts[k]) / jt.job.size);
    }
  }
  return total.value();
}

void expect_matches_reference(const Instance& inst, const std::string& policy) {
  auto sched = make_scheduler(policy);
  TrajectoryRecorder rec;
  const SimResult r = simulate(inst, *sched, {}, {&rec});
  const double ref = reference_fractional_flow(rec);
  EXPECT_NEAR(r.fractional_flow, ref, 1e-9 * ref) << policy;
}

TEST(FractionalFlow, MatchesReferenceIntegralOnTheE1RandomGrid) {
  for (const double alpha : {0.25, 0.5}) {
    for (const double P : {8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
      for (int s = 0; s < 3; ++s) {
        RandomWorkloadConfig cfg;
        cfg.machines = 8;
        cfg.jobs = 400;
        cfg.P = P;
        cfg.alpha_lo = cfg.alpha_hi = alpha;
        cfg.load = 1.0;
        cfg.seed = static_cast<std::uint64_t>(s) * 101 + 7;
        expect_matches_reference(make_random_instance(cfg), "isrpt");
      }
    }
  }
}

TEST(FractionalFlow, MatchesReferenceIntegralOnTheE5Grid) {
  for (const double alpha : {1.0, 0.99, 0.95, 0.9, 0.75, 0.5, 0.25}) {
    for (const char* policy : {"par-srpt", "isrpt", "equi"}) {
      for (int s = 0; s < 3; ++s) {
        RandomWorkloadConfig cfg;
        cfg.machines = 8;
        cfg.jobs = 300;
        cfg.P = 64.0;
        cfg.alpha_lo = cfg.alpha_hi = alpha;
        cfg.load = 1.0;
        cfg.size_law = SizeLaw::kBimodal;
        cfg.seed = static_cast<std::uint64_t>(s) * 977 + 3;
        expect_matches_reference(make_random_instance(cfg), policy);
      }
    }
  }
}

TEST(FractionalFlow, MatchesReferenceIntegralOnE13PhasedJobs) {
  for (const double frac : {0.1, 0.25, 0.5, 0.75}) {
    for (const char* policy :
         {"isrpt", "seq-srpt", "par-srpt", "equi", "laps:0.5"}) {
      PhasedWorkloadConfig cfg;
      cfg.machines = 16;
      cfg.jobs = 300;
      cfg.bottleneck_fraction = frac;
      cfg.load = 0.9;
      cfg.seed = 29;
      expect_matches_reference(make_phased_instance(cfg), policy);
    }
  }
}

/// The backlog_stream shape at 10^4: a batch backlog released at t = 0,
/// then Poisson arrivals at load 1, each followed by advance_to(release).
struct BacklogInputs {
  std::vector<Job> backlog;
  std::vector<Job> arrivals;
};

BacklogInputs backlog_inputs(std::size_t backlog, std::size_t arrivals) {
  BatchWorkloadConfig b;
  b.machines = 16;
  b.jobs = backlog;
  b.P = 64.0;
  b.size_law = SizeLaw::kBoundedPareto;
  b.alpha_law = AlphaLaw::kMixed;
  b.alpha_lo = 0.2;
  b.alpha_hi = 0.8;
  b.seed = 3;
  RandomWorkloadConfig a;
  a.machines = 16;
  a.jobs = arrivals;
  a.P = 64.0;
  a.size_law = SizeLaw::kBoundedPareto;
  a.alpha_law = AlphaLaw::kMixed;
  a.alpha_lo = 0.2;
  a.alpha_hi = 0.8;
  a.load = 1.0;
  a.seed = 4;
  BacklogInputs in;
  in.backlog = make_batch_instance(b).jobs();
  in.arrivals = make_random_instance(a).jobs();
  for (Job& j : in.arrivals) j.id += static_cast<JobId>(backlog);
  return in;
}

TEST(FractionalFlow, MatchesReferenceIntegralOnABacklogStream) {
  const BacklogInputs in = backlog_inputs(10000, 60);
  for (const char* policy : {"isrpt", "par-srpt", "laps:0.5", "equi"}) {
    auto sched = make_scheduler(policy);
    TrajectoryRecorder rec;
    Engine eng(16);
    eng.add_observer(&rec);
    eng.begin(*sched);
    for (const Job& j : in.backlog) eng.admit(j);
    eng.advance_to(0.0);
    for (const Job& j : in.arrivals) {
      eng.admit(j);
      eng.advance_to(j.release);
    }
    // Every alive job has a knot at the engine's time (the deferred
    // decision there), so the recorded trajectories cover exactly the
    // integrated interval.
    const double ref = reference_fractional_flow(rec);
    EXPECT_NEAR(eng.partial().fractional_flow, ref, 1e-9 * ref) << policy;
  }
}

// -------------------------------------------------------- due-list pins
//
// A fresh job can have an event at rate 0: it completes (size within the
// completion tolerance) or leaves a first phase that is. The sweep visits
// such jobs although they hold no share. The expected values below are
// the dense engine's (the per-job advance sweep before sparse steps),
// bit for bit.

/// Gives every processor to the alive job with the lowest id.
class ServeLowestId final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "ServeLowestId"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    const auto alive = ctx.alive();
    out.reset(alive.size());
    if (alive.empty()) return;
    std::size_t best = 0;
    for (std::size_t i = 1; i < alive.size(); ++i) {
      if (alive[i].id < alive[best].id) best = i;
    }
    out.give(best, static_cast<double>(ctx.machines()));
  }
};

SimResult run_both_ways(const Instance& inst, bool streaming) {
  ServeLowestId sched;
  if (!streaming) return simulate(inst, sched);
  Engine eng(inst.machines());
  eng.begin(sched);
  for (const Job& j : inst.jobs()) eng.admit(j);
  return eng.finish();
}

double completion_of(const SimResult& r, JobId id) {
  for (const JobRecord& rec : r.records) {
    if (rec.job.id == id) return rec.completion;
  }
  return -1.0;
}

TEST(DueList, UnservedTinyJobCompletesAtTheEndOfItsFirstInterval) {
  const Instance inst(1, {make_job(0, 0.0, 1.0, SpeedupCurve::fully_parallel()),
                          make_job(1, 0.5, 1e-12, SpeedupCurve::sequential()),
                          make_job(2, 0.0, 1e-12, SpeedupCurve::sequential())});
  for (const bool streaming : {false, true}) {
    const SimResult r = run_both_ways(inst, streaming);
    EXPECT_EQ(r.decisions, 2u);
    EXPECT_EQ(completion_of(r, 2), 0.5);  // first interval ends at job 1
    EXPECT_EQ(completion_of(r, 0), 1.0);
    EXPECT_EQ(completion_of(r, 1), 1.0);
    EXPECT_EQ(r.total_flow, 2.0);
    EXPECT_EQ(r.fractional_flow, 1.5);
  }
}

TEST(DueList, ServedTinyJobIsVisitedOnce) {
  // Job 1 is due (fresh, within tolerance) and, holding the lowest id,
  // also runs: the sweep must advance it once, at its rate.
  const Instance inst(1, {make_job(5, 0.0, 1.0, SpeedupCurve::fully_parallel()),
                          make_job(1, 0.5, 1e-12, SpeedupCurve::sequential())});
  for (const bool streaming : {false, true}) {
    const SimResult r = run_both_ways(inst, streaming);
    EXPECT_EQ(r.decisions, 3u);
    EXPECT_EQ(completion_of(r, 1), 0x1.000000000232fp-1);
    EXPECT_EQ(completion_of(r, 5), 0x1.0000000001198p+0);
    EXPECT_EQ(r.total_flow, 0x1.000000000233p+0);
    EXPECT_NEAR(r.fractional_flow, 0x1.000000000232fp-1, 1e-15);
  }
}

TEST(DueList, TinyFirstPhaseAdvancesAtRateZero) {
  const Instance inst(
      4, {make_job(0, 0.0, 1.0, SpeedupCurve::sequential()),
          make_phased_job(1, 0.0,
                          {{1e-12, SpeedupCurve::power_law(0.2)},
                           {1.0, SpeedupCurve::fully_parallel()}})});
  for (const bool streaming : {false, true}) {
    const SimResult r = run_both_ways(inst, streaming);
    // Job 1 leaves its 1e-12 phase while unserved, so when job 0 is done
    // it runs fully parallel on 4 processors: done at 1.25, in 2 steps.
    EXPECT_EQ(r.decisions, 2u);
    EXPECT_EQ(completion_of(r, 0), 1.0);
    EXPECT_EQ(completion_of(r, 1), 1.25);
    EXPECT_EQ(r.total_flow, 2.25);
    EXPECT_NEAR(r.fractional_flow, 0x1.a000000000233p+0, 1e-15);
  }
}

// ------------------------------------------------- sparse vs dense decisions

/// Re-issues its inner policy's shares as a dense decision (fill(0), then
/// give), so the engine takes its every-job path for the same shares.
class DenseCopy final : public Scheduler {
 public:
  explicit DenseCopy(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    inner_->allocate(ctx, sparse_);
    out.reset(ctx.alive().size());
    out.fill(0.0);
    const std::span<const double> shares = sparse_.shares();
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (shares[i] != 0.0) out.give(i, shares[i]);  // lint: float-eq-ok
    }
    out.reconsider_at = sparse_.reconsider_at;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  Allocation sparse_;
};

TEST(SparseSteps, MatchTheDensePathBitForBit) {
  // Equal sizes released together complete together, so steps with
  // several completions (and supports in non-index order) are common.
  std::vector<Job> ties;
  for (JobId id = 0; id < 48; ++id) {
    ties.push_back(make_job(id, 0.25 * static_cast<double>(id / 12),
                            1.0 + static_cast<double>(id % 3),
                            SpeedupCurve::power_law(0.5)));
  }
  RandomWorkloadConfig rnd;
  rnd.machines = 4;
  rnd.jobs = 300;
  rnd.load = 1.0;
  rnd.seed = 11;
  PhasedWorkloadConfig phased;
  phased.machines = 4;
  phased.jobs = 200;
  phased.seed = 5;
  const Instance instances[] = {Instance(4, ties), make_random_instance(rnd),
                                make_phased_instance(phased)};
  for (const Instance& inst : instances) {
    for (const char* policy : {"isrpt", "seq-srpt", "par-srpt", "laps:0.5",
                               "greedy", "quantized-equi:0.5"}) {
      auto sparse = make_scheduler(policy);
      DenseCopy dense(make_scheduler(policy));
      const SimResult a = simulate(inst, *sparse);
      const SimResult b = simulate(inst, dense);
      EXPECT_EQ(a.decisions, b.decisions) << policy;
      EXPECT_EQ(bits(a.total_flow), bits(b.total_flow)) << policy;
      EXPECT_EQ(bits(a.fractional_flow), bits(b.fractional_flow)) << policy;
      ASSERT_EQ(a.records.size(), b.records.size()) << policy;
      for (std::size_t k = 0; k < a.records.size(); ++k) {
        EXPECT_EQ(a.records[k].job.id, b.records[k].job.id) << policy;
        EXPECT_EQ(bits(a.records[k].completion), bits(b.records[k].completion))
            << policy;
      }
    }
  }
}

// --------------------------------------------------- uniform decisions

/// Wraps a policy and re-writes job 0's share with give(): same shares,
/// still dense, but no longer uniform — so the engine evaluates every
/// rate through the kernels instead of its uniform shortcut.
class NonUniformCopy final : public Scheduler {
 public:
  explicit NonUniformCopy(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    inner_->allocate(ctx, out);
    if (out.uniform()) out.give(0, out.shares()[0]);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

void expect_bit_identical(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.decisions, b.decisions) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(bits(a.total_flow), bits(b.total_flow)) << what;
  EXPECT_EQ(bits(a.weighted_flow), bits(b.weighted_flow)) << what;
  EXPECT_EQ(bits(a.fractional_flow), bits(b.fractional_flow)) << what;
  EXPECT_EQ(bits(a.makespan), bits(b.makespan)) << what;
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (std::size_t k = 0; k < a.records.size(); ++k) {
    EXPECT_EQ(a.records[k].job.id, b.records[k].job.id) << what;
    EXPECT_EQ(bits(a.records[k].completion), bits(b.records[k].completion))
        << what << " record " << k;
  }
}

// The uniform shortcut (one rate speed·s, min(phase_remaining) / r) must
// give exactly the kernel path's bits: Γ(x) = x on [0, 1] for every
// curve, and division by r > 0 is monotone. Shares above 1 (fewer jobs
// than machines) take the kernels either way.
TEST(UniformDecisions, MatchTheKernelPathBitForBit) {
  RandomWorkloadConfig rnd;
  rnd.machines = 8;
  rnd.jobs = 300;
  rnd.P = 64.0;
  rnd.load = 1.0;
  rnd.size_law = SizeLaw::kBimodal;
  rnd.seed = 3;
  PhasedWorkloadConfig phased;
  phased.machines = 16;
  phased.jobs = 300;
  phased.load = 0.9;
  phased.seed = 29;
  const Instance instances[] = {make_random_instance(rnd),
                                make_phased_instance(phased)};
  for (const double speed : {1.0, 1.5}) {
    EngineConfig ec;
    ec.speed = speed;
    for (const Instance& inst : instances) {
      for (const char* policy :
           {"equi", "isrpt", "isrpt-thresh:2.0", "setf:0.2", "wisrpt"}) {
        auto uniform = make_scheduler(policy);
        NonUniformCopy kernel(make_scheduler(policy));
        expect_bit_identical(simulate(inst, *uniform, ec),
                             simulate(inst, kernel, ec),
                             std::string(policy) + " speed " +
                                 std::to_string(speed));
      }
    }
  }
}

// ----------------------------------------------- one live remaining column
//
// Remaining work lives only in the engine's SoA column; the records'
// AliveJob::remaining is refreshed only for observers. A policy that
// still read the records would see admission values without an
// observer and values one decision old with one, so running every
// registry policy both ways and requiring bit-identical results catches
// any such read.

class NoopObserver final : public Observer {};

const char* const kRegistryPolicies[] = {
    "isrpt",    "seq-srpt", "par-srpt",        "greedy",
    "equi",     "laps:0.5", "oldest-equi:0.5", "setf:0.2",
    "mlf",      "wisrpt",   "isrpt-thresh:2.0", "isrpt-boost",
    "quantized-equi:0.5",
};

void expect_observer_blind(const Instance& inst, const std::string& what) {
  for (const char* policy : kRegistryPolicies) {
    auto plain = make_scheduler(policy);
    auto watched = make_scheduler(policy);
    NoopObserver noop;
    expect_bit_identical(simulate(inst, *plain),
                         simulate(inst, *watched, {}, {&noop}),
                         std::string(policy) + " on " + what);
  }
}

TEST(RemainingColumn, PoliciesIgnoreTheRecordsOnTheE1Grid) {
  for (const double alpha : {0.25, 0.5}) {
    for (const double P : {8.0, 64.0, 256.0}) {
      RandomWorkloadConfig cfg;
      cfg.machines = 8;
      cfg.jobs = 400;
      cfg.P = P;
      cfg.alpha_lo = cfg.alpha_hi = alpha;
      cfg.load = 1.0;
      cfg.seed = 7;
      expect_observer_blind(make_random_instance(cfg),
                            "E1 alpha " + std::to_string(alpha) + " P " +
                                std::to_string(P));
    }
  }
}

TEST(RemainingColumn, PoliciesIgnoreTheRecordsOnTheE5Grid) {
  for (const double alpha : {1.0, 0.9, 0.5, 0.25}) {
    RandomWorkloadConfig cfg;
    cfg.machines = 8;
    cfg.jobs = 300;
    cfg.P = 64.0;
    cfg.alpha_lo = cfg.alpha_hi = alpha;
    cfg.load = 1.0;
    cfg.size_law = SizeLaw::kBimodal;
    cfg.seed = 3;
    expect_observer_blind(make_random_instance(cfg),
                          "E5 alpha " + std::to_string(alpha));
  }
}

TEST(RemainingColumn, PoliciesIgnoreTheRecordsOnPhasedJobs) {
  PhasedWorkloadConfig cfg;
  cfg.machines = 16;
  cfg.jobs = 300;
  cfg.bottleneck_fraction = 0.25;
  cfg.load = 0.9;
  cfg.seed = 29;
  expect_observer_blind(make_phased_instance(cfg), "phased");
}

// Observers see the live remaining work: at every decision the records
// they are handed agree bit-for-bit with the engine's column.
TEST(RemainingColumn, ObserversSeeTheColumnsValues) {
  class Checker final : public Observer {
   public:
    explicit Checker(const Engine* e) : engine_(e) {}
    void on_decision(double, std::span<const AliveJob> alive,
                     std::span<const double>) override {
      const std::vector<double>& col = engine_->alive_soa().remaining;
      ASSERT_EQ(col.size(), alive.size());
      for (std::size_t i = 0; i < alive.size(); ++i) {
        if (bits(alive[i].remaining) != bits(col[i])) ++stale;
      }
      ++decisions;
    }
    std::size_t decisions = 0;
    std::size_t stale = 0;

   private:
    const Engine* engine_;
  };
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 200;
  cfg.load = 1.0;
  cfg.seed = 13;
  const Instance inst = make_random_instance(cfg);
  for (const char* policy : {"equi", "isrpt", "laps:0.5"}) {
    Engine engine(inst.machines());
    Checker checker(&engine);
    engine.add_observer(&checker);
    auto sched = make_scheduler(policy);
    VectorSource source(inst.jobs());
    (void)engine.run(*sched, source);
    EXPECT_GT(checker.decisions, 0u) << policy;
    EXPECT_EQ(checker.stale, 0u) << policy;
  }
}

// ------------------------------------------------------ snapshot continuation

TEST(SparseSnapshot, DeferredDecisionWithUnsweptJobsContinuesBitIdentically) {
  for (const char* policy : {"isrpt", "par-srpt", "laps:0.5", "equi"}) {
    auto donor_sched = make_scheduler(policy);
    Engine donor(2);
    donor.begin(*donor_sched);
    for (JobId id = 0; id < 6; ++id) {
      donor.admit(make_job(id, 0.0, 1.0 + id, SpeedupCurve::power_law(0.5)));
    }
    donor.advance_to(0.3);
    // Fresh at 0.7: a tiny job, one whose first phase is tiny, and a
    // plain one. advance_to(0.7) admits them and defers the decision taken
    // there, so the snapshot holds alive jobs no sweep has visited yet.
    donor.admit(make_job(10, 0.7, 1e-12, SpeedupCurve::sequential()));
    donor.admit(make_phased_job(11, 0.7,
                                {{1e-12, SpeedupCurve::power_law(0.3)},
                                 {2.0, SpeedupCurve::fully_parallel()}}));
    donor.admit(make_job(12, 0.7, 3.0, SpeedupCurve::power_law(0.7)));
    donor.advance_to(0.7);

    serve::SessionSnapshot snap;
    snap.policy = policy;
    snap.scheduler_state = donor_sched->save_state();
    snap.engine = donor.export_state();
    ASSERT_TRUE(snap.engine.has_cached_alloc) << policy;
    const serve::SessionSnapshot back =
        serve::decode_snapshot(serve::encode_snapshot(snap));
    auto restored_sched = make_scheduler(policy);
    restored_sched->load_state(back.scheduler_state);
    Engine restored(2);
    restored.import_state(back.engine, *restored_sched);

    for (Engine* e : {&donor, &restored}) {
      e->admit(make_job(20, 1.5, 0.5, SpeedupCurve::power_law(0.4)));
    }
    const SimResult want = donor.finish();
    const SimResult got = restored.finish();
    EXPECT_EQ(got.decisions, want.decisions) << policy;
    EXPECT_EQ(bits(got.total_flow), bits(want.total_flow)) << policy;
    EXPECT_EQ(bits(got.weighted_flow), bits(want.weighted_flow)) << policy;
    EXPECT_EQ(bits(got.fractional_flow), bits(want.fractional_flow))
        << policy;
    ASSERT_EQ(got.records.size(), want.records.size()) << policy;
    for (std::size_t k = 0; k < want.records.size(); ++k) {
      EXPECT_EQ(got.records[k].job.id, want.records[k].job.id) << policy;
      EXPECT_EQ(bits(got.records[k].completion),
                bits(want.records[k].completion))
          << policy;
    }
  }
}

TEST(SparseSnapshot, ImportRejectsACachedAllocationOfTheWrongSize) {
  IntermediateSrpt sched;
  Engine donor(2);
  donor.begin(sched);
  for (JobId id = 0; id < 3; ++id) {
    donor.admit(make_job(id, 0.0, 1.0 + id, SpeedupCurve::power_law(0.5)));
  }
  donor.advance_to(0.0);
  EngineState st = donor.export_state();
  ASSERT_TRUE(st.has_cached_alloc);
  st.cached_alloc.assign({1.0, 1.0});  // three alive jobs, two shares
  IntermediateSrpt restored_sched;
  Engine restored(2);
  EXPECT_THROW(restored.import_state(st, restored_sched),
               std::invalid_argument);
}

// ------------------------------------------------------------ visited jobs

TEST(VisitedJobs, IsrptStreamTouchesOnlyRunningAndFreshJobs) {
  const BacklogInputs in = backlog_inputs(10000, 200);
  auto sched = make_scheduler("isrpt");
  obs::MetricsRegistry reg;
  EngineConfig cfg;
  cfg.collect_stats = true;
  cfg.metrics = &reg;
  Engine eng(16, cfg);
  eng.begin(*sched);
  for (const Job& j : in.backlog) eng.admit(j);
  for (const Job& j : in.arrivals) {
    eng.admit(j);
    eng.advance_to(j.release);
  }
  const SimResult r = eng.finish();
  ASSERT_TRUE(r.stats.has_value());
  const obs::RunStats& s = *r.stats;
  EXPECT_GT(s.visited_jobs, 0u);
  EXPECT_LE(s.visited_jobs,
            16 * s.decisions + s.arrivals + s.completions);
  EXPECT_EQ(reg.snapshot().find("engine.visited_jobs")->value,
            static_cast<double>(s.visited_jobs));
}

}  // namespace
}  // namespace parsched
