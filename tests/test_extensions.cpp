// Extension features: speed augmentation, multi-phase jobs, Oldest-EQUI,
// and the phased workload generator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sched/equi.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/opt/plan.hpp"
#include "sched/opt/relaxations.hpp"
#include "sched/parallel_srpt.hpp"
#include "sched/registry.hpp"
#include "sched/sequential_srpt.hpp"
#include "simcore/engine.hpp"
#include "simcore/trajectory.hpp"
#include "workload/phased.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

Job make_job(JobId id, double release, double size, double alpha) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = size;
  j.curve = SpeedupCurve::power_law(alpha);
  return j;
}

// ----------------------------------------------------- speed augmentation

TEST(SpeedAugmentation, DoublesProcessingRate) {
  Instance inst(1, {make_job(0, 0.0, 4.0, 0.5)});
  IntermediateSrpt sched;
  EngineConfig cfg;
  cfg.speed = 2.0;
  const SimResult r = simulate(inst, sched, cfg);
  EXPECT_NEAR(r.records[0].completion, 2.0, 1e-9);
}

TEST(SpeedAugmentation, FractionalSpeedSlowsDown) {
  Instance inst(1, {make_job(0, 0.0, 4.0, 0.5)});
  IntermediateSrpt sched;
  EngineConfig cfg;
  cfg.speed = 0.5;
  const SimResult r = simulate(inst, sched, cfg);
  EXPECT_NEAR(r.records[0].completion, 8.0, 1e-9);
}

TEST(SpeedAugmentation, RejectsNonPositiveSpeed) {
  EngineConfig cfg;
  cfg.speed = 0.0;
  EXPECT_THROW(Engine(2, cfg), std::invalid_argument);
  cfg.speed = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Engine(2, cfg), std::invalid_argument);
  cfg.speed = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Engine(2, cfg), std::invalid_argument);
}

TEST(SpeedAugmentation, FlowDecreasesMonotonicallyInSpeed) {
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), i * 0.4,
                            1.0 + (i % 7), 0.5));
  }
  Instance inst(4, jobs);
  Equi sched;
  double prev = 1e18;
  for (double s : {1.0, 1.25, 1.5, 2.0}) {
    EngineConfig cfg;
    cfg.speed = s;
    const double flow = simulate(inst, sched, cfg).total_flow;
    EXPECT_LT(flow, prev);
    prev = flow;
  }
}

// ---------------------------------------------------------- phased jobs

TEST(PhasedJobs, TwoPhaseHandComputed) {
  // Phase 1: 4 units fully parallel; phase 2: 2 units sequential. On
  // m = 4 with Parallel-SRPT: phase 1 at rate 4 (1 time unit), phase 2 at
  // rate 1 (2 time units) -> completion at 3.
  Job j = make_phased_job(0, 0.0,
                          {{4.0, SpeedupCurve::fully_parallel()},
                           {2.0, SpeedupCurve::sequential()}});
  EXPECT_DOUBLE_EQ(j.size, 6.0);
  Instance inst(4, {j});
  ParallelSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.records[0].completion, 3.0, 1e-9);
}

TEST(PhasedJobs, ThreePhasesWithPowerLaws) {
  // m = 16: power_law(0.5) phase at rate 4, sequential at 1, parallel 16.
  Job j = make_phased_job(0, 0.0,
                          {{8.0, SpeedupCurve::power_law(0.5)},
                           {3.0, SpeedupCurve::sequential()},
                           {16.0, SpeedupCurve::fully_parallel()}});
  Instance inst(16, {j});
  ParallelSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.records[0].completion, 8.0 / 4.0 + 3.0 + 1.0, 1e-9);
}

TEST(PhasedJobs, PhaseBoundaryIsAnExactEvent) {
  // Trajectory knots include the phase boundary, with correct slope change.
  Job j = make_phased_job(0, 0.0,
                          {{4.0, SpeedupCurve::fully_parallel()},
                           {4.0, SpeedupCurve::sequential()}});
  Instance inst(2, {j});
  ParallelSrpt sched;
  TrajectoryRecorder rec;
  (void)simulate(inst, sched, {}, {&rec});
  // Phase 1 at rate 2 on [0, 2); phase 2 at rate 1 on [2, 6).
  EXPECT_NEAR(rec.remaining_at(0, 1.0), 6.0, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 2.0), 4.0, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 4.0), 2.0, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 6.0), 0.0, 1e-9);
}

TEST(PhasedJobs, SrptOrderingUsesTotalRemainingWork) {
  // Job A: 2 units left in total; job B: 3 units. Sequential-SRPT on one
  // machine must prefer A regardless of phase structure.
  Job a = make_phased_job(0, 0.0,
                          {{1.0, SpeedupCurve::sequential()},
                           {1.0, SpeedupCurve::sequential()}});
  Job b = make_job(1, 0.0, 3.0, 0.0);
  Instance inst(1, {a, b});
  SequentialSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_EQ(r.records[0].job.id, 0u);
  EXPECT_NEAR(r.records[0].completion, 2.0, 1e-9);
  EXPECT_NEAR(r.records[1].completion, 5.0, 1e-9);
}

TEST(PhasedJobs, SpanLowerBoundSumsPhases) {
  // m = 4, alpha 0.5 phase: Γ(4) = 2; sequential phase: Γ(4) = 1.
  Job j = make_phased_job(0, 0.0,
                          {{4.0, SpeedupCurve::power_law(0.5)},
                           {3.0, SpeedupCurve::sequential()}});
  Instance inst(4, {j});
  EXPECT_NEAR(span_lower_bound(inst), 4.0 / 2.0 + 3.0, 1e-9);
}

TEST(PhasedJobs, NormalizeRejectsBadPhases) {
  Job j;
  j.phases = {{0.0, SpeedupCurve::sequential()}};
  EXPECT_THROW(j.normalize_phases(), std::invalid_argument);
}

TEST(PhasedJobs, PlansRejectMultiPhaseJobs) {
  Job j = make_phased_job(0, 0.0,
                          {{1.0, SpeedupCurve::sequential()},
                           {1.0, SpeedupCurve::sequential()}});
  Instance inst(1, {j});
  Plan plan;
  plan.add(0, 0.0, 2.0, 1.0);
  EXPECT_THROW((void)execute_plan(inst, plan), InfeasiblePlan);
}

TEST(PhasedJobs, RealizedJobsRoundTripThroughResimulation) {
  PhasedWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 40;
  cfg.seed = 3;
  const Instance inst = make_phased_instance(cfg);
  IntermediateSrpt sched;
  const SimResult first = simulate(inst, sched);
  const Instance again(4, first.realized_jobs());
  const SimResult second = simulate(inst, sched);
  EXPECT_NEAR(first.total_flow, second.total_flow, 1e-9 * first.total_flow);
  // The records carry the full phase structure back out.
  bool any_phased = false;
  for (const auto& rec : first.records) {
    if (!rec.job.phases.empty()) any_phased = true;
  }
  EXPECT_TRUE(any_phased);
}

// ------------------------------------------------------ phased workload

TEST(PhasedWorkload, GeneratesAlternatingPhases) {
  PhasedWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 50;
  cfg.max_rounds = 2;
  cfg.seed = 11;
  const Instance inst = make_phased_instance(cfg);
  EXPECT_EQ(inst.size(), 50u);
  for (const Job& j : inst.jobs()) {
    ASSERT_FALSE(j.phases.empty());
    EXPECT_EQ(j.phases.size() % 2, 0u);  // (parallel, bottleneck) pairs
    double total = 0.0;
    for (const auto& p : j.phases) total += p.work;
    EXPECT_NEAR(total, j.size, 1e-9 * j.size);
    EXPECT_LE(j.size, cfg.P + 1e-9);
  }
}

TEST(PhasedWorkload, AllPoliciesCompleteIt) {
  PhasedWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 60;
  cfg.seed = 17;
  const Instance inst = make_phased_instance(cfg);
  const double lb = opt_lower_bound(inst);
  for (const auto& name : standard_policy_names()) {
    auto sched = make_scheduler(name);
    const SimResult r = simulate(inst, *sched);
    EXPECT_EQ(r.jobs(), inst.size()) << name;
    EXPECT_GE(r.total_flow, lb - 1e-6 * lb) << name;
  }
}

TEST(PhasedWorkload, RejectsBadConfig) {
  PhasedWorkloadConfig cfg;
  cfg.max_rounds = 0;
  EXPECT_THROW((void)make_phased_instance(cfg), std::invalid_argument);
  cfg.max_rounds = 2;
  cfg.bottleneck_fraction = 1.5;
  EXPECT_THROW((void)make_phased_instance(cfg), std::invalid_argument);
}

// ---------------------------------------------------------- Oldest-EQUI

TEST(OldestEqui, ServesOldestJobsFirst) {
  // beta = 0.5, 2 jobs: only the OLDEST gets processors.
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.1, 2.0, 0.5)});
  OldestEqui sched(0.5);
  const SimResult r = simulate(inst, sched);
  // job0 monopolizes: rate 2^0.5 from 0; done at 2/sqrt(2) = sqrt(2).
  ASSERT_EQ(r.records[0].job.id, 0u);
  EXPECT_NEAR(r.records[0].completion, std::sqrt(2.0), 1e-9);
}

TEST(OldestEqui, BetaOneIsEqui) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), i * 0.3, 2.0, 0.5));
  }
  Instance inst(4, jobs);
  OldestEqui oldest(1.0);
  Equi equi;
  EXPECT_NEAR(simulate(inst, oldest).total_flow,
              simulate(inst, equi).total_flow, 1e-6);
}

TEST(OldestEqui, BoundsMaxFlowBetterThanLaps) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 200;
  cfg.load = 1.2;
  cfg.seed = 29;
  const Instance inst = make_random_instance(cfg);
  auto oldest = make_scheduler("oldest-equi:0.5");
  auto laps = make_scheduler("laps:0.5");
  EXPECT_LT(simulate(inst, *oldest).max_flow(),
            simulate(inst, *laps).max_flow());
}

TEST(OldestEqui, RejectsBadBeta) {
  EXPECT_THROW(OldestEqui(0.0), std::invalid_argument);
  EXPECT_THROW(OldestEqui(1.0001), std::invalid_argument);
}

TEST(OldestEqui, RegistryBuildsIt) {
  EXPECT_EQ(make_scheduler("oldest-equi:0.25")->name(), "Oldest-EQUI(0.25)");
}

}  // namespace
}  // namespace parsched
