// Engine guard rails and EngineView queries.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "check/invariant_auditor.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/registry.hpp"
#include "serve/binproto.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "simcore/engine.hpp"
#include "util/mathx.hpp"

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

// A policy that spins: re-decides constantly without progress risk —
// exercises the max_decisions guard.
class SpinScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Spin"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    if (out.size() != 0) out.give(0, 1e-9);  // glacial progress
    out.reconsider_at = ctx.time() + 1e-9;
  }
};

// A policy that overcommits: hands every alive job a whole machine even
// when that exceeds m in total (Σ shares > m).
class InfeasibleScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Infeasible"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    out.fill(1.0);
  }
};

// A policy that emits a negative share.
class NegativeShareScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "NegativeShare"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    out.fill(0.5);
    out.give(0, -0.5);
  }
};

// A policy that allocates nothing and never asks to be re-invoked.
class StallingScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Stalling"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
  }
};

TEST(EngineGuards, EngineRejectsInfeasibleAllocation) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  InfeasibleScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

TEST(EngineGuards, AuditorCatchesInfeasibleAllocation) {
  // With the engine's own validation off, the auditor is the safety net.
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  InfeasibleScheduler sched;
  EngineConfig cfg;
  cfg.validate_allocations = false;
  InvariantAuditor auditor(inst.machines());
  (void)simulate(inst, sched, cfg, {&auditor});
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("overcommitted"), std::string::npos);
  EXPECT_THROW(auditor.require_clean(), AuditFailure);
}

TEST(EngineGuards, EngineRejectsNegativeShare) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5)});
  NegativeShareScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

TEST(EngineGuards, AuditorCatchesNegativeShare) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5)});
  NegativeShareScheduler sched;
  EngineConfig cfg;
  cfg.validate_allocations = false;
  InvariantAuditor auditor(inst.machines());
  // In Debug builds SpeedupCurve::rate's PARSCHED_DCHECK sees the negative
  // share before the auditor does; log it instead of throwing so the run
  // reaches the state this test is about.
  ScopedContractPolicy log_contracts(ContractPolicy::kLog);
  // Once the positive-share job completes, the negative-share job makes no
  // progress and the run stalls — but the auditor has flagged the bad
  // allocation by then.
  EXPECT_THROW((void)simulate(inst, sched, cfg, {&auditor}), SimulationStall);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("negative share"), std::string::npos);
}

TEST(EngineGuards, StallingSchedulerRaisesSimulationStall) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5)});
  StallingScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), SimulationStall);
}

TEST(EngineGuards, ZeroDtLivelockIsDetectedPromptly) {
  // FP-drift livelock: phase works 0.1 + 0.2 sum to 0.30000000000000004,
  // so after both phases drain at rate 1 the job's `remaining` sits a few
  // ulps above zero while its last phase_remaining is exactly 0. With a
  // completion tolerance too tight to absorb the drift, every subsequent
  // decision has dt_complete == 0 and changes nothing. The engine must
  // raise SimulationStall naming the stuck job after a short streak —
  // not grind through the max_decisions budget.
  const SpeedupCurve curve = SpeedupCurve::power_law(0.5);
  Instance inst(1, {make_phased_job(0, 0.0, {{0.1, curve}, {0.2, curve}})});
  IntermediateSrpt sched;
  EngineConfig cfg;
  cfg.completion_tol = 1e-18;
  cfg.max_decisions = 10'000;  // promptness: the streak guard fires long
                               // before this would
  try {
    (void)simulate(inst, sched, cfg);
    FAIL() << "expected SimulationStall";
  } catch (const SimulationStall& e) {
    EXPECT_NE(std::string(e.what()).find("stuck job id=0"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineGuards, FlowIsClampedAtZero) {
  // Direct unit check: a completion recorded before the nominal release
  // (possible because admission treats releases within time_tol of `now`
  // as due) reads as zero flow, never negative.
  JobRecord rec;
  rec.job.release = 2.0;
  rec.completion = 1.0;
  EXPECT_EQ(rec.flow(), 0.0);
}

TEST(EngineGuards, EarlyCompletionClampMatchesBatchAndStreaming) {
  // Job 1's release (1e-10) is inside the time_tol admission window at
  // t = 0, and it is so small that SRPT finishes it at t = 1e-12 — before
  // its own release. Its flow must clamp to exactly 0 in the record, and
  // the batch and streaming paths must agree double for double.
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5),
                    make_job(1, 1e-10, 1e-12, 0.5)});
  auto sched = make_scheduler("seq-srpt");
  const SimResult batch = simulate(inst, *sched);
  ASSERT_EQ(batch.records.size(), 2u);
  const JobRecord* early = nullptr;
  for (const JobRecord& r : batch.records) {
    if (r.job.id == 1) early = &r;
  }
  ASSERT_NE(early, nullptr);
  EXPECT_LT(early->completion, early->job.release);
  EXPECT_EQ(early->flow(), 0.0);

  Engine eng(inst.machines());
  eng.begin(*sched);
  for (const Job& j : inst.jobs()) eng.admit(j);
  const SimResult streamed = eng.finish();
  EXPECT_EQ(streamed.total_flow, batch.total_flow);
  EXPECT_EQ(streamed.weighted_flow, batch.weighted_flow);
  EXPECT_EQ(streamed.fractional_flow, batch.fractional_flow);
}

TEST(EngineGuards, CompletionObserversFireInIdOrder) {
  // Three identical jobs complete in one step. The engine's swap-remove
  // completion sweep appends their records in sweep order ([0, 2, 1] for
  // a three-job prefix), but the observer contract is id order within a
  // step — assert both, so the test fails if either order drifts.
  class CompletionRecorder final : public Observer {
   public:
    void on_completion(double, const Job& job) override {
      ids.push_back(job.id);
    }
    std::vector<JobId> ids;
  };
  Instance inst(4, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  auto sched = make_scheduler("equi");
  CompletionRecorder rec;
  const SimResult r = simulate(inst, *sched, {}, {&rec});
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].job.id, 0u);  // sweep order: swap-remove
  EXPECT_EQ(r.records[1].job.id, 2u);
  EXPECT_EQ(r.records[2].job.id, 1u);
  ASSERT_EQ(rec.ids.size(), 3u);
  EXPECT_EQ(rec.ids[0], 0u);  // observer order: ascending id
  EXPECT_EQ(rec.ids[1], 1u);
  EXPECT_EQ(rec.ids[2], 2u);
}

TEST(EngineGuards, MaxDecisionsAborts) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5)});
  SpinScheduler sched;
  EngineConfig cfg;
  cfg.max_decisions = 1000;
  EXPECT_THROW((void)simulate(inst, sched, cfg), std::runtime_error);
}

// A probing source that asserts EngineView invariants mid-run.
class ProbeSource final : public ArrivalSource {
 public:
  double next_time(const EngineView& view) override {
    if (released_ >= 2) {
      // After both arrivals: probe the tag queries once jobs are alive.
      if (view.alive_count() == 2) {
        probed_ = true;
        probe_remaining_ = view.remaining_tagged(JobTag::Class::kShort, 0);
        probe_count_ = view.alive_tagged(JobTag::Class::kLong, -1);
        completed_before_ = view.is_completed(0);
      }
      return kInf;
    }
    return static_cast<double>(released_);
  }

  std::vector<Job> take(double t, const EngineView& view) override {
    (void)view;
    Job j = make_job(static_cast<JobId>(released_), t, 2.0, 0.5);
    j.tag = released_ == 0 ? JobTag{0, JobTag::Class::kShort, 0}
                           : JobTag{1, JobTag::Class::kLong, 0};
    ++released_;
    return {j};
  }

  void reset() override { released_ = 0; }

  bool probed_ = false;
  double probe_remaining_ = -1.0;
  std::size_t probe_count_ = 99;
  bool completed_before_ = true;
  int released_ = 0;
};

TEST(EngineGuards, EngineViewQueriesAreConsistent) {
  ProbeSource source;
  IntermediateSrpt sched;
  Engine engine(2);
  const SimResult r = engine.run(sched, source);
  EXPECT_EQ(r.jobs(), 2u);
  ASSERT_TRUE(source.probed_);
  // Both jobs alive when probed: the short-tagged one has <= 2.0 left.
  EXPECT_GT(source.probe_remaining_, 0.0);
  EXPECT_LE(source.probe_remaining_, 2.0);
  EXPECT_EQ(source.probe_count_, 1u);      // one long-tagged job, any phase
  EXPECT_FALSE(source.completed_before_);  // job 0 not done at probe time
}

TEST(EngineGuards, IsCompletedFlipsAfterCompletion) {
  // Source releases job 1 only after observing job 0 completed.
  class GateSource final : public ArrivalSource {
   public:
    double next_time(const EngineView& view) override {
      if (stage_ == 0) return 0.0;
      if (stage_ == 1) return view.is_completed(0) ? view.time() : kInf;
      return kInf;
    }
    std::vector<Job> take(double t, const EngineView& view) override {
      (void)view;
      ++stage_;
      return {make_job(static_cast<JobId>(stage_ - 1), t, 1.0, 0.5)};
    }
    void reset() override { stage_ = 0; }
    int stage_ = 0;
  };
  GateSource source;
  IntermediateSrpt sched;
  Engine engine(1);
  const SimResult r = engine.run(sched, source);
  ASSERT_EQ(r.jobs(), 2u);
  EXPECT_NEAR(r.records[0].completion, 1.0, 1e-9);
  EXPECT_NEAR(r.records[1].completion, 2.0, 1e-9);
}

// Engine::admit is a trust boundary: the serve layer hands it whatever a
// client sent. NaN fails every comparison, so each check must be written
// to reject it rather than to accept whatever a `<` lets through.
TEST(EngineGuards, AdmitRejectsNonFiniteReleaseSizeAndWeight) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  IntermediateSrpt sched;
  Engine engine(2);
  engine.begin(sched);

  Job nan_release = make_job(0, 0.0, 1.0, 0.5);
  nan_release.release = kNaN;
  EXPECT_THROW(engine.admit(nan_release), std::invalid_argument);
  Job inf_release = make_job(1, 0.0, 1.0, 0.5);
  inf_release.release = kInfinity;
  EXPECT_THROW(engine.admit(inf_release), std::invalid_argument);
  EXPECT_THROW(engine.admit(make_job(2, 0.0, kInfinity, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(engine.admit(make_job(3, 0.0, kNaN, 0.5)),
               std::invalid_argument);
  Job nan_weight = make_job(4, 0.0, 1.0, 0.5);
  nan_weight.weight = kNaN;
  EXPECT_THROW(engine.admit(nan_weight), std::invalid_argument);
  Job zero_weight = make_job(5, 0.0, 1.0, 0.5);
  zero_weight.weight = 0.0;
  EXPECT_THROW(engine.admit(zero_weight), std::invalid_argument);
  EXPECT_EQ(engine.pending_count(), 0u);

  // Nothing was admitted, so the run finishes with the valid job alone.
  engine.admit(make_job(6, 0.5, 2.0, 0.5));
  const SimResult r = engine.finish();
  ASSERT_EQ(r.jobs(), 1u);
  EXPECT_NEAR(r.total_flow, 2.0 / std::pow(2.0, 0.5), 1e-9);
  EXPECT_EQ(r.weighted_flow, r.total_flow);
}

std::string line_request(serve::ProtocolHandler& h, const std::string& line) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  h.handle_line(line, [p](const std::string& s) { p->set_value(s); });
  return f.get();
}

std::string frame_request(serve::ProtocolHandler& h,
                          const std::string& payload) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  h.handle_frame(payload, [p](const std::string& s) { p->set_value(s); });
  return f.get();
}

// The same boundary seen from both wires: a non-finite admission is a
// request error, and the session it targeted keeps serving.
TEST(EngineGuards, ServeRejectsNonFiniteAdmissionsOnBothWires) {
  serve::ProtocolHandler h(
      serve::Cluster::Config{1, 1, 4, 16, nullptr, nullptr});
  const std::string opened = line_request(
      h, R"({"op":"open","id":1,"policy":"isrpt","machines":2})");
  ASSERT_NE(opened.find(R"("ok":true)"), std::string::npos) << opened;
  const std::string::size_type at = opened.find(R"("session":)");
  ASSERT_NE(at, std::string::npos) << opened;
  const std::uint64_t sid = std::stoull(opened.substr(at + 10));
  const std::string session = std::to_string(sid);

  const std::string huge = line_request(
      h, R"({"op":"admit","id":2,"session":)" + session +
             R"(,"job":{"id":0,"release":0,"size":1e999,"curve":"pow:0.5"}})");
  EXPECT_NE(huge.find(R"("ok":false)"), std::string::npos) << huge;

  Job nan_release = make_job(1, 0.0, 1.0, 0.5);
  nan_release.release = std::numeric_limits<double>::quiet_NaN();
  const serve::BinResponse nan_resp = serve::parse_bin_response(
      frame_request(h, serve::bin_admit(3, sid, nan_release)));
  EXPECT_EQ(nan_resp.status, serve::BinStatus::kError) << nan_resp.error;

  // Curve parameters straight off the wire: a power law with a NaN
  // alpha and a piecewise-linear curve with an infinite knot. No
  // SpeedupCurve can hold either, so the frames are written by hand.
  const auto admit_with_curve = [sid](std::uint64_t rid, auto put_curve) {
    serve::WireWriter w;
    w.u8(static_cast<std::uint8_t>(serve::BinOp::kAdmit));
    w.u64(rid);
    w.u64(sid);
    w.u32(static_cast<std::uint32_t>(rid));  // job id
    w.f64(0.0);                              // release
    w.f64(1.0);                              // size
    w.f64(1.0);                              // weight
    put_curve(w);
    w.size(0);  // no phases
    return w.take();
  };
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const serve::BinResponse nan_alpha = serve::parse_bin_response(
      frame_request(h, admit_with_curve(10, [kNaN](serve::WireWriter& w) {
                      w.u8(static_cast<std::uint8_t>(
                          SpeedupCurve::Kind::kPowerLaw));
                      w.f64(kNaN);
                    })));
  EXPECT_EQ(nan_alpha.status, serve::BinStatus::kError) << nan_alpha.error;
  const serve::BinResponse inf_knot = serve::parse_bin_response(
      frame_request(h, admit_with_curve(11, [kInf](serve::WireWriter& w) {
                      w.u8(static_cast<std::uint8_t>(
                          SpeedupCurve::Kind::kPiecewiseLinear));
                      w.f64(0.5);
                      w.size(3);
                      for (const double v : {1.0, 1.0, 2.0, 1.5, kInf, 2.0}) {
                        w.f64(v);
                      }
                    })));
  EXPECT_EQ(inf_knot.status, serve::BinStatus::kError) << inf_knot.error;
  // An infinite engine speed (only PBIN's raw f64 can carry one) opens
  // no session.
  const serve::BinResponse inf_speed = serve::parse_bin_response(
      frame_request(h, serve::bin_open(12, "isrpt", 2, kInf)));
  EXPECT_EQ(inf_speed.status, serve::BinStatus::kError) << inf_speed.error;
  EXPECT_EQ(inf_speed.error, "engine speed must be finite");

  const std::string ok = line_request(
      h, R"({"op":"admit","id":4,"session":)" + session +
             R"(,"job":{"id":2,"release":0,"size":1,"curve":"pow:0.5"}})");
  EXPECT_NE(ok.find(R"("ok":true)"), std::string::npos) << ok;
  const serve::BinResponse fin =
      serve::parse_bin_response(frame_request(h, serve::bin_finish(5, sid)));
  ASSERT_EQ(fin.status, serve::BinStatus::kOk) << fin.error;
  EXPECT_EQ(fin.jobs, 1u);
  EXPECT_TRUE(std::isfinite(fin.total_flow));
  h.drain();
}

}  // namespace
}  // namespace parsched
