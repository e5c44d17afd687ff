// perfbench's own tests: the statistics, the span arithmetic, the
// open-loop plan and reply matching, and the ratio_sweep digest.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <random>

#include "harness/openloop.hpp"
#include "harness/ratio_sweep.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "serve/binproto.hpp"
#include "serve/protocol.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(nearest_rank(v, 0.5), 50.0);
  EXPECT_EQ(nearest_rank(v, 0.99), 99.0);
  EXPECT_EQ(nearest_rank(v, 1.0), 100.0);
  EXPECT_EQ(nearest_rank(v, 0.001), 1.0);
  EXPECT_EQ(nearest_rank(one_to(10), 0.25), 3.0);  // rank ceil(2.5) = 3
  EXPECT_THROW((void)nearest_rank({}, 0.5), std::invalid_argument);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(1000, 0.99));   // rank 990, 10 beyond
  EXPECT_FALSE(percentile_supported(999, 0.99));   // rank 990, 9 beyond
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(100, 0.95));

  const Percentile ok = tail(one_to(1000), 0.99);
  EXPECT_EQ(ok.p, 0.99);
  EXPECT_EQ(ok.value, 990.0);
  EXPECT_EQ(ok.n, 1000u);

  // 100 samples cannot carry a p99: the highest supported one is p90.
  const Percentile fallback = tail(one_to(100), 0.99);
  EXPECT_DOUBLE_EQ(fallback.p, 0.9);
  EXPECT_EQ(fallback.value, 90.0);

  // The median is always reported, even from a handful of samples.
  EXPECT_EQ(tail(one_to(5), 0.5).value, 3.0);
  EXPECT_EQ(tail(one_to(5), 0.99).value, 3.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> s(5);
  s[0] = {"root", 0.0, 10.0, 0, -1, 0, 0};
  s[1] = {"a", 1.0, 3.0, 1, 0, 0, 1};   // overlaps b: children on two threads
  s[2] = {"b", 2.0, 5.0, 2, 0, 0, 2};
  s[3] = {"c", 8.0, 12.0, 3, 0, 0, 1};  // runs past its parent's end
  s[4] = {"a.child", 1.5, 2.0, 4, 1, 0, 1};
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);  // [1,5] and [8,10] covered
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);

  const auto by_name = self_time_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 4.0);
  EXPECT_DOUBLE_EQ(by_name.at("a"), 1.5);
}

TEST(SelfTime, TracerRecordsNesting) {
  Tracer tr(true);
  {
    Tracer::Scope outer(tr, "layer.outer", 7);
    Tracer::Scope inner(tr, "layer.inner", 7);
  }
  const std::vector<Span> spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].rid, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);

  Tracer off(false);
  Tracer::Scope nothing(off, "layer.call");
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, PlanIsDeterministicFromTheSeed) {
  PlanConfig pc;
  pc.seed = 42;
  Planner a(pc);
  Planner b(pc);
  pc.seed = 43;
  Planner c(pc);
  const std::vector<Planned> pa = a.phase(1000.0, 0.5);
  const std::vector<Planned> pb = b.phase(1000.0, 0.5);
  const std::vector<Planned> pc2 = c.phase(1000.0, 0.5);
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_EQ(pa.size(), 500u + static_cast<std::size_t>(0.5 / pc.stats_period_s));
  bool differs = false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].due, pb[i].due);
    EXPECT_EQ(pa[i].rid, pb[i].rid);
    EXPECT_EQ(pa[i].session, pb[i].session);
    EXPECT_EQ(pa[i].verb, pb[i].verb);
    EXPECT_EQ(encode_ndjson(pa[i], 9), encode_ndjson(pb[i], 9));
    EXPECT_EQ(encode_pbin(pa[i], 9), encode_pbin(pb[i], 9));
    differs = differs || pa[i].session != pc2[i].session || pa[i].verb != pc2[i].verb;
    if (i > 0) EXPECT_LE(pa[i - 1].due, pa[i].due);
  }
  EXPECT_TRUE(differs);

  // Session requests are due on the fixed grid k / rate, whatever the
  // replies do.
  std::vector<double> dues;
  for (const Planned& p : pa) {
    if (p.verb != Verb::kStats) dues.push_back(p.due);
  }
  for (std::size_t k = 0; k < dues.size(); ++k) {
    EXPECT_DOUBLE_EQ(dues[k], static_cast<double>(k) / 1000.0);
  }
}

TEST(OpenLoop, SessionsSendLoadgensSequence) {
  PlanConfig pc;
  pc.seed = 5;
  pc.sessions = 4;
  Planner planner(pc);
  std::vector<std::vector<Planned>> by_session(pc.sessions);
  for (int phase = 0; phase < 2; ++phase) {  // the sequence spans phases
    for (const Planned& p : planner.phase(2000.0, 0.25)) {
      if (p.verb != Verb::kStats) by_session[p.session].push_back(p);
    }
  }
  for (const std::vector<Planned>& ops : by_session) {
    ASSERT_GT(ops.size(), 2 * (kAdvanceEvery + 1));
    std::uint32_t next_job = 0;
    double last_release = -1.0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Planned& p = ops[k];
      if (k % (kAdvanceEvery + 1) == kAdvanceEvery) {
        ASSERT_EQ(p.verb, Verb::kAdvance);
        EXPECT_EQ(p.to, last_release);
        continue;
      }
      ASSERT_EQ(p.verb, Verb::kAdmit);
      EXPECT_EQ(p.job_id, next_job++);
      EXPECT_GT(p.release, last_release);
      last_release = p.release;
      EXPECT_GE(p.size, 0.5);
      EXPECT_LE(p.size, 2.0);
      EXPECT_GE(p.alpha, 0.25);
      EXPECT_LE(p.alpha, 0.75);
      EXPECT_EQ(job_of(p).curve.alpha(), p.alpha);
    }
  }
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Sent 3 ms late, answered 1 ms after sending: 4 ms of latency.
  const RequestTiming t{10.000, 10.003, 10.004};
  EXPECT_NEAR(t.latency(), 0.004, 1e-12);
  EXPECT_NEAR(t.lag(), 0.003, 1e-12);
  EXPECT_NEAR(t.rtt(), 0.001, 1e-12);
}

TEST(OpenLoop, RepliesMatchByIdAcrossCodecsAndSessions) {
  namespace sv = parsched::serve;
  parsched::obs::MetricsRegistry metrics;
  sv::ProtocolHandler h(sv::Cluster::Config{2, 1, 16, 128, &metrics, nullptr});
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, bool>> replies;  // (bytes, pbin)
  auto collect = [&](bool pbin) {
    return [&, pbin](const std::string& r) {
      std::lock_guard<std::mutex> lock(mu);
      replies.emplace_back(r, pbin);
      cv.notify_all();
    };
  };
  auto wait_for = [&](std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replies.size() >= n; });
  };
  // Session 1 over NDJSON, session 2 over PBIN.
  (void)h.handle_line(R"({"op":"open","id":1,"policy":"isrpt","machines":4})",
                      collect(false));
  wait_for(1);
  (void)h.handle_frame(sv::bin_open(2, "equi", 4, 1.0), collect(true));
  wait_for(2);
  replies.clear();

  PlanConfig pc;
  pc.sessions = 2;
  Planner planner(pc);
  std::vector<Planned> plan = planner.phase(2000.0, 0.05);
  ReplyMatcher m;
  const std::uint64_t sid[] = {1, 2};
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Planned& p = plan[i];
    if (p.verb == Verb::kStats) continue;
    p.conn = conn_of_session(p.session);
    m.expect(p.rid, i);
    if (p.conn == 1) {
      (void)h.handle_frame(encode_pbin(p, sid[p.session]), collect(true));
    } else {
      (void)h.handle_line(encode_ndjson(p, sid[p.session]), collect(false));
    }
  }
  const std::size_t expected = m.outstanding();
  wait_for(expected);
  // Deliver them in an order unrelated to submission.
  std::shuffle(replies.begin(), replies.end(), std::mt19937(3));
  for (const auto& [bytes, pbin] : replies) {
    const std::optional<ReplyInfo> info = parse_reply(bytes, pbin);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->ok);
    const std::optional<std::size_t> slot = m.match(info->rid);
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(plan[*slot].rid, info->rid);
    EXPECT_EQ(plan[*slot].conn == 1, pbin);
  }
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_FALSE(m.match(plan.front().rid).has_value());  // answered once only
  EXPECT_FALSE(parse_reply("not json", false).has_value());
  EXPECT_FALSE(parse_reply("xy", true).has_value());
  h.drain();
}

TEST(RatioSweep, DigestIsBitEqualAtOneAndTwoThreads) {
  const std::vector<SweepTask> tasks = make_sweep_tasks(11, 8, 150);
  Tracer off(false);
  const SweepOutcome one = run_sweep(tasks, 1, off, nullptr);
  const SweepOutcome two = run_sweep(tasks, 2, off, nullptr);
  ASSERT_EQ(one.tasks.size(), two.tasks.size());
  for (std::size_t i = 0; i < one.tasks.size(); ++i) {
    EXPECT_TRUE(one.tasks[i].ok);
    EXPECT_EQ(one.tasks[i].alg_flow, two.tasks[i].alg_flow);
    EXPECT_EQ(one.tasks[i].decisions, two.tasks[i].decisions);
    EXPECT_LE(one.tasks[i].opt_lower, one.tasks[i].opt_upper);
    EXPECT_LE(one.tasks[i].opt_upper, one.tasks[i].alg_flow);
  }
  EXPECT_EQ(one.digest, two.digest);

  // The traced path scores the same tasks to the same digest.
  Tracer tr(true);
  EngineProbe probe;
  EXPECT_EQ(run_sweep(tasks, 2, tr, &probe).digest, one.digest);
  EXPECT_FALSE(probe.tallies().empty());
}

}  // namespace
}  // namespace perfbench
