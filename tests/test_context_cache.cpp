// Differential tests for the SchedulerContext ordering helpers and the
// per-decision answer memo of the engine's ordering module.
//
// The contract under test: the IncrementalOrders behind every
// SchedulerContext — persistent orders, the per-decision memo with its
// prefix extension, the engine's reusable scratch buffers, the sparse
// advance sweep and the sparse completion sweep — is pure mechanism. Every
// ordering answer must equal the oracle's (tests/simcore/ordering_oracle.hpp:
// per-call iota + sort / nth_element), and a run whose every answer is
// checked against the oracle must be double-for-double identical to the
// production run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/incremental.hpp"
#include "simcore/ordering_oracle.hpp"  // tests/simcore/: the oracle
#include "simcore/scheduler.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

// Every registry family, parameterized variants included, so each
// helper is exercised by a policy that actually calls it
// (smallest_remaining: the SRPT family; latest_arrivals: LAPS;
// by_latest_arrival: quantized-equi; min_remaining: par-srpt;
// by_remaining: mlf / wisrpt / setf / the opt searchers).
const char* const kAllPolicies[] = {
    "isrpt",         "seq-srpt",        "par-srpt",
    "greedy",        "equi",            "isrpt-boost",
    "mlf",           "wisrpt",          "laps:0.25",
    "laps:0.5",      "oldest-equi:0.5", "setf:0.2",
    "isrpt-thresh:2.0", "quantized-equi:0.5",
};

void expect_bit_identical(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.total_flow, b.total_flow) << what;
  EXPECT_EQ(a.weighted_flow, b.weighted_flow) << what;
  EXPECT_EQ(a.fractional_flow, b.fractional_flow) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.decisions, b.decisions) << what;
  EXPECT_EQ(a.events, b.events) << what;
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].job.id, b.records[i].job.id) << what << " #" << i;
    EXPECT_EQ(a.records[i].completion, b.records[i].completion)
        << what << " #" << i;
  }
}

SimResult run_production(const Instance& inst, const std::string& policy) {
  auto sched = make_scheduler(policy);
  return simulate(inst, *sched);
}

/// The same run with every ordering answer of every decision checked
/// against the oracle.
SimResult run_oracle_checked(const Instance& inst, const std::string& policy,
                             const std::string& what) {
  refimpl::OracleCheckedScheduler sched(make_scheduler(policy));
  SimResult r = simulate(inst, sched);
  EXPECT_EQ(sched.first_mismatch(), "") << what;
  EXPECT_EQ(sched.checked(), r.decisions) << what;
  return r;
}

/// Admit every job up front and finish: the streaming path over the same
/// decision steps, oracle-checked.
SimResult run_streamed_checked(const Instance& inst, const std::string& policy,
                               const std::string& what) {
  refimpl::OracleCheckedScheduler sched(make_scheduler(policy));
  Engine eng(inst.machines());
  eng.begin(sched);
  for (const Job& j : inst.jobs()) eng.admit(j);
  SimResult r = eng.finish();
  EXPECT_EQ(sched.first_mismatch(), "") << what;
  return r;
}

// E1-style grid: fixed alpha = 0.5, critically loaded.
RandomWorkloadConfig e1_config(std::uint64_t seed) {
  RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 120;
  cfg.P = 64.0;
  cfg.load = 1.0;
  cfg.alpha_lo = cfg.alpha_hi = 0.5;
  cfg.seed = seed;
  return cfg;
}

// E5-style grid: heterogeneous parallelizability (sequential, power-law
// across the alpha range, and fully parallel jobs mixed together).
RandomWorkloadConfig e5_config(std::uint64_t seed) {
  RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 100;
  cfg.P = 32.0;
  cfg.load = 0.9;
  cfg.alpha_law = AlphaLaw::kMixed;
  cfg.alpha_lo = 0.1;
  cfg.alpha_hi = 0.95;
  cfg.seed = seed;
  return cfg;
}

TEST(ContextCacheDifferential, AllPoliciesBitIdenticalOnE1Grid) {
  for (const std::uint64_t seed : {1u, 7u}) {
    const Instance inst = make_random_instance(e1_config(seed));
    for (const char* policy : kAllPolicies) {
      const std::string what =
          std::string(policy) + " seed=" + std::to_string(seed);
      expect_bit_identical(run_production(inst, policy),
                           run_oracle_checked(inst, policy, what), what);
    }
  }
}

TEST(ContextCacheDifferential, AllPoliciesBitIdenticalOnE5Grid) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Instance inst = make_random_instance(e5_config(seed));
    for (const char* policy : kAllPolicies) {
      const std::string what =
          std::string(policy) + " seed=" + std::to_string(seed);
      expect_bit_identical(run_production(inst, policy),
                           run_oracle_checked(inst, policy, what), what);
    }
  }
}

// Every way of driving one instance on both experiment grids — the batch
// production run, the oracle-checked batch run and the oracle-checked
// streaming run — must agree for every policy family.
TEST(ContextCacheDifferential, IncrementalSweepAllArmsAgreeOnBothGrids) {
  for (const bool on_e1 : {true, false}) {
    const Instance inst = on_e1 ? make_random_instance(e1_config(21))
                                : make_random_instance(e5_config(22));
    for (const char* policy : kAllPolicies) {
      const std::string what = std::string(on_e1 ? "E1 " : "E5 ") + policy;
      const SimResult ref = run_production(inst, policy);
      expect_bit_identical(run_oracle_checked(inst, policy, what), ref,
                           what + " oracle-checked batch");
      expect_bit_identical(run_streamed_checked(inst, policy, what), ref,
                           what + " oracle-checked streaming");
    }
  }
}

// The serve/-facing streaming path runs the same decision_step; drive it
// with incremental admission + ragged advances, every ordering answer
// oracle-checked, and compare against the batch production run. Covers
// the deferred-allocation resume path (advances that split between
// events): order maintenance must straddle the park/resume boundary.
TEST(ContextCacheDifferential, StreamingMatchesUncachedBatch) {
  const Instance inst = make_random_instance(e1_config(5));
  for (const char* policy : {"isrpt", "laps:0.5", "quantized-equi:0.5"}) {
    const SimResult ref = run_production(inst, policy);
    refimpl::OracleCheckedScheduler sched(make_scheduler(policy));
    Engine eng(inst.machines());
    eng.begin(sched);
    double t = 0.0;
    for (const Job& j : inst.jobs()) {
      eng.admit(j);
      // Ragged advances: some land between arrivals, some batch up.
      if ((j.id % 3) == 0) {
        t = std::max(t, j.release * 0.75);
        eng.advance_to(t);
      }
    }
    const SimResult streamed = eng.finish();
    EXPECT_EQ(sched.first_mismatch(), "") << policy;
    expect_bit_identical(streamed, ref, std::string("streaming ") + policy);
  }
}

// Multi-phase jobs change curves mid-run (and exercise the phase-advance
// path next to the completion detection); the oracle check must not
// disturb it.
TEST(ContextCacheDifferential, PhasedJobsBitIdentical) {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_phased_job(
        i, 0.25 * i,
        {{1.0 + 0.1 * i, SpeedupCurve::power_law(0.3)},
         {0.5, SpeedupCurve::power_law(0.9)},
         {0.25, SpeedupCurve::sequential()}}));
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"isrpt", "equi", "greedy"}) {
    const std::string what = std::string("phased ") + policy;
    expect_bit_identical(run_production(inst, policy),
                         run_oracle_checked(inst, policy, what), what);
  }
}

// ---- Direct helper-vs-refimpl comparisons ------------------------------

std::vector<AliveJob> random_alive(std::mt19937_64& rng, std::size_t n) {
  // Deliberately collision-heavy: remaining and release each drawn from a
  // handful of values so ties are common and id tie-breaks decide.
  std::uniform_int_distribution<int> rem(1, 5);
  std::uniform_int_distribution<int> rel(0, 3);
  std::vector<AliveJob> alive(n);
  std::vector<JobId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<JobId>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    alive[i].id = ids[i];
    alive[i].remaining = static_cast<double>(rem(rng));
    alive[i].release = static_cast<double>(rel(rng));
    alive[i].size = alive[i].remaining + 1.0;
  }
  return alive;
}

void expect_span_eq(std::span<const std::size_t> got,
                    const std::vector<std::size_t>& want,
                    const std::string& what) {
  EXPECT_EQ(refimpl::span_mismatch(got, want), "") << what;
}

/// The orders behind a context built by hand: filled with rebuild(alive).
IncrementalOrders orders_for(const std::vector<AliveJob>& alive) {
  IncrementalOrders orders;
  orders.rebuild(alive);
  return orders;
}

TEST(ContextCacheHelpers, AllHelpersMatchRefimplAcrossKs) {
  std::mt19937_64 rng(1234);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{40},
                              std::size_t{200}}) {
    const std::vector<AliveJob> alive = random_alive(rng, n);
    const std::vector<double> rem = refimpl::remaining_column(alive);
    const std::vector<std::size_t> ks = {0,     1,     2,         3,
                                         n / 8, n / 2, n ? n - 1 : 0, n,
                                         n + 10};
    for (const std::size_t k : ks) {
      // Fresh orders per query so each k starts from an empty memo (and
      // the SRPT side from a stale heap).
      IncrementalOrders orders = orders_for(alive);
      SchedulerContext ctx(0.0, 4, alive, rem, orders);
      const std::string what =
          "n=" + std::to_string(n) + " k=" + std::to_string(k);
      expect_span_eq(ctx.smallest_remaining(k),
                     refimpl::smallest_remaining(alive, rem, k),
                     "smallest_remaining " + what);
      expect_span_eq(ctx.latest_arrivals(k),
                     refimpl::latest_arrivals(alive, k),
                     "latest_arrivals " + what);
    }
    IncrementalOrders orders = orders_for(alive);
    SchedulerContext ctx(0.0, 4, alive, rem, orders);
    EXPECT_EQ(ctx.min_remaining(), refimpl::min_remaining(alive, rem));
    expect_span_eq(ctx.by_remaining(), refimpl::by_remaining(alive, rem),
                   "by_remaining n=" + std::to_string(n));
    expect_span_eq(ctx.by_latest_arrival(),
                   refimpl::by_latest_arrival(alive),
                   "by_latest_arrival n=" + std::to_string(n));
  }
}

// Widening queries in one decision must extend the memo without changing
// previously returned prefixes: a span handed out early must still hold
// the oracle's answer after the widest query has been served.
TEST(ContextCacheHelpers, PrefixUpgradesPreserveEarlierAnswers) {
  std::mt19937_64 rng(99);
  const std::size_t n = 160;
  const std::vector<AliveJob> alive = random_alive(rng, n);
  const std::vector<double> rem = refimpl::remaining_column(alive);
  const std::vector<std::size_t> ref = refimpl::by_remaining(alive, rem);

  IncrementalOrders orders = orders_for(alive);
  SchedulerContext ctx(0.0, 4, alive, rem, orders);
  // min first (heap root), then heap top-k at growing widths, then full.
  EXPECT_EQ(ctx.min_remaining(), ref[0]);
  const auto first = ctx.smallest_remaining(2);
  for (const std::size_t k : {std::size_t{2}, std::size_t{10},
                              std::size_t{n / 2}, n}) {
    const auto span = ctx.smallest_remaining(k);
    ASSERT_EQ(span.size(), std::min(k, n));
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], ref[i]) << "k=" << k << " position " << i;
    }
  }
  expect_span_eq(first, {ref[0], ref[1]}, "earliest SRPT span");
  EXPECT_EQ(ctx.min_remaining(), ref[0]);

  // Same for the latest-arrival family.
  const std::vector<std::size_t> lref = refimpl::by_latest_arrival(alive);
  const auto lfirst = ctx.latest_arrivals(3);
  for (const std::size_t k : {std::size_t{3}, std::size_t{40}, n}) {
    const auto span = ctx.latest_arrivals(k);
    ASSERT_EQ(span.size(), std::min(k, n));
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], lref[i]) << "latest k=" << k << " position " << i;
    }
  }
  expect_span_eq(lfirst, {lref[0], lref[1], lref[2]}, "earliest latest span");
}

// ---- Tie-break pinning --------------------------------------------------
//
// Prefixes are only interchangeable with the full orders because the
// comparators are strict *total* orders: remaining ties break by release,
// then by id (SRPT), and release ties break by id descending
// (latest-arrival). Pin those orders on hand-built sets where every
// tie-break level is exercised, at a small k (k <= n/8) and a larger one.

std::vector<AliveJob> tie_heavy_alive() {
  // 24 jobs. Indices 17, 9, 5 share the smallest remaining; 17 and 9 also
  // share the release, so id decides between them.
  std::vector<AliveJob> alive(24);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i].id = static_cast<JobId>(100 + i);
    alive[i].remaining = 10.0 + static_cast<double>(i);
    alive[i].release = 0.0;
    alive[i].size = alive[i].remaining;
  }
  alive[17].remaining = 1.0;
  alive[17].release = 1.0;
  alive[17].id = 117;
  alive[9].remaining = 1.0;
  alive[9].release = 1.0;
  alive[9].id = 190;  // same (remaining, release) as 17: larger id loses
  alive[5].remaining = 1.0;
  alive[5].release = 2.0;  // later release: loses to both despite id 105
  alive[5].id = 105;
  return alive;
}

TEST(ContextCacheTieBreaks, SmallestRemainingPinsSrptOrder) {
  const std::vector<AliveJob> alive = tie_heavy_alive();
  const std::vector<double> rem = refimpl::remaining_column(alive);
  const std::vector<std::size_t> want = {17, 9, 5};  // (rem, release, id) asc
  for (const std::size_t k : {std::size_t{3}, std::size_t{5}}) {
    IncrementalOrders orders = orders_for(alive);
    SchedulerContext ctx(0.0, 4, alive, rem, orders);
    const auto got = ctx.smallest_remaining(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "k=" << k << " position " << i;
    }
    expect_span_eq(got, refimpl::smallest_remaining(alive, rem, k),
                   "refimpl agreement k=" + std::to_string(k));
  }
}

TEST(ContextCacheTieBreaks, LatestArrivalsPinsReleaseIdDescOrder) {
  // Indices 11, 3, 4 share the latest release 9; ids 131 > 130 > 104
  // decide the order among them (descending).
  std::vector<AliveJob> alive(24);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i].id = static_cast<JobId>(100 + i);
    alive[i].release = static_cast<double>(i % 7);
    alive[i].remaining = 1.0 + static_cast<double>(i);
    alive[i].size = alive[i].remaining;
  }
  alive[3].release = 9.0;
  alive[3].id = 130;
  alive[11].release = 9.0;
  alive[11].id = 131;
  alive[4].release = 9.0;
  alive[4].id = 104;
  const std::vector<double> rem = refimpl::remaining_column(alive);
  const std::vector<std::size_t> want = {11, 3, 4};
  for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                              std::size_t{6}}) {
    IncrementalOrders orders = orders_for(alive);
    SchedulerContext ctx(0.0, 4, alive, rem, orders);
    const auto got = ctx.latest_arrivals(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < std::min(k, want.size()); ++i) {
      EXPECT_EQ(got[i], want[i]) << "k=" << k << " position " << i;
    }
    expect_span_eq(got, refimpl::latest_arrivals(alive, k),
                   "refimpl agreement k=" + std::to_string(k));
  }
}

}  // namespace
}  // namespace parsched
