// Oracle proof of the engine's ordering module (IncrementalOrders).
//
// The contract under test: the persistent orders — the SRPT heap with
// O(log n) event maintenance and lazy decay, and the release-ordered
// latest-arrival array with tombstones — give, at every decision, exactly
// the answers of the straightforward sorts in
// tests/simcore/ordering_oracle.hpp. Each comparison is three-way:
//
//   production     the policy run through the engine as deployed
//   oracle-checked the same run with every ordering answer of every
//                  decision's context checked against the oracle
//   oracle         refimpl:: (per-call iota + sort / nth_element)
//
// The oracle-checked run asks for both full orders each decision, which
// keeps the SRPT heap fresh; the production run leaves it stale whenever
// its policy never asks. The two runs must still agree double for double,
// so the decay / stale-rebuild path is proven too.
//
// The spine is a property-based fuzzer: a seeded instance generator
// (mixed parallelizability, bursty arrivals, completion/time-tolerance
// edge sizes, zero-rate stretches) drives all registry policies through
// both runs, comparing a per-decision FNV hash of (time, shares) plus
// every SimResult total and completion record. On a mismatch the
// harness shrinks to a minimal failing job-count prefix, names the first
// divergent decision, and (when PARSCHED_FUZZ_DUMP_DIR is set) dumps the
// production run's flight record for the failing case. Depth scales
// with PARSCHED_FUZZ_ITERS (default 10 seeds ≈ 2×10⁵ driven events —
// the PR-gate setting; the nightly CI leg raises it).
//
// Alongside the fuzzer: ~12 pinned seed-corpus regression cases for the
// ordering edge cases (duplicate keys, completion bursts emptying the
// orders, admit-during-deferral, decay epochs crossing the top-k
// boundary, ...) and tie-break pins for both total orders at k == n and
// k < n/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/incremental.hpp"
#include "simcore/ordering_oracle.hpp"  // tests/simcore/: the oracle
#include "simcore/scheduler.hpp"
#include "util/env.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

// Every registry family (same list as test_context_cache.cpp), so each
// ordering helper is exercised by a policy that actually calls it:
// smallest_remaining (SRPT family), min_remaining (par-srpt),
// latest_arrivals (LAPS / oldest-equi), by_latest_arrival
// (quantized-equi), by_remaining (mlf / wisrpt / setf), and the
// no-helper policies (equi, greedy) that still drive order maintenance.
const char* const kAllPolicies[] = {
    "isrpt",         "seq-srpt",        "par-srpt",
    "greedy",        "equi",            "isrpt-boost",
    "mlf",           "wisrpt",          "laps:0.25",
    "laps:0.5",      "oldest-equi:0.5", "setf:0.2",
    "isrpt-thresh:2.0", "quantized-equi:0.5",
};

std::uint64_t bit_pattern(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Per-decision witness: an FNV-1a hash over the exact bit patterns of
/// the decision time and every share. Double-for-double equality of two
/// runs' decisions implies equal hash streams; a diverging decision is
/// caught at its index, not smeared into the final totals.
class DecisionHasher : public Observer {
 public:
  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(bit_pattern(t));
    mix(static_cast<std::uint64_t>(alive.size()));
    for (const double s : shares) mix(bit_pattern(s));
    hashes.push_back(h);
  }

  std::vector<std::uint64_t> hashes;
};

struct EngineRun {
  SimResult result;
  std::vector<std::uint64_t> hashes;
  std::string oracle_mismatch;  ///< oracle-checked runs only
};

/// Wrap a fresh `policy` in the oracle check when `checked` is set.
std::unique_ptr<Scheduler> make_policy(const std::string& policy,
                                       bool checked) {
  auto sched = make_scheduler(policy);
  if (!checked) return sched;
  return std::make_unique<refimpl::OracleCheckedScheduler>(std::move(sched));
}

/// The oracle verdict of a finished oracle-checked run: its first
/// mismatching answer, or a complaint when a decision went unchecked.
std::string oracle_verdict(const Scheduler& sched, const SimResult& r) {
  const auto& checker =
      dynamic_cast<const refimpl::OracleCheckedScheduler&>(sched);
  if (!checker.first_mismatch().empty()) return checker.first_mismatch();
  if (checker.checked() != r.decisions) {
    return "checked " + std::to_string(checker.checked()) + " of " +
           std::to_string(r.decisions) + " decisions";
  }
  return {};
}

EngineRun run_engine(const Instance& inst, const std::string& policy,
                     bool checked, obs::FlightRecorder* recorder = nullptr) {
  auto sched = make_policy(policy, checked);
  EngineConfig cfg;
  cfg.recorder = recorder;
  DecisionHasher hasher;
  EngineRun out;
  out.result = simulate(inst, *sched, cfg, {&hasher});
  out.hashes = std::move(hasher.hashes);
  if (checked) out.oracle_mismatch = oracle_verdict(*sched, out.result);
  return out;
}

struct Divergence {
  bool diverged = false;
  std::string detail;
};

Divergence compare_runs(const EngineRun& a, const EngineRun& b) {
  Divergence d;
  const auto fail = [&d](std::string detail) {
    d.diverged = true;
    d.detail = std::move(detail);
  };
  const std::size_t n = std::min(a.hashes.size(), b.hashes.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.hashes[i] != b.hashes[i]) {
      fail("first divergent decision at index " + std::to_string(i) + " of " +
           std::to_string(n));
      return d;
    }
  }
  if (a.hashes.size() != b.hashes.size()) {
    fail("decision counts differ: " + std::to_string(a.hashes.size()) +
         " vs " + std::to_string(b.hashes.size()));
    return d;
  }
  const SimResult& x = a.result;
  const SimResult& y = b.result;
  if (x.total_flow != y.total_flow) return fail("total_flow differs"), d;
  if (x.weighted_flow != y.weighted_flow) {
    return fail("weighted_flow differs"), d;
  }
  if (x.fractional_flow != y.fractional_flow) {
    return fail("fractional_flow differs"), d;
  }
  if (x.makespan != y.makespan) return fail("makespan differs"), d;
  if (x.decisions != y.decisions) return fail("decision totals differ"), d;
  if (x.events != y.events) return fail("event totals differ"), d;
  if (x.records.size() != y.records.size()) {
    return fail("completion record counts differ"), d;
  }
  for (std::size_t i = 0; i < x.records.size(); ++i) {
    if (x.records[i].job.id != y.records[i].job.id ||
        x.records[i].completion != y.records[i].completion) {
      return fail("completion record " + std::to_string(i) + " differs"), d;
    }
  }
  return d;
}

/// One three-way comparison; empty detail when the production run, the
/// oracle-checked run and the oracle all agree.
Divergence three_way(const Instance& inst, const std::string& policy,
                     std::uint64_t* events = nullptr) {
  const EngineRun prod = run_engine(inst, policy, false);
  const EngineRun checked = run_engine(inst, policy, true);
  if (events != nullptr) *events = prod.result.events + checked.result.events;
  if (!checked.oracle_mismatch.empty()) {
    return {true, "engine vs oracle: " + checked.oracle_mismatch};
  }
  Divergence d = compare_runs(prod, checked);
  if (d.diverged) d.detail = "production vs oracle-checked run: " + d.detail;
  return d;
}

// ---- Fuzz harness -------------------------------------------------------

/// Seeded random instance: bursty arrivals (clusters share one release),
/// mixed parallelizability (sequential / power-law alpha sweep / fully
/// parallel), completion-tolerance-edge sizes (jobs whose whole work is
/// within completion_tol, finishing with zero processing), time-tol-edge
/// near-ties, far more jobs than machines so SRPT-style allocations
/// leave long zero-rate stretches, and ids shuffled within each burst so
/// equal-release admissions arrive out of (release, id) order.
Instance fuzz_instance(std::uint64_t seed, std::size_t jobs = 0) {
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const int machines = 2 + static_cast<int>(rng() % 29);
  if (jobs == 0) jobs = 360 + rng() % 121;
  std::vector<Job> out;
  out.reserve(jobs);
  double t = 0.0;
  std::exponential_distribution<double> gap(1.5);
  for (std::size_t i = 0; i < jobs; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    if (i == 0 || u(rng) >= 0.4) t += gap(rng);  // else: burst at the same t
    j.release = t;
    if (u(rng) < 0.05) {
      // Sub-nanosecond sneak: release a hair after the burst, within
      // the engine's time_tol, so "simultaneous" handling is exercised.
      j.release = t + 1e-12;
    }
    const double v = u(rng);
    if (v < 0.05) {
      // Whole job inside completion_tol * max(1, size): completes with
      // (nearly) zero processing, often in a dt = 0 step.
      j.size = 1e-10 + 8e-10 * u(rng);
    } else if (v < 0.12) {
      // Near-identical sizes: completions land within time_tol of each
      // other, driving simultaneous-completion bursts.
      j.size = 1.0 + 1e-10 * u(rng);
    } else {
      j.size = std::exp(u(rng) * std::log(64.0));  // log-uniform [1, 64]
    }
    const double c = u(rng);
    if (c < 0.25) {
      j.curve = SpeedupCurve::sequential();
    } else if (c < 0.45) {
      j.curve = SpeedupCurve::fully_parallel();
    } else {
      j.curve = SpeedupCurve::power_law(0.05 + 0.9 * u(rng));
    }
    if (u(rng) < 0.3) j.weight = 1.0 + 3.0 * u(rng);
    out.push_back(std::move(j));
  }
  // Shuffle ids within each burst (a separate stream, so releases, sizes
  // and curves stay those of the seed): the latest-arrival array then
  // takes its binary-search insert, not only its append.
  std::mt19937_64 id_rng(seed ^ 0x1D5EEDull);
  for (std::size_t b = 0; b < out.size();) {
    std::size_t e = b + 1;
    while (e < out.size() && out[e].release == out[b].release) ++e;
    for (std::size_t i = e - 1; i > b; --i) {
      const std::size_t k = b + id_rng() % (i - b + 1);
      std::swap(out[i].id, out[k].id);
    }
    b = e;
  }
  return Instance(machines, std::move(out));
}

std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& ch : out) {
    if (ch == ':' || ch == '.' || ch == '/') ch = '_';
  }
  return out;
}

/// Artifact hook for CI: when PARSCHED_FUZZ_DUMP_DIR is set, replay the
/// production run of a failing case with a flight recorder armed and
/// dump its ring for upload next to the failing seed.
void dump_failing_case(const Instance& inst, const std::string& policy,
                       const std::string& label) {
  const std::string dir = env::get_string("PARSCHED_FUZZ_DUMP_DIR");
  if (dir.empty()) return;
  obs::FlightRecorder recorder(8192);
  recorder.set_dump_path(dir + "/fuzz_" + sanitize(label) + "_" +
                         sanitize(policy) + ".jsonl");
  run_engine(inst, policy, false, &recorder);
  recorder.dump_to_file("fuzz_mismatch");
}

/// Shrinking-style minimizer: bisect the failing instance to the
/// smallest job-count prefix that still diverges (the classic QuickCheck
/// shrink heuristic — not guaranteed globally minimal, but it routinely
/// turns a 400-job counterexample into a handful of jobs).
std::size_t shrink_min_prefix(const Instance& inst, const std::string& policy) {
  const std::vector<Job>& jobs = inst.jobs();
  const auto fails = [&](std::size_t count) {
    const Instance sub(
        inst.machines(),
        std::vector<Job>(jobs.begin(),
                         jobs.begin() + static_cast<std::ptrdiff_t>(count)));
    return three_way(sub, policy).diverged;
  };
  std::size_t lo = 1;
  std::size_t hi = jobs.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Run the three-way comparison; on mismatch emit the minimal-seed
/// report (seed label, policy, shrunken prefix, first divergence) and a
/// flight-record artifact. Returns the number of driven events (summed
/// over both engine runs) for the depth accounting.
std::uint64_t check_instance(const Instance& inst, const std::string& policy,
                             const std::string& label) {
  std::uint64_t events = 0;
  const Divergence d = three_way(inst, policy, &events);
  if (d.diverged) {
    const std::size_t min_jobs = shrink_min_prefix(inst, policy);
    dump_failing_case(inst, policy, label);
    ADD_FAILURE() << "three-way mismatch [" << label << "] policy=" << policy
                  << ": " << d.detail << "\n  minimal failing prefix: first "
                  << min_jobs << " of " << inst.jobs().size()
                  << " jobs (machines=" << inst.machines() << ")"
                  << "\n  reproduce: fuzz label " << label
                  << ", shrink with the first " << min_jobs << " jobs";
    return 0;
  }
  return events;
}

TEST(IncrementalFuzz, ThreeWayDifferentialOverRandomEventSchedules) {
  // Short default for the PR gate (~10⁵ driven events in seconds); the
  // nightly CI leg raises PARSCHED_FUZZ_ITERS for depth.
  const long iters = env::get_int("PARSCHED_FUZZ_ITERS", 10, 1, 1000000);
  std::uint64_t total_events = 0;
  for (long it = 0; it < iters; ++it) {
    const std::uint64_t seed = 0xC0FFEEull + static_cast<std::uint64_t>(it);
    const Instance inst = fuzz_instance(seed);
    const std::string label = "seed=" + std::to_string(seed);
    for (const char* policy : kAllPolicies) {
      total_events += check_instance(inst, policy, label);
      if (HasFailure()) return;  // the shrunken report is already emitted
    }
  }
  std::printf("oracle fuzz: %llu driven events across %ld seeds\n",
              static_cast<unsigned long long>(total_events), iters);
  // Depth floor: every seed must contribute >= 10^4 driven events
  // (14 policies x 2 runs x ~2 events/job); the default 10 seeds put the
  // PR gate itself past the 10^5-event acceptance bar.
  EXPECT_GE(total_events, static_cast<std::uint64_t>(iters) * 10000ull);
}

// ---- Seed corpus: pinned ordering edge cases ----------------------------
//
// Reproducible without the fuzzer: each case pins a generator seed (or a
// hand-built shape the generator reaches only occasionally) that lands
// on a specific ordering edge, and runs the full three-way comparison as
// its own ctest case.

/// PARSCHED_AUDIT scope: arms the engine-side orders-vs-alive audit (and
/// the AllocGuard fences) for every engine constructed inside it.
class AuditScope {
 public:
  AuditScope() { setenv("PARSCHED_AUDIT", "1", 1); }
  ~AuditScope() { unsetenv("PARSCHED_AUDIT"); }
};

TEST(IncrementalSeedCorpus, DuplicateRemainingKeysTieStorm) {
  // Every job identical in (size, release): both orders are decided
  // purely by id tie-breaks, and the SRPT heap is all-duplicate keys.
  std::vector<Job> jobs;
  for (int i = 0; i < 96; ++i) {
    Job j;
    j.id = static_cast<JobId>(200 - i);  // ids descending vs index
    j.release = static_cast<double>(i / 24);  // four equal-release bursts
    j.size = 2.0;
    j.curve = SpeedupCurve::power_law(0.5);
    jobs.push_back(j);
  }
  const Instance inst(8, jobs);
  for (const char* policy : {"isrpt", "seq-srpt", "mlf", "laps:0.5"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, CompletionBurstEmptiesHeap) {
  // Identical fully-parallel jobs under EQUI complete simultaneously:
  // one sweep removes every order entry (the swap-remove mirror's
  // hardest case), then a second wave refills from empty.
  AuditScope audit;
  std::vector<Job> jobs;
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 40; ++i) {
      Job j;
      j.id = static_cast<JobId>(wave * 100 + i);
      j.release = wave * 50.0;
      j.size = 4.0;
      j.curve = SpeedupCurve::fully_parallel();
      jobs.push_back(j);
    }
  }
  const Instance inst(16, jobs);
  for (const char* policy : {"equi", "isrpt", "greedy"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, AdmitDuringDeferredDecision) {
  // Streaming: advances that stop short of the next event defer the
  // decision; admissions landing while deferred must enter the orders
  // only when released. The streamed, oracle-checked run must match the
  // batch production run double for double.
  const Instance inst = fuzz_instance(0xDEFE77ull, 160);
  for (const char* policy : {"isrpt", "laps:0.25", "quantized-equi:0.5"}) {
    const EngineRun batch = run_engine(inst, policy, false);

    auto sched = make_policy(policy, true);
    Engine eng(inst.machines());
    DecisionHasher stream_hash;
    eng.add_observer(&stream_hash);
    eng.begin(*sched);
    double t = 0.0;
    for (const Job& j : inst.jobs()) {
      eng.admit(j);
      if ((j.id % 3) == 0) {
        t = std::max(t, j.release * 0.75);
        eng.advance_to(t);  // often parks a deferred decision mid-flight
      }
    }
    EngineRun streamed;
    streamed.result = eng.finish();
    streamed.hashes = std::move(stream_hash.hashes);
    EXPECT_EQ(oracle_verdict(*sched, streamed.result), "") << policy;
    const Divergence d = compare_runs(streamed, batch);
    EXPECT_FALSE(d.diverged) << policy << " streamed vs batch: " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, DecayCrossingTopKBoundary) {
  // m = 16 machines, 220 equal-release jobs: ISRPT's m nonzero rates sit
  // under the n/8 mass-update threshold while n > 128 (eager per-key
  // sifts) and above it once completions shrink n below 128 (lazy decay
  // epochs + stale rebuilds). The run crosses the boundary, and the
  // policy's smallest_remaining(m) top-k straddles it.
  AuditScope audit;
  std::vector<Job> jobs;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(1.0, 9.0);
  for (int i = 0; i < 220; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.0;
    j.size = u(rng);
    j.curve = SpeedupCurve::power_law(0.6);
    jobs.push_back(j);
  }
  const Instance inst(16, jobs);
  for (const char* policy : {"isrpt", "isrpt-boost", "par-srpt"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, CompletionToleranceEdgeSizes) {
  // Jobs whose entire work sits inside completion_tol complete with zero
  // processing — order entries that die in dt = 0 steps, interleaved with
  // normal-sized work.
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.25 * (i / 4);
    j.size = (i % 4 == 0) ? 5e-10 : 1.0 + 0.125 * i;
    j.curve = (i % 2) != 0 ? SpeedupCurve::sequential()
                           : SpeedupCurve::power_law(0.4);
    jobs.push_back(j);
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"isrpt", "seq-srpt", "setf:0.2"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, TimeToleranceEdgeArrivals) {
  // Releases separated by less than time_tol are handled as simultaneous
  // — the latest-arrival array must break those "ties" by id exactly as
  // the oracle's sort does. Ids descend against admission order, so every
  // admission after the first takes the binary-search insert.
  std::vector<Job> jobs;
  for (int i = 0; i < 48; ++i) {
    Job j;
    j.id = static_cast<JobId>(97 - 2 * i);
    j.release = 1.0 + 1e-12 * (i % 5);
    j.size = 1.0 + 0.5 * (i % 7);
    j.curve = SpeedupCurve::power_law(0.7);
    jobs.push_back(j);
  }
  const Instance inst(6, jobs);
  for (const char* policy : {"laps:0.25", "oldest-equi:0.5",
                             "quantized-equi:0.5"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, ZeroRateStretchesSequentialGlut) {
  // 240 sequential jobs on 4 machines: under SRPT-style policies all but
  // four jobs idle at rate 0 for long stretches — remaining-work keys
  // must stay bit-stable across hundreds of decisions without updates.
  std::vector<Job> jobs;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.5, 4.0);
  for (int i = 0; i < 240; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.01 * i;
    j.size = u(rng);
    j.curve = SpeedupCurve::sequential();
    jobs.push_back(j);
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"seq-srpt", "isrpt"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, HeapEmptiesBetweenWaves) {
  // Two widely separated waves: the alive set (and both orders) drain to
  // empty mid-run, then rebuild through admissions alone.
  std::vector<Job> jobs;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 20; ++i) {
      Job j;
      j.id = static_cast<JobId>(wave * 1000 + i);
      j.release = wave * 500.0;
      j.size = 1.0 + 0.1 * i;
      j.curve = SpeedupCurve::power_law(0.5);
      jobs.push_back(j);
    }
  }
  const Instance inst(8, jobs);
  for (const char* policy : {"isrpt", "equi", "wisrpt"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, SnapshotRestoreRebuildsHeaps) {
  // Export mid-run, import into a fresh engine, and the continuation
  // must equal the donor's — and, oracle-checked, prove that the orders
  // rebuilt from the snapshot answer every decision exactly.
  const Instance inst = fuzz_instance(0x5EED5ull, 140);
  for (const char* policy : {"isrpt", "laps:0.5", "quantized-equi:0.5"}) {
    // Donor: run straight through.
    auto donor_sched = make_scheduler(policy);
    Engine donor(inst.machines());
    donor.begin(*donor_sched);
    for (const Job& j : inst.jobs()) donor.admit(j);
    const double t_cut = inst.jobs()[inst.jobs().size() / 2].release;
    donor.advance_to(t_cut);
    const EngineState snap = donor.export_state();
    const std::string sched_state = donor_sched->save_state();
    const SimResult donor_result = donor.finish();

    // Continuation: restore and finish.
    refimpl::OracleCheckedScheduler cont_sched(make_scheduler(policy));
    cont_sched.load_state(sched_state);
    Engine cont(inst.machines());
    cont.import_state(snap, cont_sched);
    const SimResult cont_result = cont.finish();
    EXPECT_EQ(cont_sched.first_mismatch(), "") << policy;
    EXPECT_GT(cont_sched.checked(), 0u) << policy;

    EXPECT_EQ(donor_result.total_flow, cont_result.total_flow) << policy;
    EXPECT_EQ(donor_result.fractional_flow, cont_result.fractional_flow)
        << policy;
    EXPECT_EQ(donor_result.decisions, cont_result.decisions) << policy;
    ASSERT_EQ(donor_result.records.size(), cont_result.records.size())
        << policy;
    for (std::size_t i = 0; i < donor_result.records.size(); ++i) {
      EXPECT_EQ(donor_result.records[i].completion,
                cont_result.records[i].completion)
          << policy << " record " << i;
    }
  }
}

TEST(IncrementalSeedCorpus, MassDecayUnderDenseAllocations) {
  // EQUI-family allocations run every alive job: every sweep crosses the
  // n/8 threshold and declares a decay epoch. oldest-equi also queries
  // latest_arrivals(n) (never stale); equi queries nothing, so its SRPT
  // heap stays stale forever in the production run — both must still
  // agree with the oracle, under the full engine-side audit.
  AuditScope audit;
  const Instance inst = fuzz_instance(0xDECA1ull, 150);
  for (const char* policy : {"equi", "oldest-equi:0.5", "greedy"}) {
    const Divergence d = three_way(inst, policy);
    EXPECT_FALSE(d.diverged) << policy << ": " << d.detail;
  }
}

TEST(IncrementalSeedCorpus, PinnedGeneratorSeedsFastPolicies) {
  // A dozen pinned generator seeds through the SRPT-family policies —
  // the cases most sensitive to remaining-work key maintenance.
  for (const std::uint64_t seed :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    const Instance inst = fuzz_instance(seed, 120);
    for (const char* policy : {"isrpt", "seq-srpt", "par-srpt"}) {
      const Divergence d = three_way(inst, policy);
      EXPECT_FALSE(d.diverged)
          << "pinned seed " << seed << " " << policy << ": " << d.detail;
    }
  }
}

TEST(IncrementalSeedCorpus, PinnedGeneratorSeedsOrderingConsumers) {
  // Same pinned seeds through the latest-arrival / full-order consumers.
  for (const std::uint64_t seed :
       {2ull, 7ull, 13ull, 19ull, 29ull, 37ull}) {
    const Instance inst = fuzz_instance(seed, 120);
    for (const char* policy :
         {"laps:0.25", "oldest-equi:0.5", "quantized-equi:0.5", "mlf"}) {
      const Divergence d = three_way(inst, policy);
      EXPECT_FALSE(d.diverged)
          << "pinned seed " << seed << " " << policy << ": " << d.detail;
    }
  }
}

// ---- Direct IncrementalOrders unit churn --------------------------------

std::vector<AliveJob> make_alive(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> rem(1, 6);
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

// `rem` is the live remaining-work column, index-aligned with `alive`; the
// records' own remaining fields may be stale, as they are in the engine.
void expect_orders_match(IncrementalOrders& inc,
                         const std::vector<AliveJob>& alive,
                         const std::vector<double>& rem,
                         const std::string& what) {
  const std::vector<std::size_t> srpt_ref = refimpl::by_remaining(alive, rem);
  const std::vector<std::size_t> latest_ref = refimpl::by_latest_arrival(alive);
  for (const std::size_t k :
       {std::size_t{1}, alive.size() / 8, alive.size() / 2, alive.size()}) {
    if (k == 0) continue;
    const auto srpt = inc.srpt_prefix(alive, rem, k);
    ASSERT_EQ(srpt.size(), k) << what;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(srpt[i], srpt_ref[i]) << what << " srpt k=" << k << " @" << i;
    }
    const auto latest = inc.latest_prefix(k);
    ASSERT_EQ(latest.size(), k) << what;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(latest[i], latest_ref[i])
          << what << " latest k=" << k << " @" << i;
    }
  }
  if (!alive.empty()) {
    EXPECT_EQ(inc.min_srpt(alive, rem), refimpl::min_remaining(alive, rem))
        << what;
  }
  inc.audit(alive, rem);
}

TEST(IncrementalOrdersUnit, RandomChurnMatchesRefimpl) {
  std::mt19937_64 rng(20260808);
  std::vector<AliveJob> alive = make_alive(rng, 80);
  // The live remaining work, kept apart from the records the way the
  // engine keeps it: updates touch only this column, so an ordering path
  // that read AliveJob::remaining would see stale keys and diverge.
  std::vector<double> rem = refimpl::remaining_column(alive);
  IncrementalOrders inc;
  inc.reserve(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) inc.insert(alive[i], i);
  expect_orders_match(inc, alive, rem, "initial");

  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int round = 0; round < 400; ++round) {
    const double op = u(rng);
    if (op < 0.35 && !alive.empty()) {
      // Advance: shrink a few remaining-work keys.
      for (int k = 0; k < 3 && !alive.empty(); ++k) {
        const std::size_t i = rng() % alive.size();
        rem[i] = std::max(0.125, rem[i] * 0.75);
        inc.update_remaining(i, rem[i]);
      }
    } else if (op < 0.6 && alive.size() > 2) {
      // Complete: swap-remove, mirrored.
      const std::size_t i = rng() % alive.size();
      const std::size_t last = alive.size() - 1;
      inc.remove_swap(i, last);
      alive[i] = alive[last];
      alive.pop_back();
      rem[i] = rem[last];
      rem.pop_back();
    } else if (op < 0.85) {
      // Admit.
      AliveJob j;
      j.id = static_cast<JobId>(1000 + round);
      j.remaining = 0.5 + 5.0 * u(rng);
      j.release = 4.0 + 0.01 * round;
      j.size = j.remaining;
      inc.reserve(alive.size() + 1);
      alive.push_back(j);
      rem.push_back(j.remaining);
      inc.insert(alive.back(), alive.size() - 1);
    } else {
      // Mass update + decay epoch (the lazy-rebuild path).
      for (double& r : rem) r = std::max(0.125, r * 0.9);
      inc.decay_epoch();
    }
    if (round % 25 == 0) {
      expect_orders_match(inc, alive, rem, "round " + std::to_string(round));
      if (HasFatalFailure()) return;
    }
  }
  expect_orders_match(inc, alive, rem, "final");
  EXPECT_GT(inc.decay_epochs(), 0u);
}

TEST(IncrementalOrdersUnit, LatestTombstonesCompactWithoutReordering) {
  // Completions in the middle of the release order leave tombstones;
  // completions at the back pop at once; once the tombstones outnumber
  // the live entries the array compacts. Every step — including those
  // straddling a compaction — must still answer like refimpl and pass
  // the structural audit (sorted, bijective position map, exact count).
  std::vector<AliveJob> alive;
  IncrementalOrders inc;
  for (int i = 0; i < 96; ++i) {
    AliveJob j;
    j.id = static_cast<JobId>(i);
    j.release = 0.5 * static_cast<double>(i / 3);  // triples share a release
    j.remaining = 1.0 + static_cast<double>(i % 11);
    j.size = j.remaining;
    inc.reserve(alive.size() + 1);
    alive.push_back(j);
    inc.insert(alive.back(), alive.size() - 1);
  }
  // Mostly remove the median-release job — a mid-array tombstone — and
  // every seventh time the latest one, which pops at the back.
  while (alive.size() > 2) {
    const std::vector<std::size_t> order = refimpl::by_latest_arrival(alive);
    const std::size_t i =
        alive.size() % 7 == 0 ? order[0] : order[alive.size() / 2];
    const std::size_t last = alive.size() - 1;
    inc.remove_swap(i, last);
    alive[i] = alive[last];
    alive.pop_back();
    expect_orders_match(inc, alive, refimpl::remaining_column(alive),
                        "alive=" + std::to_string(alive.size()));
    if (HasFatalFailure()) return;
  }
  // Refill after the churn: appends land behind the surviving entries.
  for (int i = 0; i < 8; ++i) {
    AliveJob j;
    j.id = static_cast<JobId>(500 + i);
    j.release = 100.0;
    j.remaining = 2.0;
    j.size = 2.0;
    inc.reserve(alive.size() + 1);
    alive.push_back(j);
    inc.insert(alive.back(), alive.size() - 1);
  }
  expect_orders_match(inc, alive, refimpl::remaining_column(alive),
                      "refilled");
}

// ---- Tie-break pinning: both total orders --------------------------------
//
// The IncrementalOrders must realize the oracle's strict total orders for
// equal keys, at k == n (heap-copy sort, full array walk) and at k < n/8
// (heap traversal, partial array walk).

std::vector<AliveJob> tie_heavy_alive() {
  // 24 jobs; indices 17, 9, 5 share the smallest remaining. 17 and 9
  // also share the release, so the id decides; 5 releases later and
  // loses to both despite the smallest id.
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
  alive[9].id = 190;
  alive[5].remaining = 1.0;
  alive[5].release = 2.0;
  alive[5].id = 105;
  return alive;
}

IncrementalOrders build_inc(const std::vector<AliveJob>& alive) {
  IncrementalOrders inc;
  inc.reserve(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) inc.insert(alive[i], i);
  return inc;
}

TEST(IncrementalTieBreaks, SrptOrderPinnedAtFullAndSmallK) {
  const std::vector<AliveJob> alive = tie_heavy_alive();
  const std::vector<double> rem = refimpl::remaining_column(alive);
  const std::vector<std::size_t> want_prefix = {17, 9, 5};
  const std::vector<std::size_t> full_ref = refimpl::by_remaining(alive, rem);
  IncrementalOrders inc = build_inc(alive);
  // k = 3 <= 24/8 (heap traversal) and k = n (heap-copy full sort).
  for (const std::size_t k : {std::size_t{3}, alive.size()}) {
    const auto got = inc.srpt_prefix(alive, rem, k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want_prefix.size(); ++i) {
      EXPECT_EQ(got[i], want_prefix[i]) << "k=" << k << " position " << i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], full_ref[i]) << "refimpl k=" << k << " @" << i;
    }
  }
}

TEST(IncrementalTieBreaks, LatestOrderPinnedAtFullAndSmallK) {
  // Indices 11, 3, 4 share the latest release 9.0; ids 131 > 130 > 104
  // decide the order (descending).
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
  const std::vector<std::size_t> want_prefix = {11, 3, 4};
  const std::vector<std::size_t> full_ref = refimpl::by_latest_arrival(alive);
  // Admitted in index order, so the tied releases arrive out of order
  // and take the binary-search insert.
  IncrementalOrders inc = build_inc(alive);
  for (const std::size_t k : {std::size_t{3}, alive.size()}) {
    const auto got = inc.latest_prefix(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want_prefix.size(); ++i) {
      EXPECT_EQ(got[i], want_prefix[i]) << "k=" << k << " position " << i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], full_ref[i]) << "refimpl k=" << k << " @" << i;
    }
  }
}

TEST(IncrementalTieBreaks, TieOrderSurvivesChurn) {
  // After updates drive fresh ties into existence and removals shuffle
  // slots, both orders must still break ties exactly like refimpl.
  std::vector<AliveJob> alive = tie_heavy_alive();
  std::vector<double> rem = refimpl::remaining_column(alive);
  IncrementalOrders inc = build_inc(alive);
  // Tie three more jobs at remaining = 1.0 (equal release, id decides).
  for (const std::size_t i : {std::size_t{0}, std::size_t{12},
                              std::size_t{20}}) {
    rem[i] = 1.0;
    inc.update_remaining(i, 1.0);
  }
  // Remove one of the original tied jobs via the swap-remove mirror.
  const std::size_t last = alive.size() - 1;
  inc.remove_swap(9, last);
  alive[9] = alive[last];
  alive.pop_back();
  rem[9] = rem[last];
  rem.pop_back();
  const std::vector<std::size_t> ref = refimpl::by_remaining(alive, rem);
  const auto got = inc.srpt_prefix(alive, rem, alive.size());
  ASSERT_EQ(got.size(), alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "position " << i;
  }
  const std::vector<std::size_t> lref = refimpl::by_latest_arrival(alive);
  const auto lgot = inc.latest_prefix(alive.size());
  ASSERT_EQ(lgot.size(), alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    EXPECT_EQ(lgot[i], lref[i]) << "latest position " << i;
  }
  inc.audit(alive, rem);
}

}  // namespace
}  // namespace parsched
