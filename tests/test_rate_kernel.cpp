// Tests for src/speedup/kernel.hpp — the batched rate kernel — and the
// engine's SoA alive-set mirror that feeds it.
//
// The contract under test, layer by layer:
//   * rate_batch (default arm) is bit-identical to the scalar
//     SpeedupCurve::rate() loop it replaced — a pure layout change.
//   * rate_batch_fast is bit-exact at x <= 1, for the closed-form kinds
//     (α ∈ {0, 1} — power_law canonicalizes those), and for
//     piecewise-linear fallback elements; power-law x > 1 stays within
//     a small ULP distance of the scalar arm.
//   * The engine's AliveSoA mirror matches alive_ field-for-field under
//     any interleaving of admit / advance / complete / snapshot-import.
//   * The opt-in fast arm perturbs a full simulation only at ULP level
//     (same decision structure, totals within tight relative tolerance),
//     and snapshots refuse to cross kernel arms.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "speedup/curve.hpp"
#include "speedup/kernel.hpp"
#include "util/rng.hpp"

namespace parsched {
namespace {

using speedup::rate_batch;
using speedup::rate_batch_fast;

// ULP distance between two same-sign finite doubles.
std::uint64_t ulp_diff(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

// A deterministic mixed population: all four kinds, α spread over (0, 1),
// shares spanning [0, x_max] including the x <= 1 boundary band.
struct Population {
  std::vector<SpeedupCurve> curves;
  std::vector<std::uint8_t> kinds;
  std::vector<double> alphas;
  std::vector<double> xs;
};

Population mixed_population(std::size_t n, double x_max, std::uint64_t seed) {
  Population p;
  Rng rng(seed);
  p.curves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        p.curves.push_back(SpeedupCurve::fully_parallel());
        break;
      case 1:
        p.curves.push_back(SpeedupCurve::sequential());
        break;
      case 2:
        p.curves.push_back(SpeedupCurve::power_law(rng.uniform(0.05, 0.95)));
        break;
      default:
        p.curves.push_back(
            SpeedupCurve::piecewise_linear({{2.0, 1.8}, {8.0, 3.0}}));
        break;
    }
    // Half the shares land in [0, 1.25] so the x <= 1 branch is dense.
    p.xs.push_back(rng.bernoulli(0.5) ? rng.uniform(0.0, 1.25)
                                      : rng.uniform(1.0, x_max));
  }
  for (const SpeedupCurve& c : p.curves) {
    p.kinds.push_back(static_cast<std::uint8_t>(c.kind()));
    p.alphas.push_back(c.alpha());
  }
  return p;
}

speedup::PwlRateFn pwl_from(const std::vector<SpeedupCurve>& curves) {
  return {[](const void* ctx, std::size_t i, double x) {
            const auto* cs = static_cast<const std::vector<SpeedupCurve>*>(ctx);
            return (*cs)[i].rate(x);
          },
          &curves};
}

TEST(RateKernel, DefaultArmBitIdenticalToScalarLoop) {
  const Population p = mixed_population(4096, 64.0, 0xA11CE);
  for (const double speed : {1.0, 1.5, 2.0}) {
    std::vector<double> out(p.xs.size());
    rate_batch(p.kinds, p.alphas, p.xs, speed, out, pwl_from(p.curves));
    for (std::size_t i = 0; i < p.xs.size(); ++i) {
      const double scalar = speed * p.curves[i].rate(p.xs[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(scalar))
          << "kind=" << static_cast<int>(p.kinds[i]) << " x=" << p.xs[i]
          << " speed=" << speed << " at i=" << i;
    }
  }
}

TEST(RateKernel, FastArmBitExactWhereGuaranteed) {
  // x <= 1 (every kind), α ∈ {0, 1} at any x, and piecewise-linear
  // fallback elements must be bit-identical to the default arm; only
  // power-law elements with x > 1 may differ.
  const Population p = mixed_population(4096, 64.0, 0xBEEF);
  std::vector<double> slow(p.xs.size()), fast(p.xs.size());
  rate_batch(p.kinds, p.alphas, p.xs, 1.0, slow, pwl_from(p.curves));
  rate_batch_fast(p.kinds, p.alphas, p.xs, 1.0, fast, pwl_from(p.curves));
  for (std::size_t i = 0; i < p.xs.size(); ++i) {
    if (p.kinds[i] == speedup::kKindPowerLaw && p.xs[i] > 1.0) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast[i]),
              std::bit_cast<std::uint64_t>(slow[i]))
        << "kind=" << static_cast<int>(p.kinds[i]) << " x=" << p.xs[i];
  }
}

TEST(RateKernel, FastArmWithinUlpBoundOnPowerLaw) {
  // exp(α·log x) vs pow(x, α): the log error is amplified by α·log x
  // before exp turns it into relative error, so the ULP distance grows
  // with log x — ~|α·log x| ULPs plus rounding. x up to 2^20 keeps the
  // bound comfortably under 32 ULPs; the fuzz pins that envelope.
  Rng rng(0xFA57);
  std::uint64_t worst = 0;
  for (int trial = 0; trial < 200'000; ++trial) {
    const double a = rng.uniform(0.01, 0.99);
    const double x = std::exp(rng.uniform(0.0, std::log(1048576.0)));
    if (x <= 1.0) continue;
    const std::uint8_t kind = speedup::kKindPowerLaw;
    double slow_out, fast_out;
    rate_batch({&kind, 1}, {&a, 1}, {&x, 1}, 1.0, {&slow_out, 1});
    rate_batch_fast({&kind, 1}, {&a, 1}, {&x, 1}, 1.0, {&fast_out, 1});
    ASSERT_TRUE(std::isfinite(fast_out));
    worst = std::max(worst, ulp_diff(slow_out, fast_out));
  }
  EXPECT_LE(worst, 32u) << "fast arm drifted beyond the ULP envelope";
}

TEST(RateKernel, FastArmMemoIsExactOnSharedAlpha) {
  // A shared-(x, α) batch — the EQUI dense-allocation shape — must give
  // every element the identical bits the first (memo-miss) element got,
  // which in turn must match a fresh single-element evaluation.
  const std::size_t n = 1024;
  std::vector<std::uint8_t> kinds(n, speedup::kKindPowerLaw);
  std::vector<double> alphas(n, 0.5);
  std::vector<double> xs(n, 7.25);
  std::vector<double> out(n);
  rate_batch_fast(kinds, alphas, xs, 2.0, out);
  double single;
  rate_batch_fast({kinds.data(), 1}, {alphas.data(), 1}, {xs.data(), 1}, 2.0,
                  {&single, 1});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(single));
  }
  // Memo keys on the (x, α) pair: alternating α must not leak stale g.
  for (std::size_t i = 1; i < n; i += 2) alphas[i] = 0.75;
  rate_batch_fast(kinds, alphas, xs, 2.0, out);
  std::vector<double> slow(n);
  rate_batch(kinds, alphas, xs, 2.0, slow);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(ulp_diff(out[i], slow[i]), 32u) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Engine SoA mirror: property test over admit / advance / complete /
// snapshot-import interleavings.

void expect_mirror_matches(const Engine& eng) {
  const AliveSoA& soa = eng.alive_soa();
  const EngineState st = eng.export_state();
  ASSERT_EQ(soa.count(), st.alive.size());
  ASSERT_EQ(soa.size.size(), st.alive.size());
  ASSERT_EQ(soa.phase_remaining.size(), st.alive.size());
  ASSERT_EQ(soa.qfix.size(), st.alive.size());
  for (std::size_t i = 0; i < st.alive.size(); ++i) {
    const AliveJob& a = st.alive[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.remaining[i]),
              std::bit_cast<std::uint64_t>(a.remaining))
        << "remaining mismatch at i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.size[i]),
              std::bit_cast<std::uint64_t>(a.size))
        << "size mismatch at i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.phase_remaining[i]),
              std::bit_cast<std::uint64_t>(a.phase_remaining))
        << "phase_remaining mismatch at i=" << i;
    EXPECT_EQ(soa.qfix[i], to_qfix(a.remaining / a.size))
        << "qfix mismatch at i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.alpha[i]),
              std::bit_cast<std::uint64_t>(a.curve.alpha()))
        << "alpha mismatch at i=" << i;
    EXPECT_EQ(soa.kind[i], static_cast<std::uint8_t>(a.curve.kind()))
        << "kind mismatch at i=" << i;
  }
}

Job random_job(Rng& rng, JobId id, double release) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = rng.uniform(0.2, 3.0);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      j.curve = SpeedupCurve::fully_parallel();
      break;
    case 1:
      j.curve = SpeedupCurve::sequential();
      break;
    case 2:
      j.curve = SpeedupCurve::power_law(rng.uniform(0.1, 0.9));
      break;
    case 3:
      j.curve = SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}});
      break;
    default:
      // Multi-phase: the phase switch rewrites the live curve, which the
      // SoA mirror must track (Engine's soa_.set_curve sync site).
      return make_phased_job(
          id, release,
          {{rng.uniform(0.2, 1.0), SpeedupCurve::power_law(0.3)},
           {rng.uniform(0.2, 1.0), SpeedupCurve::sequential()},
           {rng.uniform(0.2, 1.0), SpeedupCurve::fully_parallel()}});
  }
  return j;
}

TEST(EngineSoA, MirrorTracksAliveSetUnderInterleaving) {
  for (const bool fast : {false, true}) {
    EngineConfig cfg;
    cfg.fast_rate_kernel = fast;
    auto eng = std::make_unique<Engine>(4, cfg);
    auto sched = make_scheduler("isrpt");
    eng->begin(*sched);

    Rng rng(fast ? 0x50A2 : 0x50A1);
    JobId next_id = 0;
    std::size_t admitted = 0;
    for (int step = 0; step < 160; ++step) {
      const double frontier = eng->frontier();
      const auto n_admit = rng.uniform_int(0, 2);
      for (int k = 0; k < n_admit; ++k) {
        eng->admit(random_job(rng, next_id++, frontier + rng.uniform(0.0, 1.0)));
        ++admitted;
      }
      eng->advance_to(frontier + rng.uniform(0.05, 0.9));
      expect_mirror_matches(*eng);

      if (step % 40 == 17) {
        // Snapshot round-trip into a fresh engine mid-run: import_state
        // must rebuild the mirror from the restored alive set.
        const EngineState st = eng->export_state();
        auto eng2 = std::make_unique<Engine>(4, cfg);
        auto sched2 = make_scheduler("isrpt");
        eng2->import_state(st, *sched2);
        expect_mirror_matches(*eng2);
        eng = std::move(eng2);
        sched = std::move(sched2);
      }
    }
    const SimResult r = eng->finish();
    EXPECT_EQ(r.jobs(), admitted);
  }
}

// ---------------------------------------------------------------------------
// Whole-simulation differential: the fast arm may move results by ULPs,
// never by structure.

Instance tie_free_instance(std::size_t n) {
  // Well-separated sizes and releases: no near-ties for the ULP-level
  // rate perturbation of the fast arm to flip, so both arms walk the
  // same decision sequence.
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = static_cast<double>(i) * 0.217;
    j.size = 1.0 + static_cast<double>((i * 37) % 101) * 0.103;
    j.curve = SpeedupCurve::power_law(0.2 + 0.6 * static_cast<double>(i % 7) / 7.0);
    jobs.push_back(j);
  }
  return Instance(8, jobs);
}

TEST(EngineSoA, FastArmMatchesDefaultArmToTolerance) {
  const Instance inst = tie_free_instance(300);
  SimResult res[2];
  for (const bool fast : {false, true}) {
    auto sched = make_scheduler("isrpt");
    EngineConfig cfg;
    cfg.fast_rate_kernel = fast;
    res[fast ? 1 : 0] = simulate(inst, *sched, cfg);
  }
  EXPECT_EQ(res[0].jobs(), 300u);
  EXPECT_EQ(res[1].jobs(), 300u);
  EXPECT_EQ(res[0].decisions, res[1].decisions);
  EXPECT_NEAR(res[1].total_flow, res[0].total_flow,
              1e-6 * std::max(1.0, res[0].total_flow));
  EXPECT_NEAR(res[1].fractional_flow, res[0].fractional_flow,
              1e-6 * std::max(1.0, res[0].fractional_flow));
  EXPECT_NEAR(res[1].makespan, res[0].makespan,
              1e-6 * std::max(1.0, res[0].makespan));
}

TEST(EngineSoA, ImportRejectsKernelArmMismatch) {
  EngineConfig slow_cfg;
  Engine donor(4, slow_cfg);
  auto sched = make_scheduler("isrpt");
  donor.begin(*sched);
  Job j;
  j.id = 1;
  j.size = 2.0;
  j.curve = SpeedupCurve::power_law(0.5);
  donor.admit(j);
  donor.advance_to(0.5);
  const EngineState st = donor.export_state();

  EngineConfig fast_cfg;
  fast_cfg.fast_rate_kernel = true;
  Engine receiver(4, fast_cfg);
  auto sched2 = make_scheduler("isrpt");
  EXPECT_THROW(receiver.import_state(st, *sched2), std::invalid_argument);
}

}  // namespace
}  // namespace parsched
