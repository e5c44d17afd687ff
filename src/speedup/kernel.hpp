// parsched — batched speedup-rate evaluation over flat (kind, α) arrays.
//
// The engine's fused validation+rates pass historically evaluated
// Γ_j(x_j) through a SpeedupCurve value stored inside each AliveJob: one
// out-of-line SpeedupCurve::rate() call — and for the paper's power-law
// family one scalar std::pow — per alive job per decision. With the
// alive set restructured as structure-of-arrays (simcore/engine.hpp's
// AliveSoA), the per-decision rate evaluation becomes one call over four
// dense arrays, which this header provides in two arms:
//
//   rate_batch       the DEFAULT arm: per element, exactly the scalar
//                    arithmetic of SpeedupCurve::rate() (same branch
//                    structure, same std::pow call), so its output is
//                    bit-identical to the historic per-job loop. A pure
//                    layout change — E1/E2/E5 artifacts are byte-stable
//                    under it (the PR 5/PR 8 proof obligation).
//
//   rate_batch_fast  the OPT-IN arm (EngineConfig::fast_rate_kernel):
//                    power-law elements with x > 1 evaluate
//                    exp(α·log x) instead of pow(x, α), with a
//                    last-value memo so a run of elements sharing one
//                    (x, α) pair — the shared-α case EQUI-style dense
//                    allocations hit constantly, where every alive job
//                    receives the same share — pays ONE log+exp for the
//                    whole run and a copy per element. Bit-exact
//                    guarantees: x <= 1 (every curve is Γ(x) = x there),
//                    sequential and fully-parallel kinds (α ∈ {0, 1} —
//                    SpeedupCurve::power_law canonicalizes those to the
//                    closed-form kinds), and piecewise-linear curves
//                    (delegated to the same fallback as the default
//                    arm). Power-law x > 1 results differ from the
//                    scalar arm by a bounded ULP distance only
//                    (tests/test_rate_kernel.cpp pins the bound).
//
// Both arms are allocation-free over caller-owned spans — safe inside
// the engine's PR-6 AllocGuard fences — and multiply by the engine
// speed in the same `speed * Γ(x)` expression the scalar path used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace parsched::speedup {

/// Fallback evaluator for elements whose curve the flat (kind, α)
/// arrays cannot encode (Kind::kPiecewiseLinear needs its knot vector).
/// `fn(ctx, i, x)` must return exactly `speed_less_rate`, i.e. the
/// curve's Γ_i(x) — the kernel applies the speed factor itself, keeping
/// the arithmetic identical across kinds. A null `fn` with a
/// piecewise-linear element present is a contract violation.
struct PwlRateFn {
  double (*fn)(const void* ctx, std::size_t i, double x) = nullptr;
  const void* ctx = nullptr;
};

/// Curve kinds as stored in the flat arrays: the numeric values of
/// SpeedupCurve::Kind, narrowed to one byte so the kind array stays
/// dense. kernel.cpp static_asserts the correspondence.
inline constexpr std::uint8_t kKindFullyParallel = 0;
inline constexpr std::uint8_t kKindSequential = 1;
inline constexpr std::uint8_t kKindPowerLaw = 2;
inline constexpr std::uint8_t kKindPiecewiseLinear = 3;

/// Default arm: out[i] = speed * Γ_i(xs[i]) with the exact scalar
/// arithmetic of SpeedupCurve::rate() — bit-identical to the historic
/// per-job loop. All spans must have equal length; out may not alias
/// xs/alphas. Requires xs[i] >= 0 (DCHECK, matching rate()).
void rate_batch(std::span<const std::uint8_t> kinds,
                std::span<const double> alphas, std::span<const double> xs,
                double speed, std::span<double> out, PwlRateFn pwl = {});

/// Opt-in fast arm: power-law x > 1 via exp(α·log x) with a last-value
/// memo (one log+exp per distinct consecutive (x, α) pair). See the
/// header comment for the bit-exactness guarantees and the bounded-ULP
/// contract on power-law elements.
void rate_batch_fast(std::span<const std::uint8_t> kinds,
                     std::span<const double> alphas,
                     std::span<const double> xs, double speed,
                     std::span<double> out, PwlRateFn pwl = {});

/// Gathering forms of the two arms, for a sparse allocation: out[j] =
/// speed * Γ_i(xs[i]) with i = idx[j], read straight from the full
/// columns (kinds/alphas/xs share one length; out matches idx). Element
/// j gets exactly the bits rate_batch / rate_batch_fast give element i;
/// the pwl fallback is called with the column index i.
void rate_gather(std::span<const std::size_t> idx,
                 std::span<const std::uint8_t> kinds,
                 std::span<const double> alphas, std::span<const double> xs,
                 double speed, std::span<double> out, PwlRateFn pwl = {});
void rate_gather_fast(std::span<const std::size_t> idx,
                      std::span<const std::uint8_t> kinds,
                      std::span<const double> alphas,
                      std::span<const double> xs, double speed,
                      std::span<double> out, PwlRateFn pwl = {});

}  // namespace parsched::speedup
