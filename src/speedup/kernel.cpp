#include "speedup/kernel.hpp"

#include <cmath>
#include <limits>

#include "check/contract.hpp"
#include "speedup/curve.hpp"

namespace parsched::speedup {

// The flat kind bytes are the numeric values of SpeedupCurve::Kind —
// the engine's SoA sync writes static_cast<uint8_t>(curve.kind()), and
// the dispatch below depends on the correspondence never drifting.
static_assert(kKindFullyParallel ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kFullyParallel));
static_assert(kKindSequential ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kSequential));
static_assert(kKindPowerLaw ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kPowerLaw));
static_assert(kKindPiecewiseLinear ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kPiecewiseLinear));

namespace {

/// out[j] = speed * Γ_i(xs[i]) for j < out.size(), where i = idx[j] when
/// kGather (a sparse support) and i = j otherwise. The one per-element
/// body both arms and both element orders share, so a gathered element
/// gets exactly the bits its dense evaluation would.
///
/// kFast: power-law elements with x > 1 evaluate exp(α·log x) behind a
/// last-value memo — dense shared-α allocations (EQUI gives every alive
/// job the same share) evaluate one log+exp for the whole batch; mixed
/// populations degrade gracefully to one exp(α·log x) per element. The
/// memo is seeded with a NaN x so the first power-law element never
/// matches (NaN compares unequal to everything).
template <bool kFast, bool kGather>
PARSCHED_HOT void rate_impl(std::span<const std::uint8_t> kinds,
                            std::span<const double> alphas,
                            std::span<const double> xs, double speed,
                            std::span<double> out, PwlRateFn pwl,
                            const std::size_t* idx) {
  double memo_x = std::numeric_limits<double>::quiet_NaN();
  double memo_a = 0.0;
  double memo_g = 0.0;
  const std::size_t n = out.size();
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t i = j;
    if constexpr (kGather) i = idx[j];
    const double x = xs[i];
    PARSCHED_DCHECK(x >= 0.0, "negative processor share");
    double g;
    if (x <= 1.0) {
      g = x;  // all curves agree with Γ(x) = x on [0, 1]
    } else {
      switch (kinds[i]) {
        case kKindFullyParallel:
          g = x;
          break;
        case kKindSequential:
          g = 1.0;
          break;
        case kKindPowerLaw: {
          const double a = alphas[i];
          if constexpr (kFast) {
            if (x == memo_x && a == memo_a) {  // lint: float-eq-ok
              g = memo_g;
            } else {
              g = std::exp(a * std::log(x));
              memo_x = x;
              memo_a = a;
              memo_g = g;
            }
          } else {
            g = std::pow(x, a);
          }
          break;
        }
        default:
          PARSCHED_DCHECK(pwl.fn != nullptr,
                          "piecewise-linear element without a fallback");
          g = pwl.fn(pwl.ctx, i, x);
          break;
      }
    }
    out[j] = speed * g;
  }
}

}  // namespace

void rate_batch(std::span<const std::uint8_t> kinds,
                std::span<const double> alphas, std::span<const double> xs,
                double speed, std::span<double> out, PwlRateFn pwl) {
  PARSCHED_DCHECK(kinds.size() == out.size() && alphas.size() == out.size() &&
                      xs.size() == out.size(),
                  "rate_batch span length mismatch");
  rate_impl<false, false>(kinds, alphas, xs, speed, out, pwl, nullptr);
}

void rate_batch_fast(std::span<const std::uint8_t> kinds,
                     std::span<const double> alphas,
                     std::span<const double> xs, double speed,
                     std::span<double> out, PwlRateFn pwl) {
  PARSCHED_DCHECK(kinds.size() == out.size() && alphas.size() == out.size() &&
                      xs.size() == out.size(),
                  "rate_batch_fast span length mismatch");
  rate_impl<true, false>(kinds, alphas, xs, speed, out, pwl, nullptr);
}

void rate_gather(std::span<const std::size_t> idx,
                 std::span<const std::uint8_t> kinds,
                 std::span<const double> alphas, std::span<const double> xs,
                 double speed, std::span<double> out, PwlRateFn pwl) {
  PARSCHED_DCHECK(idx.size() == out.size() && kinds.size() == xs.size() &&
                      alphas.size() == xs.size(),
                  "rate_gather span length mismatch");
  rate_impl<false, true>(kinds, alphas, xs, speed, out, pwl, idx.data());
}

void rate_gather_fast(std::span<const std::size_t> idx,
                      std::span<const std::uint8_t> kinds,
                      std::span<const double> alphas,
                      std::span<const double> xs, double speed,
                      std::span<double> out, PwlRateFn pwl) {
  PARSCHED_DCHECK(idx.size() == out.size() && kinds.size() == xs.size() &&
                      alphas.size() == xs.size(),
                  "rate_gather_fast span length mismatch");
  rate_impl<true, true>(kinds, alphas, xs, speed, out, pwl, idx.data());
}

}  // namespace parsched::speedup
