// parsched — the online scheduling policy interface.
//
// A policy is invoked at every decision point (arrival, completion, or a
// time the policy itself requested) and returns a fractional processor
// allocation over the currently alive jobs. Between decision points all
// rates are constant, which is what lets the engine advance with exact
// event times instead of a fixed timestep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "simcore/job.hpp"
#include "util/mathx.hpp"

namespace parsched {

/// One alive job as seen by a policy. Policies are non-clairvoyant about
/// the future but clairvoyant about remaining work, matching the paper's
/// SRPT-style algorithms (`original size` is also visible; the natural
/// greedy of Section 3 uses remaining work only).
struct AliveJob {
  JobId id = kInvalidJob;
  double release = 0.0;
  double size = 0.0;       ///< original work p_j
  /// Unprocessed work p_j(t), across all phases. The engine keeps the
  /// live value in its SoA column (policies read it through
  /// SchedulerContext::remaining()); in its records this field is current
  /// only inside Observer::on_decision and in an exported EngineState.
  double remaining = 0.0;
  double weight = 1.0;     ///< weight w_j of the weighted-flow objective
  /// Speedup curve of the *current* phase (the whole curve for
  /// single-phase jobs). This is what the job responds to right now.
  SpeedupCurve curve;
  std::int64_t arrival_seq = 0;  ///< global arrival ordinal (0-based)
  JobTag tag;  ///< workload metadata; online policies must not read this

  // Multi-phase bookkeeping (engine-internal; non-clairvoyant policies
  // must not read these — they reveal the future phase structure).
  std::vector<JobPhase> phases;
  std::size_t phase = 0;
  /// Work left in the current phase. The engine keeps the live value in
  /// its SoA columns; in its records this field is current only in an
  /// exported EngineState.
  double phase_remaining = 0.0;
};

class IncrementalOrders;

/// What a policy sees at a decision point.
///
/// Remaining work comes from `remaining`, a column index-aligned with
/// `alive`: the engine passes its SoA column, the one live copy, and a
/// policy must read remaining work through remaining(i), never from the
/// records' AliveJob::remaining (stale while the engine runs).
///
/// The ordering helpers answer from the engine's IncrementalOrders
/// (simcore/incremental.hpp), which keeps both orders across decisions
/// and remembers each decision's answers. A returned span stays valid for
/// the whole decision. A context built by hand (tests, probes) passes its
/// own remaining column and an IncrementalOrders filled with
/// rebuild(alive).
class SchedulerContext {
 public:
  SchedulerContext(double time, int machines, std::span<const AliveJob> alive,
                   std::span<const double> remaining,
                   IncrementalOrders& orders)
      : time_(time),
        machines_(machines),
        alive_(alive),
        remaining_(remaining),
        orders_(&orders) {
    PARSCHED_CHECK(remaining.size() == alive.size(),
                   "SchedulerContext remaining column out of step with its "
                   "alive set");
  }

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int machines() const { return machines_; }
  [[nodiscard]] std::span<const AliveJob> alive() const { return alive_; }

  /// Unprocessed work of alive()[i], across all phases.
  [[nodiscard]] double remaining(std::size_t i) const { return remaining_[i]; }
  /// The whole remaining-work column, index-aligned with alive().
  [[nodiscard]] std::span<const double> remaining() const {
    return remaining_;
  }

  /// Indices into alive() sorted by (remaining, release, id): SRPT order.
  [[nodiscard]] std::span<const std::size_t> by_remaining() const;

  /// Indices of the k jobs with least remaining work (SRPT order among
  /// them) — the first k entries of by_remaining() without paying for the
  /// full sort. O(k log k) from the SRPT heap.
  [[nodiscard]] std::span<const std::size_t> smallest_remaining(
      std::size_t k) const;

  /// Index of the single job with least remaining work: the heap root.
  [[nodiscard]] std::size_t min_remaining() const;

  /// Indices into alive() sorted by (release, id) descending: latest first
  /// (used by LAPS).
  [[nodiscard]] std::span<const std::size_t> by_latest_arrival() const;

  /// Indices of the k latest-arriving jobs. O(k).
  [[nodiscard]] std::span<const std::size_t> latest_arrivals(
      std::size_t k) const;

 private:
  double time_;
  int machines_;
  std::span<const AliveJob> alive_;
  std::span<const double> remaining_;
  IncrementalOrders* orders_;
};

/// A policy's answer: a share of processors for each job of
/// `ctx.alive()` (fractional, nonnegative, summing to at most m), plus an
/// optional absolute time by which the policy wants to be re-invoked even
/// if no arrival/completion happens (e.g. Greedy's priority-crossing
/// times).
///
/// Shares are written only through give() (one job) or fill() (every
/// job), so the allocation always knows its *support* — the jobs it gave a
/// nonzero share. The engine evaluates rates, the event time and the
/// advance sweep over the support alone, so a decision that runs m of n
/// jobs costs O(m), not O(n). shares() is the dense read-only view for
/// observers, snapshots and tests.
///
/// A fill() that no give() follows is *uniform*: every job holds the one
/// share s. With s <= 1 the engine then needs no per-job rate at all —
/// every curve is Γ(x) = x on [0, 1] — so EQUI-style decisions skip the
/// rate kernels (Engine::compute_rates). Dense does not imply uniform:
/// fill(0) followed by give() is dense with unequal shares.
class Allocation {
 public:
  double reconsider_at = kInf;

  /// Start a fresh decision over n jobs: zero shares, no reconsideration.
  /// Zeroes only the previous decision's support and reuses the buffers'
  /// capacity — every policy calls this first on the engine-owned output
  /// buffer, so a steady-state decision costs O(|support|) and allocates
  /// nothing.
  void reset(std::size_t n) {
    uniform_ = false;
    if (dense_) {
      shares_.assign(n, 0.0);
      dense_ = false;
    } else {
      for (const std::size_t i : support_) shares_[i] = 0.0;
      shares_.resize(n, 0.0);
    }
    support_.clear();
    // Geometric, and only at a new largest n: a decision over at most as
    // many jobs as an earlier one grows nothing, whatever its support.
    if (support_.capacity() < n) {
      support_.reserve(std::max(n, 2 * support_.capacity()));
    }
    reconsider_at = kInf;
  }

  /// Set job i's share to s, replacing an earlier give() to the same job.
  /// A share once given cannot be taken back to zero within a decision
  /// (reset() starts over); giving 0 to a job without a share is a no-op.
  /// Validation of s (sign, total) is the engine's job.
  void give(std::size_t i, double s) {
    PARSCHED_DCHECK(i < shares_.size(), "give() index out of range");
    uniform_ = false;
    double& slot = shares_[i];
    if (!dense_) {
      // Sparse mode keeps support == {i : share_i != 0}: a zero slot is
      // outside the support, a nonzero one inside it exactly once.
      if (slot == 0.0) {  // lint: float-eq-ok
        if (s == 0.0) return;  // lint: float-eq-ok
        support_.push_back(i);
      } else {
        PARSCHED_CHECK(s != 0.0,  // lint: float-eq-ok
                       "Allocation::give() cannot revoke a share");
      }
    }
    slot = s;
  }

  /// Give every job the same share s: a dense decision (EQUI, the
  /// underloaded branches). The support is then every index, recorded as
  /// a flag rather than an n-entry index list.
  void fill(double s) {
    std::fill(shares_.begin(), shares_.end(), s);
    dense_ = true;
    uniform_ = true;
    support_.clear();
  }

  /// Snapshot import: adopt a dense share vector and rebuild the support
  /// from its nonzero entries (the support is derived state, so snapshots
  /// carry only the shares).
  void assign(std::vector<double> shares) {
    shares_ = std::move(shares);
    dense_ = false;
    uniform_ = false;
    support_.clear();
    for (std::size_t i = 0; i < shares_.size(); ++i) {
      if (shares_[i] != 0.0) support_.push_back(i);  // lint: float-eq-ok
    }
  }

  /// Dense read-only view: one share per alive job.
  [[nodiscard]] std::span<const double> shares() const { return shares_; }
  [[nodiscard]] std::size_t size() const { return shares_.size(); }
  /// True when fill() made every job part of the support.
  [[nodiscard]] bool dense() const { return dense_; }
  /// True when the last write was fill(s): every share is exactly s.
  /// Implies dense(); a give() after the fill() clears it.
  [[nodiscard]] bool uniform() const { return uniform_; }
  /// The jobs given a nonzero share, in give() order, without duplicates.
  /// Meaningful only when !dense(); exactly {i : shares()[i] != 0}.
  [[nodiscard]] std::span<const std::size_t> support() const {
    return support_;
  }

 private:
  std::vector<double> shares_;
  std::vector<std::size_t> support_;
  bool dense_ = false;
  bool uniform_ = false;
};

/// Online scheduling policy. Implementations must be deterministic
/// functions of the context (plus internal state updated at decision
/// points) so simulations are reproducible.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fill `out` with this decision's allocation. `out` is an engine-owned
  /// buffer reused across decisions; implementations MUST begin with
  /// out.reset(ctx.alive().size()) — its previous contents are the last
  /// decision's answer, not zeros.
  virtual void allocate(const SchedulerContext& ctx, Allocation& out) = 0;

  /// Convenience for callers without a reusable buffer (tests, one-shot
  /// probes): returns a fresh Allocation.
  [[nodiscard]] Allocation allocate(const SchedulerContext& ctx) {
    Allocation out;
    allocate(ctx, out);
    return out;
  }

  /// Called once before a simulation run; default resets nothing.
  virtual void reset() {}

  /// Serialize the policy's mutable decision state for serve/ session
  /// snapshots. Stateless policies (everything except quantized-equi)
  /// return "". load_state() must accept exactly what save_state()
  /// produced and restore bit-identical future decisions; it throws
  /// std::invalid_argument on a blob it does not recognize.
  [[nodiscard]] virtual std::string save_state() const { return {}; }
  virtual void load_state(const std::string& state) {
    if (!state.empty()) {
      throw std::invalid_argument("policy " + name() +
                                  " carries no state to restore");
    }
  }
};

}  // namespace parsched
