// parsched tests — the ordering oracle.
//
// refimpl:: holds the straightforward definitions of the SchedulerContext
// ordering helpers: per-call iota + sort / nth_element over the AliveJob
// records (release, id) and the remaining-work column, with no flat keys
// and no state kept between calls. Like the policies, the oracle reads
// remaining work from the column index-aligned with the records — in the
// engine its SoA column, the one live copy — never from
// AliveJob::remaining.
// The engine's IncrementalOrders (simcore/incremental.hpp) must give
// exactly these answers: both comparators are strict total orders (ties
// break by job id), so every k-prefix is unique.
//
// OracleCheckedScheduler wraps a policy and, after every decision, checks
// each ordering answer the decision's context gives — SRPT and
// latest-arrival prefixes at several widths, both full orders and the
// SRPT minimum — against the oracle. The differential tests and the fuzzer
// drive it through the real engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simcore/scheduler.hpp"

namespace parsched::refimpl {

/// (remaining, release, id) lexicographic SRPT order, remaining work read
/// from the column `remaining` (index-aligned with `alive`).
struct SrptLess {
  std::span<const AliveJob> alive;
  std::span<const double> remaining;
  bool operator()(std::size_t a, std::size_t b) const {
    if (remaining[a] != remaining[b]) return remaining[a] < remaining[b];
    const AliveJob& ja = alive[a];
    const AliveJob& jb = alive[b];
    if (ja.release != jb.release) return ja.release < jb.release;
    return ja.id < jb.id;
  }
};

/// The records' own remaining work as a column: the column a hand-built
/// alive set (whose records are its only data) hands a context.
inline std::vector<double> remaining_column(std::span<const AliveJob> alive) {
  std::vector<double> out;
  out.reserve(alive.size());
  for (const AliveJob& a : alive) out.push_back(a.remaining);
  return out;
}

/// (release, id) descending: latest arrival first.
struct LatestLess {
  std::span<const AliveJob> alive;
  bool operator()(std::size_t a, std::size_t b) const {
    const AliveJob& ja = alive[a];
    const AliveJob& jb = alive[b];
    if (ja.release != jb.release) return ja.release > jb.release;
    return ja.id > jb.id;
  }
};

/// The first min(k, n) indices of `alive` in `less` order, written into
/// `idx`. Allocation-free once `idx` has capacity for alive.size().
template <class Less>
void fill_first_k(std::span<const AliveJob> alive, std::size_t k, Less less,
                  std::vector<std::size_t>& idx) {
  idx.resize(alive.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  if (k < idx.size()) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                     idx.end(), less);
    idx.resize(k);
  }
  std::sort(idx.begin(), idx.end(), less);
}

template <class Less>
std::vector<std::size_t> first_k(std::span<const AliveJob> alive,
                                 std::size_t k, Less less) {
  std::vector<std::size_t> idx;
  fill_first_k(alive, k, less, idx);
  return idx;
}

inline std::vector<std::size_t> by_remaining(
    std::span<const AliveJob> alive, std::span<const double> remaining) {
  return first_k(alive, alive.size(), SrptLess{alive, remaining});
}

inline std::vector<std::size_t> smallest_remaining(
    std::span<const AliveJob> alive, std::span<const double> remaining,
    std::size_t k) {
  return first_k(alive, k, SrptLess{alive, remaining});
}

inline std::size_t min_remaining(std::span<const AliveJob> alive,
                                 std::span<const double> remaining) {
  std::size_t best = 0;
  const SrptLess less{alive, remaining};
  for (std::size_t i = 1; i < alive.size(); ++i) {
    if (less(i, best)) best = i;
  }
  return best;
}

inline std::vector<std::size_t> by_latest_arrival(
    std::span<const AliveJob> alive) {
  return first_k(alive, alive.size(), LatestLess{alive});
}

inline std::vector<std::size_t> latest_arrivals(std::span<const AliveJob> alive,
                                                std::size_t k) {
  return first_k(alive, k, LatestLess{alive});
}

/// Empty when `got` equals `want` entry for entry; else what differs.
inline std::string span_mismatch(std::span<const std::size_t> got,
                                 std::span<const std::size_t> want) {
  if (got.size() != want.size()) {
    return "length " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      return "position " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs oracle " + std::to_string(want[i]);
    }
  }
  return {};
}

/// A policy wrapper that lets the wrapped policy decide first (so it sees
/// the context exactly as in production), then checks every ordering
/// answer of the decision's context against the oracle: both prefixes at
/// widths that grow then shrink (memo extension and memo reuse), both
/// full orders and the SRPT minimum.
///
/// The check runs inside the engine's PARSCHED_AUDIT allocation fence,
/// so it is allocation-free on warm steps: the oracle's buffers only grow
/// when the alive count reaches a new maximum, exactly when the engine
/// leaves the step unfenced. A mismatch is recorded as plain fields and
/// only formatted by first_mismatch().
class OracleCheckedScheduler : public Scheduler {
 public:
  explicit OracleCheckedScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string save_state() const override {
    return inner_->save_state();
  }
  void load_state(const std::string& state) override {
    inner_->load_state(state);
  }
  void reset() override {
    inner_->reset();
    decisions_ = 0;
    checked_ = 0;
    mismatch_ = Mismatch{};
  }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    inner_->allocate(ctx, out);
    ++decisions_;
    if (mismatch_.query == nullptr && check(ctx)) ++checked_;
  }

  /// Decisions whose every ordering answer was checked and matched.
  [[nodiscard]] std::size_t checked() const { return checked_; }
  /// Empty while every answer matched the oracle.
  [[nodiscard]] std::string first_mismatch() const {
    const Mismatch& m = mismatch_;
    if (m.query == nullptr) return {};
    return "decision " + std::to_string(m.decision) + " (t=" +
           std::to_string(m.time) + ", alive=" + std::to_string(m.alive) +
           "): " + m.query + "(" + std::to_string(m.k) + ") " +
           (m.got_len != m.want_len
                ? "length " + std::to_string(m.got_len) + " vs oracle " +
                      std::to_string(m.want_len)
                : "position " + std::to_string(m.position) + ": " +
                      std::to_string(m.got) + " vs oracle " +
                      std::to_string(m.want));
  }

 private:
  struct Mismatch {
    const char* query = nullptr;  ///< null: no mismatch yet
    std::size_t decision = 0;
    double time = 0.0;
    std::size_t alive = 0;
    std::size_t k = 0;
    std::size_t got_len = 0;
    std::size_t want_len = 0;
    std::size_t position = 0;
    std::size_t got = 0;
    std::size_t want = 0;
  };

  /// True when `got` equals the first min(k, n) entries of `full`;
  /// otherwise records the difference.
  bool agree(const SchedulerContext& ctx, const char* query, std::size_t k,
             std::span<const std::size_t> got,
             const std::vector<std::size_t>& full) {
    const std::size_t want_len = std::min(k, full.size());
    std::size_t pos = 0;
    while (pos < want_len && pos < got.size() && got[pos] == full[pos]) ++pos;
    if (got.size() == want_len && pos == want_len) return true;
    Mismatch& m = mismatch_;
    m.query = query;
    m.decision = decisions_ - 1;
    m.time = ctx.time();
    m.alive = ctx.alive().size();
    m.k = k;
    m.got_len = got.size();
    m.want_len = want_len;
    m.position = pos;
    m.got = pos < got.size() ? got[pos] : 0;
    m.want = pos < want_len ? full[pos] : 0;
    return false;
  }

  bool check(const SchedulerContext& ctx) {
    const std::span<const AliveJob> alive = ctx.alive();
    const std::size_t n = alive.size();
    if (n == 0) return true;
    fill_first_k(alive, n, SrptLess{alive, ctx.remaining()}, srpt_);
    fill_first_k(alive, n, LatestLess{alive}, latest_);
    const auto m = static_cast<std::size_t>(ctx.machines());
    for (const std::size_t k : {std::size_t{1}, m, n / 2, n, m, n + 3}) {
      if (!agree(ctx, "smallest_remaining", k, ctx.smallest_remaining(k),
                 srpt_) ||
          !agree(ctx, "latest_arrivals", k, ctx.latest_arrivals(k),
                 latest_)) {
        return false;
      }
    }
    const std::size_t min = ctx.min_remaining();
    return agree(ctx, "by_remaining", n, ctx.by_remaining(), srpt_) &&
           agree(ctx, "by_latest_arrival", n, ctx.by_latest_arrival(),
                 latest_) &&
           agree(ctx, "min_remaining", 1, {&min, 1}, srpt_);
  }

  std::unique_ptr<Scheduler> inner_;
  std::vector<std::size_t> srpt_;    ///< oracle SRPT order, this decision
  std::vector<std::size_t> latest_;  ///< oracle latest order, this decision
  std::size_t decisions_ = 0;
  std::size_t checked_ = 0;
  Mismatch mismatch_;
};

}  // namespace parsched::refimpl
