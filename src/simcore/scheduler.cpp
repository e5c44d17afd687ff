#include "simcore/scheduler.hpp"

#include "check/contract.hpp"
#include "simcore/incremental.hpp"

namespace parsched {

namespace {

/// The orders a context answers from must index the context's alive set.
IncrementalOrders& in_step(IncrementalOrders* orders,
                           std::span<const AliveJob> alive) {
  PARSCHED_CHECK(orders->size() == alive.size(),
                 "SchedulerContext orders out of step with its alive set");
  return *orders;
}

}  // namespace

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::by_remaining()
    const {
  return in_step(orders_, alive_)
      .srpt_prefix(alive_, remaining_, alive_.size());
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::smallest_remaining(
    std::size_t k) const {
  return in_step(orders_, alive_).srpt_prefix(alive_, remaining_, k);
}

PARSCHED_HOT std::size_t SchedulerContext::min_remaining() const {
  return in_step(orders_, alive_).min_srpt(alive_, remaining_);
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::by_latest_arrival()
    const {
  return in_step(orders_, alive_).latest_prefix(alive_.size());
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::latest_arrivals(
    std::size_t k) const {
  return in_step(orders_, alive_).latest_prefix(k);
}

}  // namespace parsched
