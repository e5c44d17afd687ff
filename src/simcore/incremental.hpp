// parsched — the engine's ordering module.
//
// Every decision step needs (prefixes of) two strict total orders over
// the alive set: SRPT order (remaining, release, id) ascending and
// latest-arrival order (release, id) descending. IncrementalOrders keeps
// both *across* decisions, so no decision re-sorts the alive set:
//
//   SRPT     an intrusive binary min-heap with a position map. admit is
//            one sift-up, complete one heap-delete, and advance one sift
//            per job whose remaining work changed — or, when a step
//            changes most keys at once (an EQUI-style allocation runs
//            every job), one lazy-decay epoch: the heap is marked stale
//            and rebuilt in O(n) at the next SRPT query, which is
//            cheaper than n sift-downs and free for policies that never
//            ask for SRPT order.
//   latest   an array sorted by (release, id) ascending — the keys never
//            change after admission, and admissions arrive in release
//            order, so admit appends (a binary-search insert is needed
//            only for ties or out-of-order admissions). Completion
//            tombstones the entry in O(1); trailing tombstones are popped
//            at once and the rest compacted lazily, once they outnumber
//            the live entries. Queries walk from the back: O(k) for a
//            k-prefix, O(n) for the full order, no sift code at all.
//
// Both structures mirror the engine's completion swap-remove through
// their position maps (alive index -> slot), so every entry's alive
// index stays exact. Per-event costs (n alive, k the query width):
//
//                 SRPT heap                  latest array
//   admit         O(log n)                   O(1) amortized (append)
//   advance       O(log n) per changed key,  —
//                 or O(1) decay epoch
//   complete      O(log n)                   O(1) amortized
//   query         O(k log k) prefix,         O(k)
//                 O(n log n) full order
//
// On top sits the per-decision memo: a query writes its answer into a
// reusable result buffer and records the valid prefix length, so a
// repeated or narrower query in the same decision is O(1) and a wider
// one extends the answer. Every mutation forgets the answers it
// invalidates, so the memo lives exactly as long as one decision.
//
// Both comparators are strict total orders (ties break by job id), so a
// k-prefix is unique: the straightforward sorts in
// tests/simcore/ordering_oracle.hpp are the oracle every answer is
// differentially checked against.
//
// Allocation discipline: reserve(n) pre-sizes every buffer with
// geometric growth; the engine calls it at admission, after which every
// query and update — including a stale rebuild — is allocation-free and
// safe inside the engine's AllocGuard fences.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simcore/scheduler.hpp"

namespace parsched {

/// Flat ordering keys: compact records carrying the alive index the
/// queries scatter out. Sorting/sifting 32/24-byte keys beats chasing
/// ~150-byte AliveJob records.
struct SrptKey {
  double remaining;
  double release;
  JobId id;
  std::uint32_t idx;
};

struct LatestKey {
  double release;
  JobId id;
  std::uint32_t idx;
};

/// Canonical strict-total-order comparators over the flat keys — the
/// single definition of both tie-break orders. The key structs carry the
/// job id, making both orders strict total orders with unique k-prefixes.
struct SrptKeyLess {
  bool operator()(const SrptKey& a, const SrptKey& b) const {
    if (a.remaining != b.remaining) return a.remaining < b.remaining;
    if (a.release != b.release) return a.release < b.release;
    return a.id < b.id;
  }
};

struct LatestKeyLess {
  bool operator()(const LatestKey& a, const LatestKey& b) const {
    if (a.release != b.release) return a.release > b.release;
    return a.id > b.id;
  }
};

class IncrementalOrders {
 public:
  /// Drop every entry (a new run is starting). Keeps buffer capacity.
  void clear();

  /// Pre-size every internal buffer for up to `n` alive jobs (geometric
  /// growth, amortized O(1) per admission). Must be called with the new
  /// alive count before insert() — the engine does this outside its
  /// AllocGuard fences.
  void reserve(std::size_t n);

  /// Rebuild both orders from scratch over `alive` (snapshot restore, or
  /// a context built by hand). The SRPT side is left stale — it is
  /// regathered lazily at the first query, exactly like a decay epoch.
  void rebuild(std::span<const AliveJob> alive);

  /// Admit: `job` was just appended to the alive set at index `idx`
  /// (== previous size), with `job.remaining` its current remaining work
  /// (the admission record, whose remaining the engine's column copies).
  void insert(const AliveJob& job, std::size_t idx);

  /// The job at alive index `idx` now has `remaining` unprocessed work.
  /// O(log n); a no-op while the SRPT heap is stale (the pending rebuild
  /// re-reads every key from the alive set anyway).
  void update_remaining(std::size_t idx, double remaining);

  /// Complete: mirror of the engine's swap-remove. The job at alive
  /// index `idx` is gone and the job previously at index `last` (the
  /// back of the alive array before the removal) now lives at `idx`;
  /// idx == last removes the back element.
  void remove_swap(std::size_t idx, std::size_t last);

  /// Lazy-decay epoch: most remaining-work keys just changed at once, so
  /// per-key sifts would cost more than a rebuild. Marks the SRPT heap
  /// stale; the next SRPT query regathers keys from the remaining-work
  /// column and the alive set and re-heapifies in O(n).
  void decay_epoch() {
    srpt_stale_ = true;
    srpt_len_ = 0;
    ++decay_epochs_;
  }

  [[nodiscard]] std::size_t size() const { return latest_pos_.size(); }
  [[nodiscard]] bool srpt_stale() const { return srpt_stale_; }
  /// Telemetry: decay epochs declared since clear().
  [[nodiscard]] std::uint64_t decay_epochs() const { return decay_epochs_; }

  // The SRPT queries take the alive set (release, id) together with its
  // index-aligned remaining-work column: the keys a stale heap regathers.

  /// Alive indexes of the first min(k, n) jobs in SRPT order. The span
  /// stays valid, and its contents unchanged, until the next mutation.
  [[nodiscard]] std::span<const std::size_t> srpt_prefix(
      std::span<const AliveJob> alive, std::span<const double> remaining,
      std::size_t k);

  /// Alive index of the SRPT-least job (heap root). Requires size() > 0.
  [[nodiscard]] std::size_t min_srpt(std::span<const AliveJob> alive,
                                     std::span<const double> remaining);

  /// Same as srpt_prefix() for the latest-arrival order. Never triggers
  /// a rebuild: the keys are immutable after admission.
  [[nodiscard]] std::span<const std::size_t> latest_prefix(std::size_t k);

  /// Audit (PARSCHED_AUDIT): every entry matches the alive set and its
  /// remaining-work column, the position maps are bijections onto the
  /// alive indexes, the heap property holds, the latest array is sorted
  /// and its tombstone count is exact. Trips a PARSCHED_CHECK on any
  /// violation. O(n).
  void audit(std::span<const AliveJob> alive,
             std::span<const double> remaining) const;

 private:
  /// Alive-index sentinel of a tombstoned latest-array entry.
  static constexpr std::uint32_t kDead = UINT32_MAX;

  /// Drop both remembered answers (the alive set changed shape).
  void forget() {
    srpt_len_ = 0;
    latest_len_ = 0;
    latest_cursor_ = latest_.size();
  }
  void ensure_srpt_fresh(std::span<const AliveJob> alive,
                         std::span<const double> remaining);
  void compact_latest();

  // SRPT min-heap in SrptKeyLess order, alive idx -> slot in srpt_pos_.
  std::vector<SrptKey> srpt_;
  std::vector<std::uint32_t> srpt_pos_;
  std::vector<std::uint32_t> cand_;  ///< top-k traversal: heap-slot heap
  /// Full-order queries sort a compact copy (the heap keeps its shape).
  std::vector<SrptKey> srpt_scratch_;
  bool srpt_stale_ = true;  ///< rebuilt lazily at the next SRPT query
  std::uint64_t decay_epochs_ = 0;

  // Latest array, sorted by (release, id) ascending (so walking from the
  // back yields LatestKeyLess order); tombstones keep their keys, so the
  // whole array stays sorted. alive idx -> slot in latest_pos_.
  std::vector<LatestKey> latest_;
  std::vector<std::uint32_t> latest_pos_;
  std::size_t latest_dead_ = 0;

  // Per-decision memo: answers and their valid prefix lengths.
  std::vector<std::size_t> srpt_order_;
  std::vector<std::size_t> latest_order_;
  std::size_t srpt_len_ = 0;
  std::size_t latest_len_ = 0;
  std::size_t latest_cursor_ = 0;  ///< slots at or past it already walked
};

}  // namespace parsched
