#include "simcore/incremental.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace parsched {

namespace {

// Intrusive sift helpers: every entry move mirrors into the position map
// (alive index -> heap slot), which is what lets remove_swap() find an
// arbitrary job's slot in O(1). Min-heaps in Less order: the root is the
// Less-least entry, parents precede children.

template <class E, class Less>
std::size_t sift_up(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
                    std::size_t s, Less less) {
  const E e = heap[s];
  while (s > 0) {
    const std::size_t p = (s - 1) / 2;
    if (!less(e, heap[p])) break;
    heap[s] = heap[p];
    pos[heap[s].idx] = static_cast<std::uint32_t>(s);
    s = p;
  }
  heap[s] = e;
  pos[e.idx] = static_cast<std::uint32_t>(s);
  return s;
}

template <class E, class Less>
void sift_down(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
               std::size_t s, Less less) {
  const std::size_t n = heap.size();
  const E e = heap[s];
  for (;;) {
    std::size_t c = 2 * s + 1;
    if (c >= n) break;
    if (c + 1 < n && less(heap[c + 1], heap[c])) ++c;
    if (!less(heap[c], e)) break;
    heap[s] = heap[c];
    pos[heap[s].idx] = static_cast<std::uint32_t>(s);
    s = c;
  }
  heap[s] = e;
  pos[e.idx] = static_cast<std::uint32_t>(s);
}

/// Restore the heap property around a slot whose key changed either way.
template <class E, class Less>
void reheap(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
            std::size_t s, Less less) {
  sift_down(heap, pos, sift_up(heap, pos, s, less), less);
}

/// Heap-delete by slot: move the back entry into the hole and re-sift.
template <class E, class Less>
void erase_slot(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
                std::size_t s, Less less) {
  const E back = heap.back();
  heap.pop_back();
  if (s < heap.size()) {
    heap[s] = back;
    pos[back.idx] = static_cast<std::uint32_t>(s);
    reheap(heap, pos, s, less);
  }
}

/// Fill the initial position map and heapify in O(n). Entries must
/// already sit at slot i with pos[entry.idx] == i.
template <class E, class Less>
void heapify(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
             Less less) {
  for (std::size_t i = heap.size() / 2; i-- > 0;) {
    sift_down(heap, pos, i, less);
  }
}

/// k-prefix of the total order without mutating the heap: a candidate
/// heap over *slots*, seeded with the root; popping the best candidate
/// admits its two children. At most want+1 candidates are live, so the
/// whole query is O(k log k) and touches only the top of the big heap.
/// std::push_heap/pop_heap build a max-heap in the given order, so the
/// slot order inverts Less: the "max" candidate is the Less-least entry.
template <class E, class Less>
void fill_topk(const std::vector<E>& heap, std::vector<std::uint32_t>& cand,
               std::size_t want, std::size_t* out, Less less) {
  const std::size_t n = heap.size();
  cand.clear();
  if (want == 0 || n == 0) return;
  cand.push_back(0);
  const auto slot_order = [&heap, less](std::uint32_t a, std::uint32_t b) {
    return less(heap[b], heap[a]);
  };
  for (std::size_t j = 0; j < want; ++j) {
    std::pop_heap(cand.begin(), cand.end(), slot_order);
    const std::uint32_t s = cand.back();
    cand.pop_back();
    out[j] = heap[s].idx;
    const std::size_t l = 2 * static_cast<std::size_t>(s) + 1;
    if (l < n) {
      cand.push_back(static_cast<std::uint32_t>(l));
      std::push_heap(cand.begin(), cand.end(), slot_order);
    }
    if (l + 1 < n) {
      cand.push_back(static_cast<std::uint32_t>(l + 1));
      std::push_heap(cand.begin(), cand.end(), slot_order);
    }
  }
}

template <typename V>
void grow(V& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, v.capacity() * 2));
}

/// (release, id) ascending: the latest array's storage order, the
/// reverse of LatestKeyLess.
bool latest_asc(const LatestKey& a, const LatestKey& b) {
  return LatestKeyLess{}(b, a);
}

}  // namespace

void IncrementalOrders::clear() {
  srpt_.clear();
  srpt_pos_.clear();
  cand_.clear();
  srpt_stale_ = true;
  decay_epochs_ = 0;
  latest_.clear();
  latest_pos_.clear();
  latest_dead_ = 0;
  forget();
}

void IncrementalOrders::reserve(std::size_t n) {
  grow(srpt_, n);
  grow(srpt_pos_, n);
  grow(cand_, n + 1);  // traversal holds at most want+1 live candidates
  grow(srpt_scratch_, n);
  grow(latest_, n);
  grow(latest_pos_, n);
  grow(srpt_order_, n);
  grow(latest_order_, n);
}

void IncrementalOrders::rebuild(std::span<const AliveJob> alive) {
  const std::size_t n = alive.size();
  clear();
  reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    latest_.push_back(LatestKey{alive[i].release, alive[i].id,
                                static_cast<std::uint32_t>(i)});
  }
  std::sort(latest_.begin(), latest_.end(), latest_asc);
  latest_pos_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    latest_pos_[latest_[s].idx] = static_cast<std::uint32_t>(s);
  }
  forget();
}

PARSCHED_HOT void IncrementalOrders::insert(const AliveJob& job,
                                            std::size_t idx) {
  PARSCHED_CHECK(idx == latest_pos_.size(),
                 "IncrementalOrders::insert out of step with the alive set");
  const LatestKey key{job.release, job.id, static_cast<std::uint32_t>(idx)};
  if (latest_.empty() || latest_asc(latest_.back(), key)) {
    latest_pos_.push_back(static_cast<std::uint32_t>(latest_.size()));
    latest_.push_back(key);
  } else {
    // A tie or an out-of-order admission: insert in place and renumber
    // the shifted tail.
    const auto it =
        std::upper_bound(latest_.begin(), latest_.end(), key, latest_asc);
    const auto s = static_cast<std::size_t>(it - latest_.begin());
    latest_pos_.push_back(0);
    latest_.insert(it, key);
    for (std::size_t t = s; t < latest_.size(); ++t) {
      if (latest_[t].idx != kDead) {
        latest_pos_[latest_[t].idx] = static_cast<std::uint32_t>(t);
      }
    }
  }
  if (!srpt_stale_) {
    srpt_pos_.push_back(static_cast<std::uint32_t>(srpt_.size()));
    srpt_.push_back(SrptKey{job.remaining, job.release, job.id,
                            static_cast<std::uint32_t>(idx)});
    sift_up(srpt_, srpt_pos_, srpt_.size() - 1, SrptKeyLess{});
  }
  forget();
}

PARSCHED_HOT void IncrementalOrders::update_remaining(std::size_t idx,
                                                      double remaining) {
  if (srpt_stale_) return;  // the pending rebuild re-reads every key
  srpt_len_ = 0;
  const std::size_t s = srpt_pos_[idx];
  srpt_[s].remaining = remaining;
  reheap(srpt_, srpt_pos_, s, SrptKeyLess{});
}

PARSCHED_HOT void IncrementalOrders::remove_swap(std::size_t idx,
                                                 std::size_t last) {
  latest_[latest_pos_[idx]].idx = kDead;
  ++latest_dead_;
  if (idx != last) {
    const std::uint32_t s = latest_pos_[last];
    latest_[s].idx = static_cast<std::uint32_t>(idx);
    latest_pos_[idx] = s;
  }
  latest_pos_.pop_back();
  while (!latest_.empty() && latest_.back().idx == kDead) {
    latest_.pop_back();
    --latest_dead_;
  }
  if (latest_dead_ > latest_pos_.size()) compact_latest();
  if (!srpt_stale_) {
    erase_slot(srpt_, srpt_pos_, srpt_pos_[idx], SrptKeyLess{});
    if (idx != last) {
      const std::uint32_t s = srpt_pos_[last];
      srpt_[s].idx = static_cast<std::uint32_t>(idx);
      srpt_pos_[idx] = s;
    }
    srpt_pos_.pop_back();
  }
  forget();
}

void IncrementalOrders::compact_latest() {
  // Amortized O(1) per completion: runs only once the tombstones
  // outnumber the live entries, and costs O(live + dead).
  std::size_t w = 0;
  for (const LatestKey& e : latest_) {
    if (e.idx == kDead) continue;
    latest_[w] = e;
    latest_pos_[e.idx] = static_cast<std::uint32_t>(w);
    ++w;
  }
  latest_.resize(w);
  latest_dead_ = 0;
}

PARSCHED_HOT void IncrementalOrders::ensure_srpt_fresh(
    std::span<const AliveJob> alive, std::span<const double> remaining) {
  if (!srpt_stale_) return;
  const std::size_t n = alive.size();
  PARSCHED_CHECK(n == size() && remaining.size() == n,
                 "IncrementalOrders out of step with the alive set");
  srpt_.resize(n);
  srpt_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const AliveJob& j = alive[i];
    srpt_[i] = SrptKey{remaining[i], j.release, j.id,
                       static_cast<std::uint32_t>(i)};
    srpt_pos_[i] = static_cast<std::uint32_t>(i);
  }
  heapify(srpt_, srpt_pos_, SrptKeyLess{});
  srpt_stale_ = false;
}

PARSCHED_HOT std::size_t IncrementalOrders::min_srpt(
    std::span<const AliveJob> alive, std::span<const double> remaining) {
  ensure_srpt_fresh(alive, remaining);
  PARSCHED_CHECK(!srpt_.empty(), "min_remaining over an empty alive set");
  return srpt_[0].idx;
}

PARSCHED_HOT std::span<const std::size_t> IncrementalOrders::srpt_prefix(
    std::span<const AliveJob> alive, std::span<const double> remaining,
    std::size_t k) {
  const std::size_t n = alive.size();
  const std::size_t want = std::min(k, n);
  if (want <= srpt_len_) return {srpt_order_.data(), want};
  ensure_srpt_fresh(alive, remaining);
  srpt_order_.resize(n);
  if (want < n) {
    // The heap-slot traversal rewrites the remembered prefix with the same
    // entries (the order is a strict total order), so earlier spans keep
    // their contents.
    fill_topk(srpt_, cand_, want, srpt_order_.data(), SrptKeyLess{});
  } else {
    // Full order: sort a compact copy of the keys (the heap itself must
    // keep its shape).
    srpt_scratch_.assign(srpt_.begin(), srpt_.end());
    std::sort(srpt_scratch_.begin(), srpt_scratch_.end(), SrptKeyLess{});
    for (std::size_t i = 0; i < n; ++i) srpt_order_[i] = srpt_scratch_[i].idx;
  }
  srpt_len_ = want;
  return {srpt_order_.data(), want};
}

PARSCHED_HOT std::span<const std::size_t> IncrementalOrders::latest_prefix(
    std::size_t k) {
  const std::size_t want = std::min(k, size());
  latest_order_.resize(size());
  // Resume the walk from the back where the remembered prefix stopped,
  // skipping tombstones.
  while (latest_len_ < want) {
    const std::uint32_t idx = latest_[--latest_cursor_].idx;
    if (idx != kDead) latest_order_[latest_len_++] = idx;
  }
  return {latest_order_.data(), want};
}

void IncrementalOrders::audit(std::span<const AliveJob> alive,
                              std::span<const double> remaining) const {
  const std::size_t n = alive.size();
  PARSCHED_CHECK(latest_pos_.size() == n && remaining.size() == n,
                 "ordering audit: latest position map size mismatch");
  std::size_t live = 0;
  std::size_t dead = 0;
  for (std::size_t s = 0; s < latest_.size(); ++s) {
    const LatestKey& e = latest_[s];
    if (s > 0) {
      PARSCHED_CHECK(!latest_asc(e, latest_[s - 1]),
                     "ordering audit: latest array not sorted");
    }
    if (e.idx == kDead) {
      ++dead;
      continue;
    }
    PARSCHED_CHECK(e.idx < n, "ordering audit: latest idx out of range");
    const AliveJob& j = alive[e.idx];
    PARSCHED_CHECK(e.release == j.release && e.id == j.id,
                   "ordering audit: latest key diverged from alive job");
    PARSCHED_CHECK(latest_pos_[e.idx] == s,
                   "ordering audit: latest position map inconsistent");
    ++live;
  }
  // n live entries, each the image of its own alive index: a bijection.
  PARSCHED_CHECK(live == n, "ordering audit: latest live count mismatch");
  PARSCHED_CHECK(dead == latest_dead_,
                 "ordering audit: latest tombstone count mismatch");
  PARSCHED_CHECK(latest_.empty() || latest_.back().idx != kDead,
                 "ordering audit: trailing latest tombstone");
  PARSCHED_CHECK(latest_dead_ <= n,
                 "ordering audit: latest tombstones left uncompacted");
  if (srpt_stale_) return;  // keys pending a lazy regather carry no claim
  PARSCHED_CHECK(srpt_.size() == n && srpt_pos_.size() == n,
                 "ordering audit: srpt heap size mismatch");
  const SrptKeyLess sless{};
  for (std::size_t s = 0; s < n; ++s) {
    const SrptKey& e = srpt_[s];
    PARSCHED_CHECK(e.idx < n, "ordering audit: srpt idx out of range");
    const AliveJob& j = alive[e.idx];
    PARSCHED_CHECK(e.remaining == remaining[e.idx] && e.release == j.release &&
                       e.id == j.id,
                   "ordering audit: srpt key diverged from alive job");
    PARSCHED_CHECK(srpt_pos_[e.idx] == s,
                   "ordering audit: srpt position map inconsistent");
    if (s > 0) {
      PARSCHED_CHECK(!sless(e, srpt_[(s - 1) / 2]),
                     "ordering audit: srpt heap property violated");
    }
  }
}

}  // namespace parsched
