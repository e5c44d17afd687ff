// perfbench — the open-loop request plan of serve_mixed.
//
// The client sends on a fixed schedule, independent of replies: request
// k of a phase at rate r is due k / r seconds after the phase starts,
// and each request is timed from its due time, so a stall also charges
// the requests queued behind it. Which session a request goes to
// (Zipf(theta) popularity) and every job it admits come from the seed
// alone, so the same seed gives the same plan.
//
// Each session sends what `parsched loadgen` sends with its default
// settings (src/serve/loadgen.cpp, LoadgenConfig): admits of jobs with
// size uniform on [0.5, 2] and a power-law curve with alpha uniform on
// [0.25, 0.75], released at evenly spaced times, and after every 16th
// admit an advance to that admit's release. Its query comes once, at the
// end, before finish.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/job.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Verb : std::uint8_t { kAdmit, kAdvance, kQuery, kStats };

[[nodiscard]] const char* verb_name(Verb v);

/// One planned request.
struct Planned {
  double due = 0.0;  ///< seconds after the phase starts
  std::uint64_t rid = 0;
  std::uint32_t session = 0;  ///< session index (unused for kStats)
  Verb verb = Verb::kQuery;
  int conn = 0;  ///< 0: NDJSON, 1: PBIN
  // kAdmit
  std::uint32_t job_id = 0;
  double release = 0.0;
  double size = 0.0;
  double alpha = 0.0;  ///< power-law exponent of the job's curve
  // kAdvance
  double to = 0.0;
};

/// Admits per advance, as loadgen's advance_every.
inline constexpr std::uint32_t kAdvanceEvery = 16;

/// The job an admit request carries.
[[nodiscard]] parsched::Job job_of(const Planned& p);

/// Session a request index goes to over the two connections: even
/// sessions speak NDJSON, odd ones PBIN, so each session's requests stay
/// in order on one connection.
[[nodiscard]] inline int conn_of_session(std::uint32_t session) {
  return static_cast<int>(session % 2);
}

struct PlanConfig {
  std::uint64_t seed = 1;
  std::uint32_t sessions = 256;
  double theta = 1.0;  ///< Zipf popularity exponent (multiple of 0.5)
  double stats_period_s = 0.01;
};

/// Generates phases of the plan. State (each session's simulated clock
/// and next job id, the request-id counter and the random stream)
/// carries from one phase to the next.
class Planner {
 public:
  explicit Planner(const PlanConfig& cfg);

  /// `rate` requests per second for `duration` seconds, plus a stats
  /// scrape every stats_period_s, sorted by due time.
  [[nodiscard]] std::vector<Planned> phase(double rate, double duration);

  /// Reserve a request id outside any phase (opens, finishes, closes).
  std::uint64_t take_rid() { return next_rid_++; }

 private:
  PlanConfig cfg_;
  parsched::Rng rng_;
  std::vector<double> cum_;  ///< Zipf cumulative weights
  std::vector<std::uint32_t> next_op_;  ///< requests planned per session
  std::uint64_t next_rid_ = 1;
  std::uint64_t stats_seq_ = 0;
};

/// Request encodings for one connection's codec.
[[nodiscard]] std::string encode_ndjson(const Planned& p, std::uint64_t sid);
[[nodiscard]] std::string encode_pbin(const Planned& p, std::uint64_t sid);

/// Matches replies to outstanding requests by request id; replies may
/// arrive in any order across sessions and connections.
class ReplyMatcher {
 public:
  void expect(std::uint64_t rid, std::size_t slot);
  /// The slot a reply belongs to, removed from the outstanding set;
  /// nullopt for an id that is not outstanding.
  [[nodiscard]] std::optional<std::size_t> match(std::uint64_t rid);
  [[nodiscard]] std::size_t outstanding() const { return open_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::size_t> open_;
};

/// Times of one request. Latency counts from the due time, not from
/// when the generator got round to sending it.
struct RequestTiming {
  double due = 0.0;
  double sent = 0.0;
  double reply = 0.0;
  [[nodiscard]] double latency() const { return reply - due; }
  [[nodiscard]] double lag() const { return sent - due; }
  [[nodiscard]] double rtt() const { return reply - sent; }
};

/// What the client needs from any reply: its request id and verdict.
struct ReplyInfo {
  std::uint64_t rid = 0;
  bool ok = false;
  bool reject = false;  ///< backpressure (queue full, draining, cap)
};

/// Decode a reply line (NDJSON) or payload (PBIN); nullopt when it is
/// malformed or carries no request id.
[[nodiscard]] std::optional<ReplyInfo> parse_reply(const std::string& reply,
                                                   bool pbin);

}  // namespace perfbench
