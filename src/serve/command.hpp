// parsched — the serve verb table: typed commands and one execute().
//
// Both wires speak the same 15 verbs: NDJSON (serve/protocol.hpp) and
// PBIN (serve/binproto.hpp). Each wire is a thin codec around this
// file:
//
//   request bytes --decode--> Command --execute--> Reply --encode--> bytes
//
// execute() holds every verb's semantics once: which Cluster call a
// verb makes, how a Submit verdict becomes a reject, what runs inline
// (open, restore, close, migrate, evacuate, cluster, stats, dump,
// shutdown, ping) and what runs on the session's strand (admit,
// advance, query, snapshot, finish). A strand verb is one closure that
// runs the session call and encodes its reply on the strand; query and
// finish replies point into the session, so nothing is copied.
//
// Errors come from two places.
//   * Decoders never answer. A request they cannot read — bad JSON, a
//     missing or unknown op, a frame too short for its fields, a field
//     of the wrong type or out of its integer range — becomes a Command
//     whose `malformed` holds the message.
//   * execute() answers everything. First the verb's availability
//     (stats needs a metrics registry, dump a flight recorder — checked
//     before any field, so PBIN's dump answers it even when its path is
//     truncated), then `malformed`, then the verb's own preconditions
//     (restore and snapshot need a path), Cluster and Session
//     exceptions (unknown policy, shard out of range, an admission
//     below the frontier, ...) and file I/O. A verdict other than
//     kAccepted answers as a reject: retryable backpressure, not a
//     caller bug.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.hpp"
#include "serve/session.hpp"
#include "simcore/job.hpp"

namespace parsched::serve {

class Cluster;

/// The verbs. Values are the PBIN opcodes — wire format, append only.
enum class Verb : std::uint8_t {
  kPing = 0,
  kOpen = 1,
  kAdmit = 2,
  kAdvance = 3,
  kQuery = 4,
  kSnapshot = 5,
  kRestore = 6,
  kFinish = 7,
  kClose = 8,
  kStats = 9,
  kDump = 10,
  kShutdown = 11,
  kMigrate = 12,
  kEvacuate = 13,
  kCluster = 14,
};
inline constexpr std::uint8_t kVerbCount = 15;

/// The verb's NDJSON "op" name.
[[nodiscard]] const char* verb_name(Verb v);

/// True for the verbs that address an existing session.
[[nodiscard]] bool addresses_session(Verb v);

/// Reply status. Values are the PBIN status byte.
enum class ReplyStatus : std::uint8_t {
  kOk = 0,
  kError = 1,
  kReject = 2,
};

/// The request id a reply echoes: NDJSON's is any JSON number or
/// absent, PBIN's a u64.
struct RequestId {
  double number = 0.0;
  std::uint64_t rid = 0;
  bool present = false;
};

/// One decoded request. Which fields a verb reads is listed beside
/// each; the rest keep their defaults.
struct Command {
  Verb verb = Verb::kPing;
  RequestId id;
  std::string malformed;   ///< non-empty: the decoder's error message
  SessionId session = 0;   ///< session verbs
  Session::Config open;    ///< open: policy, machines, speed
  std::uint64_t key = 0;   ///< open: routing key (0: none)
  Job job;                 ///< admit
  double to = 0.0;         ///< advance
  int shard = 0;           ///< migrate, evacuate
  std::string path;        ///< snapshot, restore, dump (empty: inline)
};

/// One reply. Pointers and views refer to state that outlives the
/// encoder call (the session on its strand, execute()'s locals).
struct Reply {
  RequestId id;
  Verb verb = Verb::kPing;
  ReplyStatus status = ReplyStatus::kOk;
  std::string_view error;              ///< kError
  Submit verdict = Submit::kAccepted;  ///< kReject

  SessionId session = 0;  ///< open, restore
  int shard = 0;          ///< open, restore, evacuate
  int migrated = 0;       ///< evacuate

  // query: the session's state when the op ran
  std::string_view policy;
  double time = 0.0;
  double frontier = 0.0;
  std::uint64_t alive = 0;
  std::uint64_t pending = 0;
  bool finished = false;
  const SimResult* result = nullptr;  ///< query (partial), finish

  const std::string* text = nullptr;  ///< stats exposition, inline dump
  std::uint64_t metrics = 0;          ///< stats: exposition samples

  std::uint64_t sessions = 0;                 ///< cluster: total
  std::vector<std::uint64_t> shard_sessions;  ///< cluster, per shard
  std::vector<bool> in_ring;                  ///< cluster, per shard
};

/// Thread-safe sink for one encoded reply.
using WriteFn = std::function<void(const std::string&)>;

/// Where execute()'s replies go: the wire's encoder and the
/// connection's writer. Strand verbs carry a copy onto the strand.
struct Replier {
  std::string (*encode)(const Reply&) = nullptr;
  WriteFn write;

  void operator()(const Reply& r) const { write(encode(r)); }
};

/// Run one command against the cluster; every command is answered
/// exactly once through `reply` (strand verbs from a pool thread, later).
/// Returns false once shutdown has been served.
bool execute(Command cmd, Cluster& cluster, const Replier& reply);

}  // namespace parsched::serve
