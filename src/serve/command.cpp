#include "serve/command.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/expose.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/cluster.hpp"
#include "serve/snapshot.hpp"
#include "util/fsio.hpp"

namespace parsched::serve {

namespace {

// The verb table, indexed by Verb: NDJSON op name, and whether the verb
// addresses an existing session.
struct VerbInfo {
  const char* name;
  bool session;
};
constexpr VerbInfo kVerbs[kVerbCount] = {
    {"ping", false},     {"open", false},    {"admit", true},
    {"advance", true},   {"query", true},    {"snapshot", true},
    {"restore", false},  {"finish", true},   {"close", true},
    {"stats", false},    {"dump", false},    {"shutdown", false},
    {"migrate", true},   {"evacuate", false}, {"cluster", false}};

void write_file(const std::string& path, std::string_view bytes,
                const char* what) {
  auto out = open_output(path, what);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  finish_output(out, path);
}

void require_path(const Command& c) {
  if (c.path.empty()) {
    throw std::invalid_argument(std::string(verb_name(c.verb)) +
                                " requires path");
  }
}

/// The strand half of admit, advance, query, snapshot and finish. A
/// failing op answers its request instead of killing the strand.
void run_on_strand(const Command& c, Session& s, const Replier& reply) {
  Reply r;
  r.id = c.id;
  r.verb = c.verb;
  try {
    switch (c.verb) {
      case Verb::kAdmit:
        s.admit(c.job);
        break;
      case Verb::kAdvance:
        s.advance(c.to);
        break;
      case Verb::kQuery:
        r.policy = s.policy_name();
        r.time = s.time();
        r.frontier = s.frontier();
        r.alive = s.alive_count();
        r.pending = s.pending_count();
        r.finished = s.finished();
        r.result = &s.partial();
        break;
      case Verb::kSnapshot:
        write_file(c.path, s.snapshot(), "session snapshot");
        break;
      default:  // kFinish: the reply reads the latched result in place
        s.finish();
        r.result = &s.result();
        break;
    }
  } catch (const std::exception& e) {
    r.status = ReplyStatus::kError;
    r.error = e.what();
    reply(r);
    return;
  }
  reply(r);
}

}  // namespace

const char* verb_name(Verb v) {
  return kVerbs[static_cast<std::uint8_t>(v)].name;
}

bool addresses_session(Verb v) {
  return kVerbs[static_cast<std::uint8_t>(v)].session;
}

bool execute(Command c, Cluster& cluster, const Replier& reply) {
  Reply r;
  r.id = c.id;
  r.verb = c.verb;
  std::string text;  // stats exposition / dump JSONL, viewed by r.text
  try {
    // Availability precedes every field: a server without the telemetry
    // plumbing says so whatever the request carries.
    if (c.verb == Verb::kStats && cluster.config().metrics == nullptr) {
      throw std::invalid_argument("stats: server has no metrics registry");
    }
    if (c.verb == Verb::kDump && cluster.config().recorder == nullptr) {
      throw std::invalid_argument("dump: server has no flight recorder");
    }
    if (!c.malformed.empty()) throw std::invalid_argument(c.malformed);

    Submit verdict = Submit::kAccepted;
    switch (c.verb) {
      case Verb::kPing:
        break;
      case Verb::kShutdown:
        cluster.drain();  // flushes every queued reply first
        reply(r);
        return false;
      case Verb::kStats: {
        // Answered inline, never on a strand: telemetry must respond
        // even when every session is wedged.
        const obs::MetricsSnapshot snap = cluster.merged_snapshot();
        r.metrics = snap.samples.size();
        text = obs::exposition_text(snap);
        r.text = &text;
        break;
      }
      case Verb::kDump: {
        std::ostringstream dump;
        cluster.config().recorder->dump_jsonl(dump, "dump_verb");
        text = dump.str();
        if (c.path.empty()) {
          r.text = &text;
        } else {
          write_file(c.path, text, "flight-recorder dump");
        }
        break;
      }
      case Verb::kCluster:
        r.sessions = cluster.session_count();
        for (int i = 0; i < cluster.shards(); ++i) {
          r.shard_sessions.push_back(cluster.session_count(i));
          r.in_ring.push_back(cluster.shard_in_ring(i));
        }
        break;
      case Verb::kEvacuate:
        r.shard = c.shard;
        r.migrated = cluster.evacuate(c.shard);
        break;
      case Verb::kOpen:
        verdict = cluster.open(c.open, r.session, c.key, &r.shard);
        break;
      case Verb::kRestore:
        require_path(c);
        verdict = cluster.adopt(
            Session::restore(read_snapshot_file(c.path), nullptr),
            r.session, 0, &r.shard);
        break;
      case Verb::kClose:
        verdict = cluster.close(c.session);
        break;
      case Verb::kMigrate:
        verdict = cluster.migrate(c.session, c.shard);
        break;
      case Verb::kSnapshot:
        require_path(c);
        [[fallthrough]];
      default: {  // admit, advance, query, finish: one closure each
        const SessionId sid = c.session;
        verdict = cluster.submit(
            sid, [c = std::move(c), reply](Session& s) {
              run_on_strand(c, s, reply);
            });
        if (verdict == Submit::kAccepted) return true;  // answered there
        break;
      }
    }
    if (verdict != Submit::kAccepted) {
      r.status = ReplyStatus::kReject;
      r.verdict = verdict;
    }
  } catch (const std::exception& e) {
    r.status = ReplyStatus::kError;
    r.error = e.what();
    reply(r);
    return true;
  }
  reply(r);
  return true;
}

}  // namespace parsched::serve
