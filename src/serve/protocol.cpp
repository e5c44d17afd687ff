#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "speedup/curve.hpp"

namespace parsched::serve {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// ---- decoder --------------------------------------------------------------

[[noreturn]] void fail(const std::string& why) {
  throw std::invalid_argument(why);
}

/// A JSON number as an integer field: it must be integral and inside
/// T's range (a bare cast of anything else is undefined behaviour).
template <class T>
T checked_integer(double x, const char* field) {
  using Limits = std::numeric_limits<T>;
  const double hi = std::ldexp(1.0, Limits::digits);  // 2^digits, exact
  const double lo = Limits::is_signed ? -hi : 0.0;
  if (!(x >= lo && x < hi) || std::trunc(x) != x) {
    fail(std::string(field) + " must be an integer in [" +
         std::to_string(Limits::min()) + ", " +
         std::to_string(Limits::max()) + "]");
  }
  return static_cast<T>(x);
}

/// A required number field; `missing` is the message when it is absent
/// or not a number.
double required_number(const JsonValue& obj, const char* field,
                       const std::string& missing) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_number()) fail(missing);
  return v->number;
}

SpeedupCurve parse_curve(const std::string& spec) {
  if (spec.empty() || spec == "par") return SpeedupCurve::fully_parallel();
  if (spec == "seq") return SpeedupCurve::sequential();
  if (spec.rfind("pow:", 0) == 0) {
    std::size_t used = 0;
    double alpha = 0.0;
    try {
      alpha = std::stod(spec.substr(4), &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != spec.size() - 4 || !(alpha >= 0.0) ||
        !(alpha <= 1.0)) {
      fail("bad power-law curve spec: " + spec);
    }
    return SpeedupCurve::power_law(alpha);
  }
  fail("unknown curve spec: " + spec + " (expected par|seq|pow:<alpha>)");
}

Job parse_job(const JsonValue& jv) {
  if (!jv.is_object()) fail("job must be an object");
  Job job;
  job.id = checked_integer<JobId>(
      required_number(jv, "id", "job.id (number) is required"), "job.id");
  job.release = jv.number_or("release", 0.0);
  job.size = jv.number_or("size", 1.0);
  job.weight = jv.number_or("weight", 1.0);
  job.curve = parse_curve(jv.string_or("curve", "par"));
  if (const JsonValue* phases = jv.find("phases"); phases != nullptr) {
    if (!phases->is_array()) fail("job.phases must be an array");
    for (const JsonValue& pv : phases->array) {
      if (!pv.is_object()) fail("job phase must be an object");
      job.phases.push_back({pv.number_or("work", 0.0),
                            parse_curve(pv.string_or("curve", "par"))});
    }
  }
  return job;
}

/// Everything after the id. Throws with the message the request answers.
void decode_fields(const JsonValue& req, Command& c) {
  const std::string op = req.string_or("op", "");
  if (op.empty()) fail("missing op");
  std::uint8_t v = 0;
  while (v < kVerbCount && op != verb_name(static_cast<Verb>(v))) ++v;
  const bool known = v < kVerbCount;
  if (known) c.verb = static_cast<Verb>(v);
  // An unknown op is read as a session verb: its session is checked
  // before its name.
  if (!known || addresses_session(c.verb)) {
    const double sid = required_number(req, "session", "missing session");
    if (!known) fail("unknown op: " + op);
    c.session = checked_integer<SessionId>(sid, "session");
  }
  switch (c.verb) {
    case Verb::kOpen:
      c.open.policy = req.string_or("policy", "equi");
      c.open.machines =
          checked_integer<int>(req.number_or("machines", 1.0), "machines");
      c.open.speed = req.number_or("speed", 1.0);
      c.key = checked_integer<std::uint64_t>(req.number_or("key", 0.0), "key");
      break;
    case Verb::kAdmit: {
      const JsonValue* job = req.find("job");
      if (job == nullptr) fail("admit requires job");
      c.job = parse_job(*job);
      break;
    }
    case Verb::kAdvance:
      c.to = required_number(req, "to", "advance requires to (number)");
      break;
    case Verb::kMigrate:
    case Verb::kEvacuate:
      c.shard = checked_integer<int>(
          required_number(req, "shard",
                          op + " requires shard (number)"),
          "shard");
      break;
    case Verb::kSnapshot:
    case Verb::kRestore:
    case Verb::kDump:
      c.path = req.string_or("path", "");
      break;
    default:
      break;
  }
}

Command decode_line(std::string_view line) {
  Command c;
  JsonValue req;
  std::string parse_error;
  if (!obs::json_parse(line, req, &parse_error)) {
    c.malformed = "bad JSON: " + parse_error;
    return c;
  }
  if (!req.is_object()) {
    c.malformed = "request must be a JSON object";
    return c;
  }
  if (const JsonValue* id = req.find("id"); id != nullptr && id->is_number()) {
    c.id.present = true;
    c.id.number = id->number;
  }
  try {
    decode_fields(req, c);
  } catch (const std::exception& e) {
    c.malformed = e.what();
  }
  return c;
}

// ---- encoder --------------------------------------------------------------

/// Shared shape of the query/finish payloads.
void write_result_fields(JsonWriter& w, const SimResult& r) {
  w.kv("jobs", static_cast<std::uint64_t>(r.records.size()));
  w.kv("total_flow", r.total_flow);
  w.kv("weighted_flow", r.weighted_flow);
  w.kv("fractional_flow", r.fractional_flow);
  w.kv("makespan", r.makespan);
  w.kv("decisions", r.decisions);
  w.kv("events", r.events);
}

void write_ok_fields(JsonWriter& w, const Reply& r) {
  switch (r.verb) {
    case Verb::kOpen:
    case Verb::kRestore:
      w.kv("session", static_cast<std::uint64_t>(r.session));
      w.kv("shard", static_cast<std::uint64_t>(r.shard < 0 ? 0 : r.shard));
      break;
    case Verb::kQuery:
      w.kv("policy", r.policy);
      w.kv("time", r.time);
      w.kv("frontier", r.frontier);
      w.kv("alive", r.alive);
      w.kv("pending", r.pending);
      w.kv("finished", r.finished);
      write_result_fields(w, *r.result);
      break;
    case Verb::kFinish:
      write_result_fields(w, *r.result);
      w.key("records");
      w.begin_array();
      for (const JobRecord& rec : r.result->records) {
        w.begin_object();
        w.kv("job", static_cast<std::uint64_t>(rec.job.id));
        w.kv("release", rec.job.release);
        w.kv("completion", rec.completion);
        w.end_object();
      }
      w.end_array();
      break;
    case Verb::kStats:
      w.kv("format", "prometheus");
      w.kv("metrics", r.metrics);
      w.kv("exposition", *r.text);
      break;
    case Verb::kDump:
      if (r.text != nullptr) {  // with a path the reply is a plain ok
        w.kv("kind", "parsched-flight-record");
        w.kv("dump", *r.text);
      }
      break;
    case Verb::kEvacuate:
      w.kv("shard", static_cast<std::uint64_t>(r.shard));
      w.kv("migrated", static_cast<std::uint64_t>(r.migrated));
      break;
    case Verb::kCluster:
      w.kv("shards", static_cast<std::uint64_t>(r.shard_sessions.size()));
      w.kv("sessions", r.sessions);
      w.key("shard_sessions");
      w.begin_array();
      for (const std::uint64_t n : r.shard_sessions) w.value(n);
      w.end_array();
      w.key("in_ring");
      w.begin_array();
      for (const bool in : r.in_ring) w.value(in);
      w.end_array();
      break;
    default:
      break;
  }
}

std::string encode_line(const Reply& r) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  if (r.id.present) w.kv("id", r.id.number);
  w.kv("ok", r.status == ReplyStatus::kOk);
  switch (r.status) {
    case ReplyStatus::kOk:
      write_ok_fields(w, r);
      break;
    case ReplyStatus::kError:
      w.kv("error", r.error);
      break;
    case ReplyStatus::kReject:
      w.kv("error", std::string(verb_name(r.verb)) + " rejected");
      w.kv("reject", to_string(r.verdict));
      break;
  }
  w.end_object();
  return os.str();
}

}  // namespace

bool ProtocolHandler::handle_line(std::string_view line, WriteFn write) {
  return execute(decode_line(line), cluster_,
                 Replier{&encode_line, std::move(write)});
}

}  // namespace parsched::serve
