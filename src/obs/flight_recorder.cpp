#include "obs/flight_recorder.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <ostream>

#include "util/fsio.hpp"

namespace parsched::obs {
namespace {

// obs_core cannot use obs/json.hpp (that would be a layering back-edge),
// so the dump writer carries its own minimal JSON emission: shortest
// round-trip numbers via std::to_chars and escaping for the one
// free-form string field (the dump reason).
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string_view flight_event_name(FlightEvent ev) {
  switch (ev) {
    case FlightEvent::kDecision:
      return "decision";
    case FlightEvent::kAdmit:
      return "admit";
    case FlightEvent::kComplete:
      return "complete";
    case FlightEvent::kGuardTrip:
      return "guard_trip";
    case FlightEvent::kStall:
      return "stall";
    case FlightEvent::kSubmit:
      return "submit";
    case FlightEvent::kDispatch:
      return "dispatch";
    case FlightEvent::kNote:
      return "note";
    case FlightEvent::kMigrate:
      return "migrate";
    case FlightEvent::kReroute:
      return "reroute";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity),
      mask_(std::has_single_bit(slots_.size()) ? slots_.size() - 1 : 0) {}

void FlightRecorder::record(FlightEvent kind, std::uint64_t id, double t,
                            double v, std::uint32_t a) noexcept {
  const std::uint64_t ticket =
      next_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[slot_of(ticket)];
  // Seqlock publish: odd while writing, ticket-derived even when done.
  // Field stores are relaxed atomics — two writers lapping each other on
  // the same slot interleave benignly and the reader's state re-check
  // discards the slot.
  s.state.store(2 * ticket + 1, std::memory_order_release);
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s.id.store(id, std::memory_order_relaxed);
  s.t.store(t, std::memory_order_relaxed);
  s.v.store(v, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.state.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t start = end > cap ? end - cap : 0;
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(end - start));
  for (std::uint64_t ticket = start; ticket < end; ++ticket) {
    const Slot& s = slots_[slot_of(ticket)];
    if (s.state.load(std::memory_order_acquire) != 2 * ticket + 2) {
      continue;  // not yet published, or already being overwritten
    }
    Event e;
    e.seq = ticket;
    e.kind = static_cast<FlightEvent>(s.kind.load(std::memory_order_relaxed));
    e.id = s.id.load(std::memory_order_relaxed);
    e.t = s.t.load(std::memory_order_relaxed);
    e.v = s.v.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    // Re-check after the field reads: a writer may have lapped the slot
    // mid-copy, in which case the copy is torn and must be dropped.
    if (s.state.load(std::memory_order_acquire) != 2 * ticket + 2) {
      continue;
    }
    events.push_back(e);
  }
  return events;
}

void FlightRecorder::dump_jsonl(std::ostream& os,
                                std::string_view reason) const {
  const std::vector<Event> events = snapshot();
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t dropped =
      total > slots_.size() ? total - slots_.size() : 0;
  std::string line;
  line.reserve(160);
  line += "{\"ev\": \"header\", \"kind\": \"parsched-flight-record\", "
          "\"schema\": 1, \"reason\": \"";
  append_escaped(line, reason);
  line += "\", \"capacity\": ";
  append_u64(line, slots_.size());
  line += ", \"recorded\": ";
  append_u64(line, total);
  line += ", \"dropped\": ";
  append_u64(line, dropped);
  line += ", \"events\": ";
  append_u64(line, events.size());
  line += "}\n";
  os << line;
  for (const Event& e : events) {
    line.clear();
    line += "{\"ev\": \"";
    line += flight_event_name(e.kind);
    line += "\", \"seq\": ";
    append_u64(line, e.seq);
    line += ", \"id\": ";
    append_u64(line, e.id);
    line += ", \"t\": ";
    append_double(line, e.t);
    line += ", \"v\": ";
    append_double(line, e.v);
    line += ", \"a\": ";
    append_u64(line, e.a);
    line += "}\n";
    os << line;
  }
}

bool FlightRecorder::dump_to_file(std::string_view reason) const noexcept {
  if (dump_path_.empty()) return false;
  // The black box must never turn the failure being recorded into a
  // different failure: any write error is swallowed (reported by the
  // false return only).
  try {
    auto out = open_output(dump_path_, "flight-recorder dump");
    dump_jsonl(out, reason);
    finish_output(out, dump_path_);
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace parsched::obs
