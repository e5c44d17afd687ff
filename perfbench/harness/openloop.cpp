#include "harness/openloop.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.hpp"
#include "serve/binproto.hpp"
#include "serve/shapes.hpp"

namespace perfbench {

namespace {

// Simulated time between a session's releases. loadgen releases 64 jobs
// per simulated second, 20 times what m = 4 machines can serve; its
// sessions end after 200 admits, while these live for the whole run (a
// hot one takes tens of thousands of admits), so at that rate their
// backlogs would grow through the run. Jobs average 1.25 units of work,
// so this spacing puts each session at half load (1.25 / (4 * 0.625))
// and keeps its engine small.
constexpr double kReleaseGap = 0.625;

}  // namespace

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::kAdmit:
      return "admit";
    case Verb::kAdvance:
      return "advance";
    case Verb::kQuery:
      return "query";
    case Verb::kStats:
      return "stats";
  }
  return "?";
}

parsched::Job job_of(const Planned& p) {
  parsched::Job j;
  j.id = p.job_id;
  j.release = p.release;
  j.size = p.size;
  j.curve = parsched::SpeedupCurve::power_law(p.alpha);
  return j;
}

Planner::Planner(const PlanConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed ^ 0x9e3779b97f4a7c15ULL),
      next_op_(cfg.sessions, 0) {
  double acc = 0.0;
  for (std::uint32_t i = 0; i < cfg.sessions; ++i) {
    acc += 1.0 / parsched::serve::half_step_pow(i + 1.0, cfg.theta);
    cum_.push_back(acc);
  }
  for (double& c : cum_) c /= acc;
}

std::vector<Planned> Planner::phase(double rate, double duration) {
  std::vector<Planned> out;
  const auto n = static_cast<std::uint64_t>(std::floor(rate * duration));
  const auto scrapes =
      static_cast<std::uint64_t>(std::floor(duration / cfg_.stats_period_s));
  out.reserve(n + scrapes);
  for (std::uint64_t k = 0; k < n; ++k) {
    Planned p;
    p.due = static_cast<double>(k) / rate;
    const double u = rng_.uniform01();
    p.session = static_cast<std::uint32_t>(
        std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
    p.session = std::min(p.session, cfg_.sessions - 1);
    p.conn = conn_of_session(p.session);
    // A session's requests repeat kAdvanceEvery admits, then the advance
    // to the last admit's release. Job j is released at j * kReleaseGap.
    const std::uint32_t op = next_op_[p.session]++;
    const std::uint32_t admitted = op - op / (kAdvanceEvery + 1);
    if (op % (kAdvanceEvery + 1) == kAdvanceEvery) {
      p.verb = Verb::kAdvance;
      p.to = static_cast<double>(admitted - 1) * kReleaseGap;
    } else {
      p.verb = Verb::kAdmit;
      p.job_id = admitted;
      p.release = static_cast<double>(admitted) * kReleaseGap;
      p.size = 0.5 + 1.5 * rng_.uniform01();
      p.alpha = 0.25 + 0.5 * rng_.uniform01();
    }
    out.push_back(p);
  }
  for (std::uint64_t k = 0; k < scrapes; ++k) {
    Planned p;
    p.due = static_cast<double>(k) * cfg_.stats_period_s;
    p.verb = Verb::kStats;
    p.conn = static_cast<int>(stats_seq_++ % 2);
    out.push_back(p);
  }
  std::stable_sort(out.begin(), out.end(), [](const Planned& a, const Planned& b) {
    return a.due < b.due;
  });
  for (Planned& p : out) p.rid = next_rid_++;
  return out;
}

std::string encode_ndjson(const Planned& p, std::uint64_t sid) {
  using parsched::obs::json_number;
  std::ostringstream os;
  os << "{\"op\":\"" << verb_name(p.verb) << "\",\"id\":" << p.rid;
  switch (p.verb) {
    case Verb::kAdmit:
      os << ",\"session\":" << sid << ",\"job\":{\"id\":" << p.job_id
         << ",\"release\":" << json_number(p.release)
         << ",\"size\":" << json_number(p.size) << ",\"curve\":\"pow:"
         << json_number(p.alpha) << "\"}";
      break;
    case Verb::kAdvance:
      os << ",\"session\":" << sid << ",\"to\":" << json_number(p.to);
      break;
    case Verb::kQuery:
      os << ",\"session\":" << sid;
      break;
    case Verb::kStats:
      break;
  }
  os << '}';
  return os.str();
}

std::string encode_pbin(const Planned& p, std::uint64_t sid) {
  namespace s = parsched::serve;
  switch (p.verb) {
    case Verb::kAdmit:
      return s::bin_admit(p.rid, sid, job_of(p));
    case Verb::kAdvance:
      return s::bin_advance(p.rid, sid, p.to);
    case Verb::kQuery:
      return s::bin_query(p.rid, sid);
    case Verb::kStats:
      return s::bin_stats(p.rid);
  }
  return {};
}

void ReplyMatcher::expect(std::uint64_t rid, std::size_t slot) {
  open_[rid] = slot;
}

std::optional<std::size_t> ReplyMatcher::match(std::uint64_t rid) {
  const auto it = open_.find(rid);
  if (it == open_.end()) return std::nullopt;
  const std::size_t slot = it->second;
  open_.erase(it);
  return slot;
}

std::optional<ReplyInfo> parse_reply(const std::string& reply, bool pbin) {
  ReplyInfo info;
  if (pbin) {
    try {
      const parsched::serve::BinResponse r =
          parsched::serve::parse_bin_response(reply);
      info.rid = r.rid;
      info.ok = r.status == parsched::serve::BinStatus::kOk;
      info.reject = r.status == parsched::serve::BinStatus::kReject;
      return info;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  parsched::obs::JsonValue v;
  if (!parsched::obs::json_parse(reply, v) || !v.is_object()) return std::nullopt;
  const parsched::obs::JsonValue* id = v.find("id");
  if (id == nullptr || !id->is_number()) return std::nullopt;
  info.rid = static_cast<std::uint64_t>(id->number);
  info.ok = v.bool_or("ok", false);
  info.reject = v.find("reject") != nullptr;
  return info;
}

}  // namespace perfbench
