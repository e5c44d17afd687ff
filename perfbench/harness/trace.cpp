#include "harness/trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "harness/stats.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> t_open;  // this thread's open spans

int thread_index() {
  static std::mutex mu;
  static int next = 0;
  thread_local int mine = -1;
  if (mine < 0) {
    std::lock_guard<std::mutex> lock(mu);
    mine = next++;
  }
  return mine;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::int64_t Tracer::begin(const std::string& name, std::uint64_t rid,
                           std::int64_t parent) {
  if (!on_) return -1;
  const double t = now_s();
  if (parent == kAutoParent) parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t id = next_id_++;
  spans_.push_back({name, t, t, id, parent, rid, thread_index()});
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (!on_ || id < 0) return;
  const double t = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::uint64_t rid) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t id = next_id_++;
  spans_.push_back({name, start, end, id, parent, rid, thread_index()});
  return id;
}

void Tracer::counter(const std::string& name, double value) {
  if (!on_) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, t, value});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  double t0 = 0.0;
  bool have_t0 = false;
  for (const Span& s : spans_) {
    if (!have_t0 || s.start < t0) t0 = s.start;
    have_t0 = true;
  }
  for (const CounterEvent& c : counters_) {
    if (!have_t0 || c.t < t0) t0 = c.t;
    have_t0 = true;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << std::setprecision(15) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const Span& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    sep();
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << (s.start - t0) * 1e6
        << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid << "}}";
  }
  for (const CounterEvent& c : counters_) {
    sep();
    out << "{\"name\":\"" << json_escape(c.name)
        << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << (c.t - t0) * 1e6
        << ",\"args\":{\"value\":" << c.value << "}}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write on trace " + path);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
