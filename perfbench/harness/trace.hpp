// perfbench — in-memory span tracer for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into
// the library's layers; nothing inside the library is instrumented. A
// span has a name "<layer>.<call>", a start, an end, the span that
// caused it and, for serve traffic, the request id every span of one
// request shares. Counters are recorded at the same boundaries. All of
// it stays in memory and is written once, at the end, as Chrome
// trace-event JSON (chrome://tracing and Perfetto open it).
//
// A disabled Tracer records nothing and Scope costs one branch, so the
// untraced run carries no tracing work.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds, steady clock
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::uint64_t rid = 0;     ///< request id; 0 when not a serve request
  int tid = 0;
};

struct CounterEvent {
  std::string name;
  double t = 0.0;
  double value = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span on this thread; its parent is `parent`, or the thread's
  /// innermost open span when `parent` is kAutoParent. Returns -1 when
  /// tracing is off.
  static constexpr std::int64_t kAutoParent = -2;
  std::int64_t begin(const std::string& name, std::uint64_t rid = 0,
                     std::int64_t parent = kAutoParent);
  /// Close a span opened by begin() on this thread.
  void end(std::int64_t id);
  /// Record a finished span with explicit times and parent (spans whose
  /// start and end are seen on different threads, e.g. a request's
  /// due time and its reply). Returns the span id, -1 when off.
  std::int64_t record(const std::string& name, double start, double end,
                      std::int64_t parent = -1, std::uint64_t rid = 0);
  void counter(const std::string& name, double value);

  /// RAII begin/end.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::uint64_t rid = 0,
          std::int64_t parent = kAutoParent)
        : t_(t), id_(t.on() ? t.begin(std::string(name), rid, parent) : -1) {}
    ~Scope() {
      if (id_ >= 0) t_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int64_t id_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span and counter as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<CounterEvent> counters_;
  std::int64_t next_id_ = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may
/// overlap when they ran on different threads). Index-aligned with
/// `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Total self time per span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
