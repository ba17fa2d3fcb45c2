// Host-time spans recorded by the benchmark around each call it makes into
// the simulator (machine construction, build, Machine::run, stats
// collection, each probe). Spans live in memory and are written out once,
// as Chrome trace-event JSON, when the traced run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace lrbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    int id = 0;       ///< Shared by every span of one point run (or probe set).
    int parent = -1;  ///< Index of the enclosing span; -1 for a root.
    int depth = 0;
  };

  /// RAII span: closes on destruction. A null log records nothing, so the
  /// untraced runs pay one branch per call site.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, int id, int parent = -1)
        : log_(log), index_(log ? log->open(std::move(name), id, parent) : -1) {}
    ~Scope() {
      if (log_) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const noexcept { return index_; }

   private:
    SpanLog* log_;
    int index_;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int open(std::string name, int id, int parent) {
    Span s;
    s.name = std::move(name);
    s.begin_ns = now_ns();
    s.id = id;
    s.parent = parent;
    s.depth = parent < 0 ? 0 : spans_[static_cast<std::size_t>(parent)].depth + 1;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One track (tid) per nesting depth: spans at one depth never overlap
  /// because the benchmark is sequential, which keeps every track sorted
  /// and non-overlapping as scripts/trace_validate.py requires. Timestamps
  /// are whole microseconds, floored at both ends so rounding cannot make
  /// neighbours overlap. `other_data` is a JSON object (the manifest).
  void write_chrome_json(std::ostream& os, const std::string& other_data) const {
    int max_depth = 0;
    for (const Span& s : spans_) max_depth = s.depth > max_depth ? s.depth : max_depth;
    os << "{\"traceEvents\":[\n";
    os << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"lrbench host"}})";
    for (int d = 0; d <= max_depth; ++d) {
      os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << d
         << ",\"args\":{\"name\":\"depth " << d << "\"}}";
    }
    for (int d = 0; d <= max_depth; ++d) {
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.depth != d) continue;
        const std::uint64_t ts = s.begin_ns / 1000;
        os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << d
           << ",\"ts\":" << ts << ",\"dur\":" << s.end_ns / 1000 - ts << ",\"args\":{\"span\":"
           << i << ",\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
      }
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":" << other_data << "}\n";
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - origin_)
                                          .count());
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace lrbench
