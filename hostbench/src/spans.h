#pragma once

// In-memory spans around the benchmark's calls into the library.
//
// Every Scope measures its interval with steady_clock, whether tracing is
// on or off, so the untraced runs that give the end-to-end numbers use
// the same timing code as the traced runs.  Only a traced Tracer keeps
// the span (name, start, end, parent, run id) in memory; nothing is
// written until write_jsonl() at the end of the benchmark.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Self time of every span of one name: its duration minus the part its
/// child spans cover.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;  ///< spans of this name
  std::uint64_t runs = 0;   ///< distinct run ids they belong to
  double total_s = 0;
  double self_s = 0;
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans opened from now on belong to run `id` (one iteration of a
  /// workload, or one probe).
  void set_run(std::uint32_t id) { run_ = id; }
  /// Turns recording on or off between runs (off at construction); scopes
  /// keep timing either way.
  void set_enabled(bool on) { enabled_ = on; }

  /// Times a block and, when the tracer is enabled, records it as a span
  /// whose parent is the innermost open scope.  `name` must outlive the
  /// tracer (use string literals).  Adds the elapsed seconds to `*sink`.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, double* sink = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    double* sink_;
    Clock::time_point start_;
    std::int32_t index_ = -1;
    std::int32_t outer_ = -1;
  };

  std::size_t span_count() const { return spans_.size(); }
  /// Per-name totals, sorted by self time, largest first.
  std::vector<SelfTime> self_times() const;
  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans_, -1 for a root
    std::uint32_t run;
  };
  std::int64_t ns_since_origin(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  ///< innermost open recorded span
  std::uint32_t run_ = 0;
};

}  // namespace hostbench
