#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace hostbench {

Tracer::Tracer() : origin_(Clock::now()) {
  // A benchmark run records a few hundred spans; reserving keeps the
  // push_back inside a traced scope free of reallocation.
  spans_.reserve(4096);
}

std::int64_t Tracer::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, double* sink)
    : tracer_(tracer), sink_(sink) {
  if (tracer_.enabled_) {
    index_ = static_cast<std::int32_t>(tracer_.spans_.size());
    outer_ = tracer_.open_;
    tracer_.spans_.push_back(Span{name, 0, 0, outer_, tracer_.run_});
    tracer_.open_ = index_;
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  if (sink_ != nullptr) {
    *sink_ += std::chrono::duration<double>(end - start_).count();
  }
  if (index_ >= 0) {
    Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
    s.start_ns = tracer_.ns_since_origin(start_);
    s.end_ns = tracer_.ns_since_origin(end);
    tracer_.open_ = outer_;
  }
}

std::vector<SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  std::map<std::string, std::set<std::uint32_t>> runs;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    t.count += 1;
    t.total_s += double(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    t.self_s += double(self[i]) * 1e-9;
    runs[spans_[i].name].insert(spans_[i].run);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) {
    t.runs = runs[name].size();
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"run\":%u,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, s.run, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace hostbench
