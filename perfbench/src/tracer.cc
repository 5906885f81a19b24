#include "perfbench/src/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

Nanos now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint16_t Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end())
    return static_cast<std::uint16_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint16_t name, std::uint32_t op) {
  Record r;
  r.parent = stack_.empty() ? kNone : stack_.back();
  r.op = op;
  r.name = name;
  r.phase = phase_;
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(idx);
  r.start = now_ns();
  spans_.push_back(r);
  return idx;
}

void Tracer::close(std::uint32_t span) {
  Record& r = spans_[span];
  r.end = now_ns();
  // Spans close innermost-first; anything still above `span` on the stack
  // was abandoned by an exception and closes with it.
  while (!stack_.empty() && stack_.back() != span) stack_.pop_back();
  if (!stack_.empty()) stack_.pop_back();
  if (r.parent != kNone) spans_[r.parent].child_ns += r.end - r.start;
}

void Tracer::rename(std::uint32_t span, std::uint16_t name) {
  if (span != kNone) spans_[span].name = name;
}

Tracer::Summary Tracer::summarize(const std::string& name,
                                  std::initializer_list<Phase> phases) const {
  Summary s;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return s;
  const auto id = static_cast<std::uint16_t>(it - names_.begin());
  for (const Record& r : spans_) {
    if (r.name != id || r.end < 0) continue;
    if (std::find(phases.begin(), phases.end(), r.phase) == phases.end())
      continue;
    const double dur = static_cast<double>(r.end - r.start);
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - static_cast<double>(r.child_ns);
    s.durations_ns.push_back(dur);
  }
  return s;
}

double Tracer::layer_self_ns(const std::string& layer, Phase phase) const {
  const std::string prefix = layer + ".";
  std::vector<bool> in_layer(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    in_layer[i] = names_[i].compare(0, prefix.size(), prefix) == 0;
  double self = 0.0;
  for (const Record& r : spans_)
    if (r.end >= 0 && r.phase == phase && in_layer[r.name])
      self += static_cast<double>(r.end - r.start - r.child_ns);
  return self;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* const kPhase[] = {"setup", "measure", "probe",
                                       "epilogue"};
  const Nanos base = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "span\tname\tphase\tparent\top\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f, "%zu\t%s\t%s\t%lld\t%u\t%lld\t%lld\n", i,
                 names_[r.name].c_str(),
                 kPhase[static_cast<unsigned>(r.phase)],
                 r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                 r.op, static_cast<long long>(r.start - base),
                 static_cast<long long>(r.end - base));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
