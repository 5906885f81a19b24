#include "perfbench/src/workload.h"

#include <exception>
#include <unordered_set>

namespace perfbench {

std::vector<tap::Guid> make_objects(std::uint64_t seed, std::size_t count) {
  const std::uint64_t mask = (std::uint64_t{1} << kIdSpec.total_bits()) - 1;
  std::vector<tap::Guid> out;
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    const std::uint64_t v = tap::splitmix64(tap::splitmix64(seed) ^ i) & mask;
    if (seen.insert(v).second) out.emplace_back(kIdSpec, v);
  }
  return out;
}

KindCounts kind_counts(const tap::Transport& transport) {
  KindCounts c{};
  for (std::size_t k = 0; k < c.size(); ++k)
    c[k] = transport.stats().kind_count(static_cast<tap::MessageKind>(k));
  return c;
}

KindCounts operator-(const KindCounts& a, const KindCounts& b) {
  KindCounts d{};
  for (std::size_t k = 0; k < d.size(); ++k) d[k] = a[k] - b[k];
  return d;
}

void report_kinds(Report& report, const KindCounts& delta) {
  for (std::size_t k = 0; k < delta.size(); ++k)
    report.add(std::string("transport.msgs.") +
                   tap::message_kind_name(static_cast<tap::MessageKind>(k)),
               static_cast<double>(delta[k]), "count", 0, true);
}

void LatencySeries::close_segment(double scale) {
  if (!per_segment_) {
    for (std::size_t i = scaled_.size(); i < samples_.size(); ++i)
      scaled_.push_back(samples_[i] * scale);
    return;
  }
  if (samples_.empty()) return;
  wall_p50_.push_back(median(samples_));
  wall_tail_.push_back(quantile(samples_, tail_q_));
  p50_.push_back(wall_p50_.back() * scale);
  tail_.push_back(wall_tail_.back() * scale);
  samples_.clear();
}

double LatencySeries::p50() const {
  return per_segment_ ? median(p50_) : median(scaled_);
}

double LatencySeries::tail() const {
  return per_segment_ ? median(tail_) : quantile(scaled_, tail_q_);
}

double LatencySeries::wall_p50() const {
  return per_segment_ ? median(wall_p50_) : median(samples_);
}

double LatencySeries::wall_tail() const {
  return per_segment_ ? median(wall_tail_) : quantile(samples_, tail_q_);
}

void Throughput::close_segment(std::uint64_t ops, double wall_s,
                               double scale) {
  if (wall_s > 0.0) {
    wall_rates_.push_back(static_cast<double>(ops) / wall_s);
    rates_.push_back(wall_rates_.back() / scale);
  }
  ops_ += ops;
  wall_s_ += wall_s;
}

void report_timings(Report& report, const Throughput& throughput,
                    const LatencySeries& locates, const LatencySeries& writes) {
  const auto add = [&](const std::string& name, double scaled, double wall,
                       const char* unit, std::size_t samples) {
    report.add(name, scaled, unit, samples);
    report.add("wall." + name, wall, unit, samples);
  };
  add("ops_per_s", throughput.ops_per_s(), throughput.wall_ops_per_s(),
      "ops/s", throughput.ops());
  add("locate_p50_us", locates.p50(), locates.wall_p50(), "us",
      locates.count());
  add("locate_p99_us", locates.tail(), locates.wall_tail(), "us",
      locates.count());
  add("write_p50_us", writes.p50(), writes.wall_p50(), "us", writes.count());
  add("write_p95_us", writes.tail(), writes.wall_tail(), "us",
      writes.count());
}

void report_setup(Report& report, const std::vector<double>& setup_s,
                  const std::vector<double>& wall_setup_s,
                  const HostProbe& probe) {
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("wall.setup_s", median(wall_setup_s), "s", wall_setup_s.size());
  report.add("host.probe_us", probe.median_us(), "us");
}

void check_invariants(const tap::Network& net, Report& report) {
  try {
    net.check_property1();
    net.check_backpointer_symmetry();
  } catch (const std::exception& e) {
    report.fail_check(e.what());
  }
}

}  // namespace perfbench
