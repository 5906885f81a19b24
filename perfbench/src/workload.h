// The two benchmark workloads and the helpers they share.
//
// Each workload builds its overlay through the public Network API from
// inputs it generates from the seed, times a measured phase, checks its
// outputs against ground truth and adds every metric to the Report.  With
// tracing on, the same run also records spans around each call into a
// layer and adds the per-layer metrics (see probes.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/report.h"
#include "perfbench/src/tracer.h"
#include "src/tapestry/network.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void run_lookup(const RunArgs& args, Tracer& tracer, Report& report);
void run_churn(const RunArgs& args, Tracer& tracer, Report& report);

/// IdSpec of every benchmark overlay: 8 hex digits (the tapestry_sim
/// default).
inline constexpr tap::IdSpec kIdSpec{4, 8};

/// `count` distinct object guids drawn from the seed.
[[nodiscard]] std::vector<tap::Guid> make_objects(std::uint64_t seed,
                                                  std::size_t count);

/// Per-kind transport message counters, read as one snapshot.
using KindCounts = std::array<std::uint64_t, tap::kWireKindCount>;
[[nodiscard]] KindCounts kind_counts(const tap::Transport& transport);
[[nodiscard]] KindCounts operator-(const KindCounts& a, const KindCounts& b);
/// Adds transport.msgs.<kind> for all kinds (deterministic counts).
void report_kinds(Report& report, const KindCounts& delta);

/// One latency stream of a measured phase that is cut into segments of
/// equal work.  Per segment, the stream's p50 and tail quantile are taken,
/// scaled to the reference host speed by the segment's HostProbe scale,
/// and the samples dropped; the reported value is the median over the
/// segments, so a burst of load from other tenants of a shared host moves
/// one or two segments rather than the reported value.  A stream too
/// sparse for a per-segment tail (fewer than ten samples beyond it in a
/// segment) is pooled instead: every sample is kept, scaled by its
/// segment's scale, and the quantiles are taken once.
class LatencySeries {
 public:
  LatencySeries(bool per_segment, double tail_q)
      : per_segment_(per_segment), tail_q_(tail_q) {}
  void add(double us) { samples_.push_back(us); ++count_; }
  void close_segment(double scale);
  [[nodiscard]] double p50() const;
  [[nodiscard]] double tail() const;
  /// The same quantiles of the unscaled wall times.
  [[nodiscard]] double wall_p50() const;
  [[nodiscard]] double wall_tail() const;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  bool per_segment_;
  double tail_q_;
  std::vector<double> samples_;  // the open segment's, or all if pooled
  std::vector<double> scaled_;   // pooled: samples_ of closed segments, scaled
  std::vector<double> p50_, tail_, wall_p50_, wall_tail_;
  std::size_t count_ = 0;
};

/// Median over segments of each segment's scripted operations per second,
/// at the reference host speed (and, for wall_ops_per_s, unscaled).
class Throughput {
 public:
  void close_segment(std::uint64_t ops, double wall_s, double scale);
  [[nodiscard]] double ops_per_s() const { return median(rates_); }
  [[nodiscard]] double wall_ops_per_s() const { return median(wall_rates_); }
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }

 private:
  std::vector<double> rates_, wall_rates_;
  std::uint64_t ops_ = 0;
  double wall_s_ = 0.0;
};

/// Adds ops_per_s, locate_p50_us, locate_p99_us (tail 0.99), write_p50_us
/// and write_p95_us (tail 0.95), each also unscaled as wall.<name>.
void report_timings(Report& report, const Throughput& throughput,
                    const LatencySeries& locates, const LatencySeries& writes);

/// Adds setup_s (median of the scaled set-up times), wall.setup_s and
/// host.probe_us.
void report_setup(Report& report, const std::vector<double>& setup_s,
                  const std::vector<double>& wall_setup_s,
                  const HostProbe& probe);

/// Property 1 and backpointer symmetry, outside any timing; a violation
/// (tap::CheckError) becomes a failed output check.
void check_invariants(const tap::Network& net, Report& report);

/// Inputs the traced run's probes replay after the measured phase.
struct ProbeInputs {
  std::vector<std::pair<tap::NodeId, tap::Guid>> locates;  ///< client, guid
  std::vector<std::pair<tap::Location, tap::Location>> pairs;  ///< client,
                                                               ///< server
  static constexpr std::size_t kCap = 50000;
  void record(const tap::Network& net, const tap::NodeId& client,
              const tap::Guid& guid, const tap::NodeId& server) {
    if (locates.size() >= kCap) return;
    locates.emplace_back(client, guid);
    pairs.emplace_back(net.node(client).location(),
                       net.node(server).location());
  }
};

}  // namespace perfbench
