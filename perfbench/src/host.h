// Host-speed probe: a fixed kernel interleaved with a measured phase, used
// to express wall-clock timings at a reference host speed.
//
// The reference machine is a shared 4-vCPU KVM guest whose speed drifts
// with the load of other tenants: identical work ran up to twice as fast
// in one minute as in another, so raw wall timings of runs minutes apart
// spread past any useful bound.  The drift is contention for the memory
// hierarchy, not a change of clock: a single serial dependency chain in
// registers kept its speed to 2 % while the benchmark's own work slowed by
// half.  The kernel therefore works on a 4 MiB table (twice the size of a
// core's L2): an untimed pass reads one word per cache line, so the timed
// part does not depend on how much of the table the program evicted; the
// timed part reads every line again and runs four independent chains of
// data-dependent lookups into it.  Of the kernels tried it tracked the
// benchmark's slowdowns most closely.  It lives here, outside the program,
// so no change to src/ can move it.
//
// Each segment's timings are scaled by (kReferenceNs / the median timed
// kernel duration over the segment) ^ kSensitivity, and its throughput
// divided by that factor, so a segment measured while the host was loaded
// reports about what the reference host would have shown at its usual
// speed.  kSensitivity is measured: within runs, the log of a segment's
// wall throughput against the log of the kernel's speed had slopes
// 1.3-1.7 on lookup (correlation 0.79-0.98 over 10 segments) and 0.7-1.5
// on churn (0.61-0.94 over 18 repetitions); 1.4 is their median.  The raw
// wall values are reported next to the scaled ones (wall.<name>).
#pragma once

#include <cstdint>
#include <vector>

#include "perfbench/src/tracer.h"

namespace perfbench {

class HostProbe {
 public:
  /// Timed kernel duration, in ns, that scales a timing by exactly 1:
  /// about the reference machine's median.
  static constexpr double kReferenceNs = 300000.0;
  /// Exponent of the scale; see the file comment.
  static constexpr double kSensitivity = 1.4;
  /// Least wall time between two probes of maybe_sample().
  static constexpr Nanos kInterval = 10'000'000;

  HostProbe();

  /// Runs the kernel once and records its duration.
  void sample();
  /// Runs the kernel if kInterval has passed since the last run.
  void maybe_sample(Nanos now) {
    if (now - last_ >= kInterval) sample();
  }

  /// Time multiplier of the samples since the last call ((kReferenceNs
  /// over their median duration) ^ kSensitivity), then starts a new set.
  /// 1 if none.
  [[nodiscard]] double take_scale();
  /// Wall time spent in the kernel so far; measured phases subtract it.
  [[nodiscard]] Nanos spent() const noexcept { return spent_; }
  /// Median duration over every sample taken, in us.
  [[nodiscard]] double median_us() const;

 private:
  [[nodiscard]] std::uint64_t read_lines() const;

  std::vector<std::uint64_t> table_;
  std::uint64_t state_[4] = {1, 2, 3, 4};
  std::vector<double> open_;  ///< durations since the last take_scale()
  std::vector<double> all_;
  Nanos last_ = 0;
  Nanos spent_ = 0;
};

}  // namespace perfbench
