// Result of one benchmark run: the outcome counts, the output-check
// verdict and every metric with its unit, printed as one JSON object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Process peak resident set size in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

class Report {
 public:
  /// `samples` is the number of observations a timing summarizes (0 for
  /// counts); `deterministic` marks values that must repeat exactly for
  /// the same seed, traced or not.
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, bool deterministic = false);

  /// Records a failed output check; the run is then reported incorrect.
  void fail_check(const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] std::string json(const std::string& workload,
                                 std::uint64_t seed, bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    bool deterministic;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
