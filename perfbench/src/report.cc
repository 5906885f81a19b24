#include "perfbench/src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 bool deterministic) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples, deterministic});
}

void Report::fail_check(const std::string& what) {
  if (errors_.size() < 20) errors_.push_back(what);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json(const std::string& workload, std::uint64_t seed,
                         bool traced) const {
  std::string out = "{\"workload\": " + quoted(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (traced ? "1" : "0") +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    out += (i ? ", " : "") + quoted(errors_[i]);
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"deterministic\": " + (m.deterministic ? "true" : "false") +
           "}";
  }
  return out + "}}";
}

}  // namespace perfbench
