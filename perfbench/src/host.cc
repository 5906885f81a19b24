#include "perfbench/src/host.h"

#include <cmath>

#include "perfbench/src/report.h"
#include "src/common/rng.h"

namespace perfbench {

namespace {
constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
constexpr std::size_t kWordsPerLine = 8;
constexpr int kRounds = 2000;
}  // namespace

HostProbe::HostProbe() : table_(kTableWords) {
  tap::Rng r(0x686f7374ull);
  for (auto& v : table_) v = r();
}

std::uint64_t HostProbe::read_lines() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < table_.size(); i += kWordsPerLine)
    sum += table_[i];
  return sum;
}

void HostProbe::sample() {
  // An untimed pass first brings the table back into the caches, so the
  // timed part does not depend on how much of it the program evicted.
  const Nanos warm = now_ns();
  const std::uint64_t touched = read_lines();
  // Timed: one read per cache line over the whole table, then four
  // independent chains of data-dependent lookups and branches.
  const Nanos a = now_ns();
  const std::uint64_t sum = read_lines();
  std::uint64_t s[4] = {state_[0] ^ sum, state_[1] ^ touched, state_[2],
                        state_[3]};
  for (int i = 0; i < kRounds; ++i) {
    for (auto& v : s) {
      v = v * 6364136223846793005ull + table_[(v >> 40) & (kTableWords - 1)];
      if (v & 0x100)
        v ^= v >> 17;
      else
        v += 13;
    }
  }
  for (int k = 0; k < 4; ++k) state_[k] = s[k];  // keeps the loops live
  last_ = now_ns();
  spent_ += last_ - warm;
  open_.push_back(static_cast<double>(last_ - a));
  all_.push_back(open_.back());
}

double HostProbe::take_scale() {
  const double m = median(open_);
  open_.clear();
  return m > 0.0 ? std::pow(kReferenceNs / m, kSensitivity) : 1.0;
}

double HostProbe::median_us() const { return median(all_) * 1e-3; }

}  // namespace perfbench
