// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark's own code around each call it makes
// into a layer of the overlay; nothing inside src/ is instrumented.  A span
// records its name, phase, start, end, parent span and operation id.  Spans
// nest strictly (the benchmark is single-threaded), so a span's self time
// is its duration minus the durations of its direct children.
//
// With tracing off, open() is a single branch and records nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] Nanos now_ns() noexcept;

/// Which part of a run a span belongs to.  Self shares are taken over
/// kMeasure only; probes and the epilogue run after every reported
/// outcome is final.
enum class Phase : std::uint8_t { kSetup, kMeasure, kProbe, kEpilogue };

class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Stable small id for a span name ("layer.function").
  [[nodiscard]] std::uint16_t intern(const std::string& name);

  void set_phase(Phase p) noexcept { phase_ = p; }

  /// Opens a span under the innermost open one; returns its index, or
  /// kNone when tracing is off.
  std::uint32_t open(std::uint16_t name, std::uint32_t op);
  void close(std::uint32_t span);
  /// Renames an open or closed span (used when a queue step turns out to
  /// have fired no benchmark action).
  void rename(std::uint32_t span, std::uint16_t name);

  /// Aggregate over the closed spans of one name in the given phases.
  struct Summary {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> durations_ns;
  };
  [[nodiscard]] Summary summarize(const std::string& name,
                                  std::initializer_list<Phase> phases) const;

  /// Self time of every span whose name starts with "<layer>." in `phase`.
  [[nodiscard]] double layer_self_ns(const std::string& layer,
                                     Phase phase) const;

  /// Writes one tab-separated line per span (times relative to the first
  /// span).  Returns false if the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  struct Record {
    Nanos start = 0;
    Nanos end = -1;
    Nanos child_ns = 0;  // summed durations of direct children
    std::uint32_t parent = kNone;
    std::uint32_t op = 0;
    std::uint16_t name = 0;
    Phase phase = Phase::kSetup;
  };

  bool on_;
  Phase phase_ = Phase::kSetup;
  std::vector<Record> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& t, std::uint16_t name, std::uint32_t op = 0)
      : t_(t), idx_(t.on() ? t.open(name, op) : Tracer::kNone) {}
  ~Span() {
    if (idx_ != Tracer::kNone) t_.close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return idx_; }

 private:
  Tracer& t_;
  std::uint32_t idx_;
};

}  // namespace perfbench
