// Per-thread counter cells: a hot counter that many threads add to keeps
// one cell per thread, so an add is a relaxed load plus a relaxed store
// on a cache line no other thread writes — no lock prefix, no line
// bouncing between threads of a wave — and a read sums the cells.
//
// thread_cell() gives the calling thread a dense index.  The index lives
// in a constant-initialised thread_local, so after a thread's first add
// it costs one TLS load.  A mutex is taken only when a thread first needs
// a cell and when it exits: the exiting thread hands its cell back to the
// free list, the cell's counts stay in it, and the next thread to claim
// it keeps adding on top (the mutex orders the two owners, so each cell
// has one writer at a time).  There are kThreadCells owned cells; threads
// beyond them share the overflow cell, which takes an atomic RMW.
//
// Reads are exact once the writers are quiescent; a read racing writers
// sees some recent partial sum, as a relaxed atomic would.  reset() must
// not race writers (a writer's store could resurrect the old count).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tap {

/// Cells a thread can own; the next thread shares the overflow cell.
inline constexpr std::size_t kThreadCells = 16;
/// Index of the shared overflow cell.
inline constexpr std::size_t kOverflowCell = kThreadCells;

namespace detail {
inline constexpr std::size_t kNoCell = ~std::size_t{0};
inline thread_local std::size_t t_cell = kNoCell;
/// Slow path: claims a free cell (or the overflow cell) for this thread.
std::size_t claim_cell() noexcept;
}  // namespace detail

/// The calling thread's cell index in [0, kThreadCells]; kOverflowCell
/// when every owned cell was taken at the thread's first call.
[[nodiscard]] inline std::size_t thread_cell() noexcept {
  const std::size_t c = detail::t_cell;
  return c != detail::kNoCell ? c : detail::claim_cell();
}

/// A sum kept in per-thread cells.  T is std::uint64_t (counts) or
/// double (histogram sums: with one writing thread the total is that
/// thread's running sum, bit for bit, because the other cells add 0.0).
template <typename T>
class ThreadCells {
  static_assert(std::is_arithmetic_v<T>, "cells hold numbers");

 public:
  void add(T n) noexcept {
    const std::size_t c = thread_cell();
    std::atomic<T>& v = cells_[c].v;
    if (c != kOverflowCell) {
      v.store(v.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    } else if constexpr (std::is_integral_v<T>) {
      v.fetch_add(n, std::memory_order_relaxed);
    } else {
      T cur = v.load(std::memory_order_relaxed);
      while (!v.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed)) {
      }
    }
  }
  [[nodiscard]] T load() const noexcept {
    T sum{};
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  /// Implicit, so a cell sum reads like the plain count it replaced.
  operator T() const noexcept { return load(); }
  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(T{}, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<T> v{};
  };
  std::array<Cell, kThreadCells + 1> cells_{};
};

using CellCount = ThreadCells<std::uint64_t>;

}  // namespace tap
