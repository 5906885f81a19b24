#include "src/common/thread_cell.h"

#include <mutex>

namespace tap::detail {
namespace {

std::mutex g_cells_mu;
std::array<bool, kThreadCells> g_cell_taken{};  // guarded by g_cells_mu

/// Returns the thread's cell to the free list when the thread exits.
struct CellLease {
  std::size_t cell = kOverflowCell;
  ~CellLease() {
    if (cell != kOverflowCell) {
      std::lock_guard<std::mutex> lock(g_cells_mu);
      g_cell_taken[cell] = false;
    }
    // Thread-local destructors that run after this one and still count
    // share the overflow cell rather than claiming a cell again.
    t_cell = kOverflowCell;
  }
};

}  // namespace

std::size_t claim_cell() noexcept {
  std::size_t cell = kOverflowCell;
  {
    std::lock_guard<std::mutex> lock(g_cells_mu);
    for (std::size_t i = 0; i < kThreadCells; ++i) {
      if (!g_cell_taken[i]) {
        g_cell_taken[i] = true;
        cell = i;
        break;
      }
    }
  }
  thread_local CellLease lease;
  lease.cell = cell;
  t_cell = cell;
  return cell;
}

}  // namespace tap::detail
