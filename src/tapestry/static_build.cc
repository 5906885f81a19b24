// Oracle construction of PRR/Tapestry tables from global knowledge — the
// static preprocessing the original PRR scheme assumes (paper §1, §4: "We
// would like the results of the insertion to be the same as if we had been
// able to build the network from static data").  Tests compare dynamically
// grown networks against this ground truth; benchmarks use it to stand up
// large overlays quickly when insertion cost is not what is being measured.
//
// The build parallelises in three phases, each deterministic for every
// worker count:
//   1. fresh tables     — per node, independent (table construction alone
//                         is levels * radix neighbor sets, a real cost at
//                         100k nodes);
//   2. forward tables   — per node, one streaming pass over the shared
//                         read-only array of live nodes sorted by id.  In
//                         that order every (length, prefix) class is one
//                         contiguous run: node n's row-l candidates are the
//                         run sharing its length-l prefix, and slot (l, j)
//                         is the sub-run whose digit l is j.  Each sub-run
//                         is scanned once, keeping the R closest under the
//                         total order (distance, id); only those are
//                         offered to the slot;
//   3. backpointers     — the inverse of the forward links, inserted into
//                         per-level sorted id vectors under striped
//                         per-target locks; sorted order canonicalises
//                         whatever insert order the scheduler produced.
// Phases 2+3 replace the serial link() walk (which interleaves forward
// inserts with backpointer bookkeeping on *other* nodes and therefore
// cannot fan out); the final tables are identical because link() ends at
// exactly "backpointers = inverse of forward links".
#include "src/tapestry/maintenance.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/sim/thread_pool.h"

namespace tap {

void MaintenanceEngine::rebuild_static_tables(std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned bits = params_.id.digit_bits;
  const std::uint64_t digit_mask = params_.id.radix() - 1;
  const std::size_t keep = params_.redundancy;
  const MetricSpace& space = reg_.space();

  // Live nodes in id order.  Phase 2 reads them as flat points; phase 3
  // walks owners in this order, so with one worker every backpointer
  // insert lands at the end of its vector.
  std::vector<TapestryNode*> live;
  live.reserve(reg_.live_count());
  for (const auto& n : reg_.nodes())
    if (n->alive) live.push_back(n.get());
  std::sort(live.begin(), live.end(),
            [](const TapestryNode* a, const TapestryNode* b) {
              return a->id() < b->id();
            });

  // Phase 1: fresh tables (drops any dynamically accumulated state).
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        live[i]->table() =
            RoutingTable(params_.id, live[i]->id(), params_.redundancy);
      },
      workers);

  // The same nodes as flat {id, location} points — read-only below.
  struct Point {
    std::uint64_t id;
    Location loc;
  };
  std::vector<Point> sorted;
  sorted.reserve(live.size());
  for (const TapestryNode* n : live)
    sorted.push_back({n->id().value(), n->location()});

  // Phase 2: each slot is offered the R closest qualifying nodes.  A fresh,
  // unpinned NeighborSet keeps the R closest of everything it is offered
  // under a strict total order, whatever the offer order, so offering the
  // sub-run's best R yields what offering the whole sub-run would: R
  // closest, which is Property 2 by construction, and no slot with
  // candidates stays empty, which is Property 1.  (In the own-digit slot
  // the seeded self-entry competes like any offer.)  Each task writes only
  // its own node's table.
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        TapestryNode* n = live[i];
        RoutingTable& table = n->table();
        const std::uint64_t self = n->id().value();
        const Location here = n->location();
        std::vector<std::pair<double, std::uint64_t>> best;  // (dist, id)
        best.reserve(keep + 1);
        // [lo, hi): the run sharing n's length-l prefix; the length-0 run
        // is every node.  A run holding only n leaves all deeper rows with
        // nothing but the self-entries phase 1 seeded.
        std::size_t lo = 0, hi = sorted.size();
        for (unsigned l = 0; l < digits && hi - lo > 1; ++l) {
          const unsigned shift = (digits - 1 - l) * bits;
          const unsigned own = n->id().digit(l);
          std::size_t own_lo = lo, own_hi = lo;
          // Within the run digit l is non-decreasing: sub-runs are
          // consecutive, one per occupied digit.
          for (std::size_t k = lo; k < hi;) {
            const auto j =
                static_cast<unsigned>((sorted[k].id >> shift) & digit_mask);
            const std::size_t first = k;
            best.clear();
            for (; k < hi && ((sorted[k].id >> shift) & digit_mask) == j;
                 ++k) {
              if (sorted[k].id == self) continue;
              const std::pair<double, std::uint64_t> c{
                  space.distance(here, sorted[k].loc), sorted[k].id};
              if (best.size() == keep && !(c < best.back())) continue;
              best.insert(std::upper_bound(best.begin(), best.end(), c), c);
              if (best.size() > keep) best.pop_back();
            }
            for (const auto& [dist, id] : best)
              table.consider(l, j, NodeId(params_.id, id), dist);
            if (j == own) {
              own_lo = first;
              own_hi = k;
            }
          }
          lo = own_lo;
          hi = own_hi;
        }
      },
      workers);

  // Phase 3: derive backpointers from the settled forward links.  Inserts
  // touch *other* nodes' tables, so they stripe-lock on the target; the
  // per-level sorted vector makes the result order-independent.
  constexpr std::size_t kStripes = 256;
  std::vector<std::mutex> stripes(kStripes);
  parallel_for(
      live.size(),
      [&](std::size_t i) {
        const TapestryNode* owner = live[i];
        const RoutingTable& table = owner->table();
        for (unsigned l = 0; l < digits; ++l) {
          const std::uint64_t* occ = table.row_occupancy(l);
          for (unsigned j = occ::next(occ, table.radix(), 0); j != occ::kNone;
               j = occ::next(occ, table.radix(), j + 1)) {
            for (const auto& e : table.at(l, j).entries()) {
              if (e.id == owner->id()) continue;
              TapestryNode* target = reg_.find(e.id);
              TAP_ASSERT(target != nullptr);
              std::lock_guard<std::mutex> lock(
                  stripes[splitmix64(e.id.value()) % kStripes]);
              target->table().add_backpointer(l, owner->id());
            }
          }
        }
      },
      workers);
}

}  // namespace tap
