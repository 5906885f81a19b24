// Thread-parallel dynamic insertion: the §4.4 acknowledged-multicast join
// protocol executed on real threads instead of the simulated-time event
// coordinator (parallel_join.h).
//
// Each worker thread drives one join's complete state machine — surrogate
// acquisition, preliminary table copy, acknowledged multicast with pinned
// pointers / watch lists / filled-hole forwarding, pin release, and the §3
// nearest-neighbor table construction — synchronously, racing every other
// in-flight join through the registry's lock-free index snapshots and the
// per-node stripe locks of NodeLockTable.  Where the event coordinator
// interleaves *messages* in simulated time, this driver interleaves *real
// memory operations*: pinned-pointer insertion, filled-hole forwarding and
// watch-list reports from concurrent joins genuinely contend on the same
// RoutingTable mutation wrappers.
//
// Every per-node step — the surrogate bounce, table links, the
// preliminary table copy, the multicast FUNCTION (watch-list service, pin,
// ADDTOTABLEIFCLOSER, forwarding rule), pin release and the §3 descent
// that finishes the insertion — is a MaintenanceEngine session step
// (join.cc), the same one the event coordinator and the serial join run,
// called here with the registry's lock table; this driver adds only the
// transport: a depth-first walk whose returns are the acknowledgements.
//
// Locking discipline (see node_locks.h): every access to a node's routing
// table or insertion flags takes that node's stripe; mutations that mirror
// into a second node's backpointers take both stripes in address order; a
// thread never holds more than one Guard, so the scheme is deadlock-free
// by construction.  Eviction side effects on third nodes are re-validated
// against the owner's current table after the locks drop — the temporally
// last validation for a (owner, member, level) triple writes the truth, so
// forward links and backpointers mirror exactly at quiescence.
//
// Determinism contract: node ids and gateways are drawn serially before
// any thread starts, so same seed + any worker count produces the same
// membership — and therefore the same Property 1 occupancy pattern — while
// message orderings (and hence which of several equally valid neighbors a
// slot holds) may differ run to run.  Convergence is asserted on
// invariants (no lost pins, all watched holes resolved, surrogate
// agreement, backpointer symmetry), not on bit-identical transcripts;
// fingerprint_occupancy (fingerprint.h) is the cross-worker-count witness.
//
// Object pointers: §4.2 pointer rerouting runs inside the wave, as in the
// serial join and the event coordinator — every node whose table the join
// changes (each multicast recipient, each first-met descent candidate,
// the new node itself) has its pointer hops snapshotted and re-pushed
// under the stripe discipline (ObjectDirectory::snapshot_pointer_hops /
// reroute_changed_pointers given the lock table).  Racing reroutes open
// the one window threaded_repair.h describes, so join_bulk ends with the
// same quiescent ObjectDirectory::repair_pointer_chains pass a repair wave
// ends with: objects are locatable the moment the wave returns, with no
// §6.5 republish.  The store contract is the repair waves' as well: with
// published objects and workers > 1 the wave needs StoreBackend::kSharded.
#pragma once

#include <vector>

#include "src/tapestry/maintenance.h"

namespace tap {

class ThreadedJoinDriver {
 public:
  struct Outcome {
    NodeId id{};
    NodeId surrogate{};        ///< core node the multicast started from
    unsigned alpha = 0;        ///< prefix length of the filled hole
    std::size_t messages = 0;  ///< total messages attributed to this join
  };

  ThreadedJoinDriver(MaintenanceEngine& engine, NodeRegistry& registry,
                     const TapestryParams& params, Rng& rng);

  /// Runs every requested insertion to completion across `workers` real
  /// threads (0 = hardware concurrency) and returns per-join outcomes in
  /// request order.  The network must be quiescent apart from the racers
  /// that synchronise through the node-lock table (guarded publish
  /// batches, store expiry sweeps).
  std::vector<Outcome> run(const std::vector<JoinRequest>& requests,
                           std::size_t workers = 0);

 private:
  void do_join(std::size_t index);
  void multicast_visit(JoinSession& s, NodeId at_id, unsigned prefix_len,
                       WatchList watch);

  MaintenanceEngine& eng_;
  NodeRegistry& reg_;
  const TapestryParams& params_;
  Rng& rng_;
  const NodeLockTable& locks_;
  std::vector<JoinRequest> requests_;  ///< gateways resolved in the preamble
  std::vector<JoinSession> sessions_;
};

}  // namespace tap
