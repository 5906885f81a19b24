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
// The per-node steps — table links, the preliminary table copy, row
// building, watch-list service, pin and pin release — are the
// MaintenanceEngine's own (join.cc), called with the registry's lock
// table; this driver adds only the orchestration.
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
// Object pointers: the threaded *join* path does not do incremental §4.2
// pointer rerouting (a joining node holds no pointers yet, and the walks
// would couple every join to every store); the §6.5 soft-state republish
// is the designated backstop for join waves.  Threaded *repair* waves are
// different — leave_bulk / fail_and_repair_bulk (threaded_repair.h) reroute
// incrementally inside the wave, per holder, under the same stripe
// discipline, and do NOT rely on the republish backstop.
#pragma once

#include <cstdint>
#include <unordered_set>
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
                     Router& router, const TapestryParams& params, Rng& rng);

  /// Runs every requested insertion to completion across `workers` real
  /// threads (0 = hardware concurrency) and returns per-join outcomes in
  /// request order.  The network must be quiescent apart from the racers
  /// that synchronise through the node-lock table (guarded publish
  /// batches, store expiry sweeps).
  std::vector<Outcome> run(const std::vector<JoinRequest>& requests,
                           std::size_t workers = 0);

 private:
  struct Session {
    NodeId nn{};
    NodeId gateway{};
    Location loc{};
    NodeId surrogate{};
    unsigned alpha = 0;
    unsigned hole_digit = 0;
    std::unordered_set<std::uint64_t> processed;  ///< multicast recipients
    std::unordered_set<std::uint64_t> pinned_at;  ///< nodes holding our pin
    std::vector<NodeId> visited;                  ///< the α-list being built
    Trace trace{};
    bool done = false;
  };

  void do_join(std::size_t index);
  void multicast_visit(Session& s, NodeId at_id, unsigned prefix_len,
                       WatchList watch);
  void release_pin(Session& s, const NodeId& at_id);
  void acquire_neighbor_table(Session& s, TapestryNode& nn,
                              unsigned max_level,
                              const std::vector<NodeId>& initial_list);
  CandidateList get_next_list(Session& s, TapestryNode& nn,
                              const CandidateList& list, unsigned level,
                              std::unordered_set<std::uint64_t>& met);

  MaintenanceEngine& eng_;
  NodeRegistry& reg_;
  Router& router_;
  const TapestryParams& params_;
  Rng& rng_;
  const NodeLockTable& locks_;
  std::vector<Session> sessions_;
  std::vector<Outcome> outcomes_;
};

}  // namespace tap
