// MaintenanceEngine: everything that changes the routing mesh.
//
// Membership — dynamic insertion (§3-§4), voluntary delete (§5.1),
// fail-stop plus lazy repair (§5.2), the periodic heartbeat sweep — and the
// continual-optimization heuristics of §6.4, plus the low-level table-link
// coherence primitives (link / unlink / ADDTOTABLEIFCLOSER) every mutation
// funnels through so forward links and backpointers stay mirrored.
//
// Each per-node membership step exists once, here, and every driver calls
// it: the serial paths without a lock table, the thread-parallel drivers
// (threaded_join.h, threaded_repair.h) with the registry's NodeLockTable.
// Given `locks`, a step takes the stripe of every node whose table it
// touches (node_locks.h) and re-syncs third-party eviction effects after
// the stripes drop; without, it runs single-threaded as it always did.
//
// The engine implements the Router's RepairHandler interface: when a
// routing walk discovers a corpse, the purge (secondary promotion, slot
// replacement hunt, pointer re-route) happens here.  Pointer re-routing is
// delegated to the ObjectDirectory so Property 4 survives table churn.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/tapestry/object_directory.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/router.h"

namespace tap {

/// One dynamic insertion of a thread-parallel join wave (see join_bulk).
struct JoinRequest {
  Location loc{};
  std::optional<NodeId> id{};       ///< default: fresh random id
  std::optional<NodeId> gateway{};  ///< default: uniformly random live node
};

/// A threaded repair wave's sorted live-id index (threaded_repair.h).
using LiveIdIndex = std::vector<std::uint64_t>;

/// A §4.4 watch list (Figure 11, Lemma 6): one bitmask per level, bit j set
/// while slot (level, j) is still unknown to the inserting node
/// (single-word rows: the join drivers check radix <= 64).
using WatchList = std::vector<std::uint64_t>;

/// One forwarding target of the §4.4 acknowledged multicast.
struct MulticastChild {
  NodeId id{};
  unsigned prefix_len = 0;
};

/// One insertion of a §4.4 join wave.  The event coordinator
/// (parallel_join.h) and the threaded driver (threaded_join.h) keep one
/// per join and hand it to the engine's session steps below.
struct JoinSession {
  NodeId nn{};
  NodeId surrogate{};       ///< core node the multicast started from
  unsigned alpha = 0;       ///< prefix length of the filled hole
  unsigned hole_digit = 0;  ///< nn's digit at alpha: the hole it fills
  std::unordered_set<std::uint64_t> processed;  ///< nodes that ran FUNCTION
  std::unordered_set<std::uint64_t> pinned_at;  ///< nodes holding our pin
  std::vector<NodeId> visited;                  ///< the α-list being built
  Trace trace{};
  bool done = false;  ///< finish_session ran
};

/// One candidate of the §3 nearest-neighbour descent, measured once: its
/// distance from the node building its table, its id and its node.  Every
/// level of the serial and the threaded descent carries these, so each
/// candidate is looked up and measured once per level.
struct DescentCandidate {
  double dist = 0.0;
  NodeId id{};
  TapestryNode* node = nullptr;
};
using CandidateList = std::vector<DescentCandidate>;

/// The §3 k-list trim shared by every descent: the k closest of `list` in
/// (distance, id) order.  The ids are unique, so the order is total.
[[nodiscard]] CandidateList closest_candidates(CandidateList list,
                                               std::size_t k);

class MaintenanceEngine final : public RepairHandler {
 public:
  MaintenanceEngine(NodeRegistry& registry, Router& router,
                    ObjectDirectory& directory, const TapestryParams& params,
                    EventQueue& events, Rng& rng);

  /// Wires the transport heartbeat probes and acks travel through
  /// (Network binds the overlay's; standalone engines use the shared
  /// direct fallback).
  void bind_transport(Transport* transport) noexcept {
    transport_ = transport;
  }

  // --- membership (§3-§5) ---
  /// Creates the first node of the overlay.  `id` defaults to random.
  NodeId bootstrap(Location loc, std::optional<NodeId> id = std::nullopt);
  /// Full dynamic insertion (Figure 7) via a uniformly random live gateway.
  NodeId join(Location loc, std::optional<NodeId> id = std::nullopt,
              Trace* trace = nullptr);
  /// Full dynamic insertion via a specific gateway node.
  NodeId join_via(NodeId gateway, Location loc,
                  std::optional<NodeId> id = std::nullopt,
                  Trace* trace = nullptr);
  /// Thread-parallel dynamic insertion (§4.4 on real threads): drives the
  /// whole batch through ThreadedJoinDriver — each worker thread runs one
  /// join's session steps (below) under the per-node stripe locks, §4.2
  /// pointer rerouting included — then one quiescent
  /// ObjectDirectory::repair_pointer_chains pass, as a repair wave ends;
  /// objects stay locatable without a republish.  Returns the new node ids
  /// in request order.  `workers` = 0 uses hardware concurrency.  With
  /// published objects and workers > 1 the wave needs
  /// StoreBackend::kSharded (concurrent reroutes write through the store
  /// backends).  Determinism contract: ids/gateways are drawn serially up
  /// front, so same seed + any worker count yields the same membership
  /// and a table set satisfying the convergence invariants (Property 1,
  /// backpointer symmetry, no leftover pins, surrogate agreement) —
  /// message orderings, and therefore exact neighbor choices, may differ
  /// between runs.
  std::vector<NodeId> join_bulk(const std::vector<JoinRequest>& requests,
                                std::size_t workers = 0);

  /// Voluntary departure (§5.1): notifies backpointer holders with
  /// replacement hints, re-roots object pointers, then disconnects.
  void leave(NodeId node, Trace* trace = nullptr);
  /// Involuntary fail-stop (§5.2): the node simply stops responding.
  void fail(NodeId node);
  /// Thread-parallel voluntary departure (§5.1 on real threads): every
  /// victim leaves at once, each worker thread driving one victim's
  /// holder notifications, slot repair and REMOVELINK under the stripe
  /// discipline, with §4.2 rerouting performed incrementally inside the
  /// wave (no republish backstop).  Same determinism contract as
  /// join_bulk: victims are validated and marked serially up front, so
  /// same seed + any worker count yields identical surviving membership
  /// and identical fingerprint_occupancy at quiescence.
  void leave_bulk(const std::vector<NodeId>& victims, std::size_t workers = 0,
                  Trace* trace = nullptr);
  /// Thread-parallel fail-stop plus eager repair (§5.2 on real threads):
  /// all victims stop at once, then every backpointer holder is purged in
  /// parallel (slot removal, complete replacement hunt, in-wave reroute)
  /// and a threaded sweep restores Property 1 — locatability is back the
  /// moment the call returns, without republishing.
  void fail_and_repair_bulk(const std::vector<NodeId>& victims,
                            std::size_t workers = 0, Trace* trace = nullptr);
  /// heartbeat_sweep fanned out across `workers` real threads (one per
  /// node, striped locks).  Membership must be quiescent; guarded store
  /// racers (publish batches, expiry sweeps, peeked queries) are fine.
  void heartbeat_sweep_bulk(std::size_t workers = 0, Trace* trace = nullptr);
  /// Soft-state heartbeat maintenance (§5.2, §6.5): probe table entries,
  /// purge corpses, then hunt replacements for emptied slots to fixpoint.
  void heartbeat_sweep(Trace* trace = nullptr);

  /// Runs heartbeat_sweep as a recurring EventQueue event every `every`
  /// simulated time units (first firing at now + every), so lazy repair
  /// interleaves with in-flight publishes and queries.  Restarting
  /// replaces a running timer.  The recurring event holds `trace` until
  /// stop_heartbeats(): it must outlive the timer.
  void start_heartbeats(double every, Trace* trace = nullptr);
  void stop_heartbeats();
  [[nodiscard]] bool heartbeats_running() const noexcept {
    return heartbeat_event_.has_value();
  }

  // --- per-node repair steps (§5.1, §5.2) ---
  // `locks` and `live_ids` come together from a threaded repair wave:
  // then the replacement search falls back to the live-id index instead
  // of the acknowledged multicast (find_replacement).
  /// The lazy-repair purge the Router calls on meeting a corpse.
  void purge_dead_neighbor(TapestryNode& at, NodeId dead,
                           Trace* trace) override {
    purge_dead_neighbor(at, dead, trace, nullptr, nullptr);
  }
  /// §5.2 purge of `dead` from `at`: unlink at every shared level, refill
  /// emptied slots, drop its backpointers, re-route changed pointers.
  void purge_dead_neighbor(TapestryNode& at, NodeId dead, Trace* trace,
                           const NodeLockTable* locks,
                           const LiveIdIndex* live_ids);
  /// The (distance, id)-closest live node for `at`'s slot (level, digit):
  /// the level-`level` contacts' own entries first, then the complete
  /// fallback — the live-id prefix probe inside a wave, else the
  /// acknowledged multicast.
  std::optional<NodeId> find_replacement(
      TapestryNode& at, unsigned level, unsigned digit, Trace* trace,
      const NodeLockTable* locks = nullptr,
      const LiveIdIndex* live_ids = nullptr);
  /// Links find_replacement's pick into `at`'s slot (level, digit) if that
  /// slot is empty; true when a replacement was found.
  bool refill_slot(TapestryNode& at, unsigned level, unsigned digit,
                   Trace* trace, const NodeLockTable* locks = nullptr,
                   const LiveIdIndex* live_ids = nullptr);
  /// LEAVINGNETWORK (§5.1) at one backpointer holder `b` of the leaver
  /// `a`: drop `a` from b's level-`level` slot, adopt the live `hints`,
  /// refill the slot if it emptied, re-route pointers whose paths changed.
  void notify_leave(TapestryNode& a, TapestryNode& b, unsigned level,
                    const std::vector<NodeId>& hints, Trace* trace,
                    const NodeLockTable* locks = nullptr,
                    const LiveIdIndex* live_ids = nullptr);
  /// REMOVELINK (§5.1): retracts every forward link of the leaver `a`,
  /// one message to each member.
  void remove_links(TapestryNode& a, Trace* trace,
                    const NodeLockTable* locks = nullptr);

  // --- table-link coherence ---
  /// owner.table slot (level, nbr.digit(level)) considers nbr; keeps
  /// backpointers coherent on insert and evict.  Returns true if inserted.
  /// With `locks` the pair mutation runs under both stripes and the
  /// evictee's backpointer is re-synced after they drop.
  bool link(TapestryNode& owner, unsigned level, TapestryNode& nbr,
            const NodeLockTable* locks = nullptr);
  /// Removes nbr from owner's slot at `level` (if present).  NodeId is
  /// taken by value: callers often pass ids that live inside the very
  /// containers these routines mutate.
  void unlink(TapestryNode& owner, unsigned level, NodeId nbr,
              const NodeLockTable* locks = nullptr);
  /// Offers `cand` to every slot of `host` it qualifies for (all levels
  /// l <= common prefix).  The paper's ADDTOTABLEIFCLOSER.
  bool add_to_table_if_closer(TapestryNode& host, TapestryNode& cand,
                              const NodeLockTable* locks = nullptr);

  // --- continual optimization (§6.4) ---
  /// Moves a node to a new underlay location (network drift model).
  /// Tables are NOT fixed up — that is what the heuristics below are for.
  void relocate(NodeId node, Location loc);
  /// Heuristic 1: re-rank every neighbor set of `node` by current distance.
  void optimize_primaries(NodeId node, Trace* trace = nullptr);
  /// Heuristic 4: ask each level-l neighbor for its level-l row and adopt
  /// closer members (the gossip scheme of §6.4 / Pastry / Tapestry [37]).
  void optimize_gossip(NodeId node, Trace* trace = nullptr);
  /// Heuristic 2: rerun the full nearest-neighbor table construction.
  void rebuild_neighbor_table(NodeId node, Trace* trace = nullptr);

  // --- oracle construction (static PRR preprocessing) ---
  /// Rebuilds every live node's table from global knowledge (Property 1+2
  /// by construction), fanning the per-node work out across `workers`
  /// threads (0 = hardware concurrency).  The result is bit-identical for
  /// every worker count: forward tables are a per-node function of the
  /// id-sorted live nodes, and backpointers land in sorted vectors, so
  /// scheduling cannot leak into the outcome.
  void rebuild_static_tables(std::size_t workers = 1);

  // --- join steps (§3-§4), shared by join_via and the §4.4 join drivers ---
  // With `locks` (the threaded driver) every step takes the stripes of the
  // nodes whose tables it touches, and §4.2 reroutes walk the guarded path.
  /// INSERT steps 1-2 (Figure 7) for `nid`: ACQUIREPRIMARYSURROGATE from
  /// `gateway`, bounced to a core node, registration in the §4.3 inserting
  /// state and GETPRELIMNEIGHBORTABLE.  Returns the surrogate.
  NodeId begin_insertion(NodeId nid, NodeId gateway, Location loc,
                         Trace* trace, const NodeLockTable* locks = nullptr);
  /// begin_insertion for session `s` (s.nn set): fills its surrogate,
  /// alpha and hole digit, and returns nn's initial watch list.
  WatchList begin_session(JoinSession& s, NodeId gateway, Location loc,
                          const NodeLockTable* locks = nullptr);
  /// The §4.4 multicast FUNCTION at `at` (Figure 11), first visit only:
  /// watch-list service, pin, ADDTOTABLEIFCLOSER with §4.2 reroutes at nn
  /// and `at`, then `at` joins the α-list.  Returns the forwarding targets.
  std::vector<MulticastChild> multicast_function(
      JoinSession& s, TapestryNode& at, unsigned prefix_len,
      WatchList& watch, const NodeLockTable* locks = nullptr);
  /// Releases s's pin at `at` once its subtree acknowledged (Lemma 4).
  void release_pin(JoinSession& s, const NodeId& at,
                   const NodeLockTable* locks = nullptr);
  /// Releases any leftover pins, then finish_insertion over the α-list.
  void finish_session(JoinSession& s, const NodeLockTable* locks = nullptr);
  /// INSERT step 4: ACQUIRENEIGHBORTABLE from `alpha_list` with §4.2
  /// reroutes at nn, then clears nn's §4.3 inserting state.
  void finish_insertion(TapestryNode& nn, unsigned alpha,
                        const std::vector<NodeId>& alpha_list, Trace* trace,
                        const NodeLockTable* locks = nullptr);
  /// LINKANDXFERROOT: ADDTOTABLEIFCLOSER at `host` plus §4.2 reroutes.
  void link_and_xfer_root(TapestryNode& host, TapestryNode& nn, Trace* trace,
                          const NodeLockTable* locks = nullptr);
  /// The §3 descent (Figure 4) from the level-`max_level` list down.
  void acquire_neighbor_table(TapestryNode& nn, unsigned max_level,
                              const std::vector<NodeId>& initial_list,
                              Trace* trace,
                              const NodeLockTable* locks = nullptr);
  /// The live nodes of `ids` other than nn, each looked up and measured
  /// from nn once, in the order of their first occurrence.
  [[nodiscard]] CandidateList measure_candidates(
      const TapestryNode& nn, const std::vector<NodeId>& ids) const;

 private:
  void copy_preliminary_table(TapestryNode& nn, TapestryNode& surrogate,
                              unsigned max_level, Trace* trace,
                              const NodeLockTable* locks);
  /// GETFORWARDANDBACKPOINTERS at `level` to every live member of `list`
  /// (one round trip each): the members, their row-`level` entries and
  /// backpointers, measured, in id order.
  CandidateList gather_candidates(TapestryNode& nn, const CandidateList& list,
                                  unsigned level, Trace* trace,
                                  const NodeLockTable* locks);
  /// gather_candidates plus LINKANDXFERROOT at each first-met candidate.
  CandidateList get_next_list(TapestryNode& nn, const CandidateList& list,
                              unsigned level,
                              std::unordered_set<std::uint64_t>& contacted,
                              Trace* trace, const NodeLockTable* locks);
  /// Links every still-live member of `list` into nn's row `level`.
  void build_row_from_list(TapestryNode& nn, const CandidateList& list,
                           unsigned level, const NodeLockTable* locks);
  /// The initial watch list: the complement of nn's row occupancy.
  [[nodiscard]] WatchList watch_list(const TapestryNode& nn,
                                     const NodeLockTable* locks) const;
  /// Watch-list service (Figure 11 line 1, Lemma 6): every watched slot
  /// `at` can fill is reported to nn (one message each), linked, and
  /// cleared from `watch`.
  void serve_watch_list(TapestryNode& at, TapestryNode& nn, WatchList& watch,
                        Trace& trace, const NodeLockTable* locks);
  /// Pins nn into `at`'s (alpha, hole_digit) slot (§4.4, Lemma 4).
  void pin(TapestryNode& at, TapestryNode& nn, unsigned alpha,
           unsigned hole_digit, const NodeLockTable* locks);
  /// Releases that pin; members the slot then evicts lose their
  /// backpointer to `at`.
  void unpin(TapestryNode& at, const NodeId& nn, unsigned alpha,
             unsigned hole_digit, const NodeLockTable* locks);
  /// Sets member's level-`level` backpointer to owner's *current* slot
  /// membership — the evictee fix-up, which under `locks` runs after the
  /// pair's stripes drop (the last validation writes the truth).
  void sync_backpointer(const TapestryNode& owner, const NodeId& member,
                        unsigned level, const NodeLockTable* locks);

  void schedule_heartbeat_tick(double every, Trace* trace);

  Transport* transport_ = default_transport();
  NodeRegistry& reg_;
  Router& router_;
  ObjectDirectory& dir_;
  const TapestryParams& params_;
  EventQueue& events_;
  Rng& rng_;
  std::optional<EventId> heartbeat_event_;
};

}  // namespace tap
