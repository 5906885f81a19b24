// Simultaneous insertion (paper §4.4): event-driven acknowledged multicast
// with pinned pointers, watch lists, and filled-hole cross-notification
// (Figure 11), so that nodes inserting at overlapping times discover each
// other and Property 1 holds when the dust settles (Theorem 6).
//
// Mechanics reproduced from the paper:
//   * pinned pointers — a multicast recipient inserts the inserting node
//     into the slot it fills as a *pinned* table entry; pinned entries are
//     never evicted, and multicast forwarding for that slot goes to one
//     unpinned member plus ALL pinned members (Lemma 4); the pin is
//     released when the recipient's subtree is fully acknowledged;
//   * filled-hole forwarding — a leaf that notices the hole an inserter
//     fills is *already* filled forwards the multicast to the other
//     fillers, so conflicting same-hole inserters learn about each other
//     before either multicast completes (Lemma 5);
//   * watch lists — the multicast carries the set of table slots the
//     inserter knows no node for; any recipient able to fill a watched
//     slot reports the filler directly to the inserter and marks the slot
//     found before forwarding (Lemma 6);
//   * core-start rule — multicasts start at a core node: if the surrogate
//     reached by routing is itself still inserting, the request bounces to
//     that node's own surrogate (cf. Figure 10).
//
// Message interleaving is genuine: every forward, report, and ack is an
// EventQueue event whose delivery time is the metric distance (plus
// optional jitter), so two insertions racing for the same hole exercise
// the same orderings a real network would.  Everything a join does at a
// node — the surrogate bounce, the multicast FUNCTION (watch-list service,
// pin, ADDTOTABLEIFCLOSER, §4.2 pointer rerouting, forwarding rule), pin
// release and the §3 descent that finishes the insertion — is a
// MaintenanceEngine session step (join.cc), shared with the threaded
// driver (threaded_join.h); this class adds only the transport: scheduled
// deliveries and acknowledgement counting.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/tapestry/network.h"

namespace tap {

class ParallelJoinCoordinator {
 public:
  struct Request {
    Location loc{};
    std::optional<NodeId> id{};
    double start_time = 0.0;   ///< absolute event-queue time
    NodeId gateway{};          ///< must be a core node at start_time
  };

  struct Outcome {
    NodeId id{};
    NodeId surrogate{};        ///< core node the multicast started from
    unsigned alpha = 0;        ///< prefix length of the filled hole
    double start_time = 0.0;
    double core_time = 0.0;    ///< multicast fully acknowledged (Def. 1)
    double done_time = 0.0;    ///< neighbor table complete
    std::size_t messages = 0;  ///< total messages attributed to this join
  };

  /// `jitter` adds uniform [0, jitter] extra delay to every message so that
  /// racing multicasts interleave in varied (but seeded) orders.
  explicit ParallelJoinCoordinator(Network& net, double jitter = 0.0);

  /// Schedules all requested insertions on the network's event queue, runs
  /// it to quiescence, and returns per-join outcomes in request order.
  std::vector<Outcome> run(const std::vector<Request>& requests);

 private:
  // Per-(session, node) forwarding state: outstanding child acks + parent.
  struct PendingAcks {
    std::size_t remaining = 0;
    std::optional<NodeId> parent{};  ///< none at the session's start node
    double started = 0.0;
  };

  void start_join(std::size_t index, const Request& req);
  void deliver_multicast(std::size_t session_idx, NodeId to,
                         std::optional<NodeId> parent, unsigned prefix_len,
                         WatchList watch);
  void handle_multicast(std::size_t session_idx, NodeId at,
                        std::optional<NodeId> parent, unsigned prefix_len,
                        WatchList watch);
  void deliver_ack(std::size_t session_idx, NodeId from, NodeId to);
  void handle_ack(std::size_t session_idx, NodeId at);
  void finish_multicast(std::size_t session_idx);
  double delay(const NodeId& a, const NodeId& b);

  Network& net_;
  double jitter_;
  std::vector<JoinSession> sessions_;
  std::vector<Outcome> outcomes_;
  // Per session: node value -> PendingAcks.
  std::vector<std::unordered_map<std::uint64_t, PendingAcks>> pending_;
};

}  // namespace tap
