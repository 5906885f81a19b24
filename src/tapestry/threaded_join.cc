// Thread-parallel §4.4 insertion (see threaded_join.h for the model and
// the locking discipline).  Every protocol step is a MaintenanceEngine
// session step (join.cc), called with the lock table; this file holds the
// serial preamble and the transport: the depth-first multicast walk.
#include "src/tapestry/threaded_join.h"

#include <unordered_set>

#include "src/sim/thread_pool.h"

namespace tap {

ThreadedJoinDriver::ThreadedJoinDriver(MaintenanceEngine& engine,
                                       NodeRegistry& registry,
                                       const TapestryParams& params, Rng& rng)
    : eng_(engine), reg_(registry), params_(params), rng_(rng),
      locks_(registry.node_locks()) {}

std::vector<ThreadedJoinDriver::Outcome> ThreadedJoinDriver::run(
    const std::vector<JoinRequest>& requests, std::size_t workers) {
  TAP_CHECK(!requests.empty(), "no join requests");
  TAP_CHECK(reg_.live_count() > 0,
            "join_bulk requires a non-empty network; bootstrap first");
  TAP_CHECK(params_.id.radix() <= 64,
            "threaded join watch lists require radix <= 64");

  // Serial preamble: draw ids and gateways in request order so the drawn
  // sequence — and with it the final membership — is a function of the
  // seed alone, never of the worker count or thread scheduling.
  requests_ = requests;
  sessions_.assign(requests.size(), JoinSession{});
  const std::vector<NodeId> live = reg_.node_ids();
  std::unordered_set<std::uint64_t> batch_ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    JoinRequest& req = requests_[i];
    JoinSession& s = sessions_[i];
    s.nn = req.id.has_value() ? *req.id : reg_.fresh_node_id();
    TAP_CHECK(reg_.find(s.nn) == nullptr, "node id already in use");
    TAP_CHECK(batch_ids.insert(s.nn.value()).second,
              "duplicate node id within the join batch");
    if (!req.gateway.has_value())
      req.gateway = live[rng_.next_u64(live.size())];
    TAP_CHECK(reg_.is_live(*req.gateway), "gateway must be a live node");
  }

  parallel_for(
      requests.size(), [this](std::size_t i) { do_join(i); }, workers);

  std::vector<Outcome> out;
  out.reserve(sessions_.size());
  for (const JoinSession& s : sessions_) {
    TAP_CHECK(s.done, "a threaded join never completed");
    TAP_CHECK(s.pinned_at.empty(),
              "a threaded join left pinned pointers behind");
    out.push_back({s.nn, s.surrogate, s.alpha, s.trace.messages()});
  }
  return out;
}

void ThreadedJoinDriver::do_join(std::size_t index) {
  JoinSession& s = sessions_[index];
  const JoinRequest& req = requests_[index];
  // Surrogate under per-hop stripes (bounced to a core node), registration
  // pre-marked as inserting, preliminary table copy and watch list.
  WatchList watch = eng_.begin_session(s, *req.gateway, req.loc, &locks_);

  // Acknowledged multicast (Figure 11) as a synchronous depth-first walk:
  // the recursion returning from a subtree IS that subtree's
  // acknowledgement, and the pin release on return is Lemma 4's
  // unlock-on-full-ack.
  s.trace.hop(reg_.distance(s.nn, s.surrogate));
  multicast_visit(s, s.surrogate, s.alpha, std::move(watch));

  // ACQUIRENEIGHBORTABLE over the α-list (§3, Figure 4), then the §4.3
  // transient state is cleared.
  eng_.finish_session(s, &locks_);
}

void ThreadedJoinDriver::multicast_visit(JoinSession& s, NodeId at_id,
                                         unsigned prefix_len,
                                         WatchList watch) {
  // Duplicate suppression: a node that already ran FUNCTION for this
  // session acknowledges immediately (the caller's return IS the ack).
  if (!s.processed.insert(at_id.value()).second) return;

  const std::vector<MulticastChild> children = eng_.multicast_function(
      s, reg_.checked(at_id), prefix_len, watch, &locks_);
  for (const MulticastChild& c : children) {
    s.trace.hop(reg_.distance(at_id, c.id));  // forward
    multicast_visit(s, c.id, c.prefix_len, watch);
    s.trace.hop(reg_.distance(c.id, at_id));  // ack
  }

  // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4).
  eng_.release_pin(s, at_id, &locks_);
}

// ---------------------------------------------------------------------
// MaintenanceEngine facade
// ---------------------------------------------------------------------

std::vector<NodeId> MaintenanceEngine::join_bulk(
    const std::vector<JoinRequest>& requests, std::size_t workers) {
  ThreadedJoinDriver driver(*this, reg_, params_, rng_);
  const auto outcomes = driver.run(requests, workers);
  // Close the window racing guarded reroutes open (threaded_join.h), as a
  // repair wave does: records deposited on a holder after that holder's
  // snapshot was taken.
  dir_.repair_pointer_chains();
  std::vector<NodeId> ids;
  ids.reserve(outcomes.size());
  for (const auto& o : outcomes) ids.push_back(o.id);
  return ids;
}

}  // namespace tap
