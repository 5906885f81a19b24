// Thread-parallel leave / fail-stop repair (§5.1, §5.2 on real threads):
// repair waves driven by ThreadedRepairDriver across sim/thread_pool
// workers must converge — for the same seed at ANY worker count — to the
// same surviving membership and the same Property 1 occupancy pattern,
// with backpointer symmetry and no leftover pins at quiescence, and with
// §4.2 rerouting completed INSIDE the wave: objects are locatable the
// moment the call returns, no republish backstop.  The whole binary runs
// under TSan in CI; the prober test is where guarded peeks genuinely race
// the repair threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/parallel_join.h"
#include "src/tapestry/threaded_repair.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;
using test::static_ring_network;

TapestryParams sharded_params() {
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kSharded;
  return p;
}

/// Every `stride`-th live node, skipping index 0 (a gateway/server pool
/// survivor).  Registration order is deterministic, so for a fixed seed
/// the victim set is too.
std::vector<NodeId> pick_victims(const std::vector<NodeId>& ids,
                                 std::size_t count, std::size_t stride) {
  std::vector<NodeId> v;
  for (std::size_t i = 1; v.size() < count && i < ids.size(); i += stride)
    v.push_back(ids[i]);
  return v;
}

/// Servers for the pre-wave workload: live nodes NOT in the victim set.
std::vector<NodeId> pick_survivor_servers(const std::vector<NodeId>& ids,
                                          const std::vector<NodeId>& victims,
                                          std::size_t count) {
  std::set<std::uint64_t> doomed;
  for (const NodeId& v : victims) doomed.insert(v.value());
  std::vector<NodeId> servers;
  for (const NodeId& id : ids) {
    if (servers.size() == count) break;
    if (doomed.count(id.value()) == 0) servers.push_back(id);
  }
  return servers;
}

void expect_no_pins(const Network& net) {
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l)
      for (unsigned j = 0; j < t.radix(); ++j)
        ASSERT_TRUE(t.at(l, j).pinned_members().empty())
            << "leftover pin at " << n->id().to_string() << " slot (" << l
            << "," << j << ")";
  }
}

std::uint64_t membership_fingerprint(const Network& net) {
  detail::Fnv1a fp;
  std::vector<std::uint64_t> sorted;
  for (const NodeId& id : net.node_ids()) sorted.push_back(id.value());
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t v : sorted) fp.mix(v);
  return fp.value();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_published(
    const Network& net) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [guid, server] : net.published())
    out.emplace_back(guid.value(), server.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ThreadedRepair, LeaveWaveConvergesForEveryWorkerCount) {
  // Same seed, workers 1/2/4/8: identical surviving membership (victims
  // are validated and marked serially), Property 1, symmetric
  // backpointers, no pins — and identical occupancy fingerprints, because
  // the threaded replacement search is complete: at quiescence a slot is
  // occupied iff a live candidate exists, a function of membership alone.
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(128, 410, sharded_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 24, 5);
    g.net->leave_bulk(victims, workers);
    EXPECT_EQ(g.net->size(), 128u - 24u) << "workers=" << workers;
    for (const NodeId& v : victims) EXPECT_FALSE(g.net->contains(v));

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    member_fp.push_back(membership_fingerprint(*g.net));
    occupancy_fp.push_back(fingerprint_occupancy(*g.net));
  }
  for (std::size_t i = 1; i < member_fp.size(); ++i) {
    EXPECT_EQ(member_fp[0], member_fp[i])
        << "surviving membership must not depend on the worker count";
    EXPECT_EQ(occupancy_fp[0], occupancy_fp[i])
        << "occupancy pattern must not depend on the worker count";
  }
}

TEST(ThreadedRepair, FailWaveConvergesAndReroutesInsideTheWave) {
  // Workers 1/2/4/8 again, with a workload on the mesh: every object must
  // be locatable the moment fail_and_repair_bulk returns — no
  // republish_all — even though some victims rooted or relayed the
  // publish paths (§4.2 inside the wave plus the chain-repair pass).
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(128, 411, sharded_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 20, 6);
    const auto servers = pick_survivor_servers(ids, victims, 12);
    std::vector<Guid> guids;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const Guid guid = make_guid(*g.net, 8100 + i);
      guids.push_back(guid);
      g.net->publish(servers[i], guid);
    }

    g.net->fail_and_repair_bulk(victims, workers);
    EXPECT_EQ(g.net->size(), 128u - 20u) << "workers=" << workers;

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    member_fp.push_back(membership_fingerprint(*g.net));
    occupancy_fp.push_back(fingerprint_occupancy(*g.net));

    const auto survivors = g.net->node_ids();
    Rng ql(77);
    for (const Guid& guid : guids)
      EXPECT_TRUE(
          g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
          << "object lost in the wave (workers=" << workers << ")";
  }
  for (std::size_t i = 1; i < member_fp.size(); ++i) {
    EXPECT_EQ(member_fp[0], member_fp[i]);
    EXPECT_EQ(occupancy_fp[0], occupancy_fp[i]);
  }
}

TEST(ThreadedRepair, ThreadedLeaveAgreesWithSerial) {
  // Same seed, same victims, same workload: the serial §5.1 loop and the
  // threaded wave must agree on the surviving membership and on the
  // replica registry (published() set), and every object must remain
  // locatable on both meshes without a republish.
  auto serial = static_ring_network(96, 412, sharded_params());
  auto threaded = static_ring_network(96, 412, sharded_params());
  const auto ids = serial.net->node_ids();
  const auto victims = pick_victims(ids, 16, 5);
  const auto servers = pick_survivor_servers(ids, victims, 10);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*serial.net, 8200 + i);
    guids.push_back(guid);
    serial.net->publish(servers[i], guid);
    threaded.net->publish(servers[i], guid);
  }

  for (const NodeId& v : victims) serial.net->leave(v);
  threaded.net->leave_bulk(victims, /*workers=*/4);

  EXPECT_EQ(membership_fingerprint(*serial.net),
            membership_fingerprint(*threaded.net));
  EXPECT_EQ(sorted_published(*serial.net), sorted_published(*threaded.net));
  threaded.net->check_property1();
  threaded.net->check_backpointer_symmetry();
  expect_no_pins(*threaded.net);

  const auto survivors = threaded.net->node_ids();
  for (const Guid& guid : guids) {
    EXPECT_TRUE(serial.net->locate(survivors[1], guid).found);
    EXPECT_TRUE(threaded.net->locate(survivors[1], guid).found);
  }
}

TEST(ThreadedRepair, LockedRerouteMatchesLockFreeOnQuiescentMesh) {
  // The lock table only changes how each §4.2 routing decision is
  // synchronised (a peek under the deciding node's stripe instead of the
  // repairing route_step).  On a quiescent, fully live mesh both must make
  // the same deposits and charge the same messages.
  auto plain = test::grow_ring_network(48, 27, small_params());
  auto locked = test::grow_ring_network(48, 27, small_params());
  for (std::uint64_t i = 0; i < 48; ++i) {
    const Guid guid = make_guid(*plain.net, 9100 + i);
    plain.net->publish(plain.ids[(i * 7) % plain.ids.size()], guid);
    locked.net->publish(locked.ids[(i * 7) % locked.ids.size()], guid);
  }
  auto snapshot_all = [](test::GrownNetwork& g, const NodeLockTable* locks) {
    std::vector<std::vector<ObjectDirectory::PendingReroute>> out;
    for (const NodeId& id : g.ids)
      out.push_back(g.net->directory().snapshot_pointer_hops(
          g.net->registry().checked(id), locks));
    return out;
  };
  const NodeLockTable& locks = locked.net->registry().node_locks();
  const auto plain_before = snapshot_all(plain, nullptr);
  const auto locked_before = snapshot_all(locked, &locks);

  // Joins move some of those hops onto the newcomers.
  for (Location loc = 48; loc < 64; ++loc) {
    plain.net->join(loc);
    locked.net->join(loc);
  }
  ASSERT_EQ(fingerprint_stores(*plain.net), fingerprint_stores(*locked.net));

  Trace plain_trace, locked_trace;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < plain.ids.size(); ++i) {
    TapestryNode& p = plain.net->registry().checked(plain.ids[i]);
    TapestryNode& l = locked.net->registry().checked(locked.ids[i]);
    for (const auto& r : plain_before[i])
      if (plain.net->directory().pointer_next_hop(p, r.guid, r.record) !=
          r.next_hop)
        ++moved;
    plain.net->directory().reroute_changed_pointers(p, plain_before[i],
                                                    &plain_trace);
    locked.net->directory().reroute_changed_pointers(l, locked_before[i],
                                                     &locked_trace, &locks);
  }
  ASSERT_GT(moved, 0u) << "the joins must move some pointer hops";
  EXPECT_GT(plain_trace.messages(), 0u);
  EXPECT_EQ(plain_trace.messages(), locked_trace.messages());
  EXPECT_EQ(plain_trace.latency(), locked_trace.latency());
  EXPECT_EQ(fingerprint_stores(*plain.net), fingerprint_stores(*locked.net));
}

TEST(ThreadedRepair, GuardedPeekProberRacesFailWave) {
  // The TSan acceptance race: a prober thread hammers guarded root walks
  // from surviving sources while fail_and_repair_bulk tears 24 nodes out
  // of the mesh on 4 real threads.  Mid-wave a walk may find a row whose
  // every member is momentarily dead — that surfaces as CheckError, which
  // is a legal transient; crashes and torn reads are not (TSan's job).
  auto g = static_ring_network(160, 413, sharded_params());
  const auto ids = g.net->node_ids();
  const auto victims = pick_victims(ids, 24, 6);
  const auto servers = pick_survivor_servers(ids, victims, 8);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*g.net, 8300 + i);
    guids.push_back(guid);
    g.net->publish(servers[i], guid);
  }
  const auto sources = pick_survivor_servers(ids, victims, 32);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> transients{0};
  std::thread prober([&] {
    // gtest assertions are not thread-safe off the main thread: count,
    // assert after joining.
    Rng pr(1234);
    while (!stop.load(std::memory_order_relaxed)) {
      const NodeId src = sources[pr.next_u64(sources.size())];
      const Guid target = make_guid(*g.net, 8300 + pr.next_u64(64));
      try {
        (void)g.net->router().route_to_root_guarded(src, target);
      } catch (const CheckError&) {
        transients.fetch_add(1, std::memory_order_relaxed);
      }
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  g.net->fail_and_repair_bulk(victims, /*workers=*/4);
  stop.store(true, std::memory_order_relaxed);
  prober.join();

  EXPECT_GT(probes.load(), 0u) << "the prober must actually race the wave";
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  expect_no_pins(*g.net);
  // Quiescent now: every object locatable, still without a republish.
  const auto survivors = g.net->node_ids();
  for (const Guid& guid : guids)
    EXPECT_TRUE(g.net->locate(survivors[2], guid).found);
}

TEST(ThreadedRepair, LeaveKeepsObjectsLocatableOnGrownCore) {
  // Organic tables (dynamic-join core), victims chosen so some of them
  // root the published objects: in-wave rerouting must hand the pointers
  // to the new surrogate roots before leave_bulk returns.
  auto g = test::grow_ring_network(64, 414, sharded_params());
  const auto ids = g.net->node_ids();
  const auto victims = pick_victims(ids, 12, 4);
  const auto servers = pick_survivor_servers(ids, victims, 8);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*g.net, 8400 + i);
    guids.push_back(guid);
    g.net->publish(servers[i], guid);
  }

  g.net->leave_bulk(victims, /*workers=*/4);

  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  const auto survivors = g.net->node_ids();
  Rng ql(55);
  for (const Guid& guid : guids)
    EXPECT_TRUE(
        g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
        << "no republish happened; the wave itself must keep Property 4 "
           "locatability";
}

/// What one membership step leaves behind: the messages it charged and the
/// table and store fingerprints right after it.
struct StepOutput {
  std::size_t messages = 0;
  std::uint64_t tables = 0;
  std::uint64_t stores = 0;
  bool operator==(const StepOutput& o) const {
    return messages == o.messages && tables == o.tables && stores == o.stores;
  }
};

std::ostream& operator<<(std::ostream& os, const StepOutput& s) {
  return os << "{" << s.messages << "u, " << s.tables << "ull, " << s.stores
            << "ull}";
}

StepOutput observe(const Network& net, std::size_t messages) {
  return {messages, fingerprint_tables(net), fingerprint_stores(net)};
}

TEST(ThreadedRepair, MembershipStepsKeepPinnedOutputs) {
  // Serial and threaded drivers run the same per-node table-link, §5
  // repair and §4.4 join steps.  At one worker parallel_for runs inline,
  // so every driver is deterministic and its exact messages, tables and
  // stores can be pinned: a change to any shared step moves these values.
  auto serial = test::grow_ring_network(96, 416, sharded_params());
  auto wave = test::grow_ring_network(96, 416, sharded_params());
  const auto& ids = serial.ids;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const Guid guid = make_guid(*serial.net, 9500 + i);
    serial.net->publish(ids[(i * 7 + 3) % ids.size()], guid);
    wave.net->publish(ids[(i * 7 + 3) % ids.size()], guid);
  }
  const std::vector<NodeId> leavers = {ids[1], ids[13], ids[25], ids[37]};
  const std::vector<NodeId> failed = {ids[49], ids[61], ids[73], ids[85]};
  std::vector<StepOutput> got;

  Trace t_leave;
  for (const NodeId& v : leavers) serial.net->leave(v, &t_leave);
  got.push_back(observe(*serial.net, t_leave.messages()));
  Trace t_sweep;
  for (const NodeId& v : failed) serial.net->fail(v);
  serial.net->heartbeat_sweep(&t_sweep);
  got.push_back(observe(*serial.net, t_sweep.messages()));
  ParallelJoinCoordinator coord(*serial.net, 0.05);
  std::vector<ParallelJoinCoordinator::Request> reqs(8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].loc = 96 + i;
    reqs[i].gateway = ids[2 + 10 * i];
    reqs[i].start_time = serial.net->events().now() + 0.002 * i;
  }
  std::size_t coord_msgs = 0;
  for (const auto& o : coord.run(reqs)) coord_msgs += o.messages;
  got.push_back(observe(*serial.net, coord_msgs));

  Trace t_leave_bulk;
  wave.net->leave_bulk(leavers, 1, &t_leave_bulk);
  got.push_back(observe(*wave.net, t_leave_bulk.messages()));
  Trace t_fail_bulk;
  wave.net->fail_and_repair_bulk({failed[0], failed[1]}, 1, &t_fail_bulk);
  got.push_back(observe(*wave.net, t_fail_bulk.messages()));
  Trace t_sweep_bulk;
  wave.net->fail(failed[2]);
  wave.net->fail(failed[3]);
  wave.net->heartbeat_sweep_bulk(1, &t_sweep_bulk);
  got.push_back(observe(*wave.net, t_sweep_bulk.messages()));
  std::vector<JoinRequest> joins(8);
  for (std::size_t i = 0; i < joins.size(); ++i) joins[i].loc = 96 + i;
  wave.net->join_bulk(joins, 1);
  got.push_back(observe(*wave.net, 0));

  const std::vector<StepOutput> want = {
      {776u, 5822400657062616497ull, 15467353995642766478ull},
      {13015u, 7485316115547238187ull, 184655161785128174ull},
      {1619u, 5323778958982670058ull, 11425488104067348449ull},
      {17168u, 5822400657062616497ull, 15467353995642766478ull},
      {15900u, 13130865350153151514ull, 2698703547980523745ull},
      {31004u, 7485316115547238187ull, 184655161785128174ull},
      {0u, 5323778958982670058ull, 11425488104067348449ull},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "step " << i;
  // The twins: the one-worker join wave runs the coordinator's session
  // steps, §4.2 reroutes included, so it ends with the same tables and
  // stores.
  EXPECT_EQ(got[6].tables, got[2].tables);
  EXPECT_EQ(got[6].stores, got[2].stores);
  serial.net->check_property1();
  serial.net->check_backpointer_symmetry();
  wave.net->check_property1();
  wave.net->check_backpointer_symmetry();
}

TEST(ThreadedRepair, HeartbeatSweepBulkRepairsUnannouncedFailures) {
  // Plain fail() marks corpses without repair; the threaded sweep must
  // then restore Property 1 and symmetry at any worker count, matching
  // the serial sweep's invariants.
  for (const std::size_t workers : {1u, 4u}) {
    auto g = static_ring_network(96, 415, sharded_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 12, 7);
    for (const NodeId& v : victims) g.net->fail(v);

    g.net->heartbeat_sweep_bulk(workers);

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
  }
}

}  // namespace
}  // namespace tap
