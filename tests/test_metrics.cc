// Metrics registry (src/sim/metrics.h): concurrent-increment exactness,
// histogram `le` bucket-edge semantics, snapshot-vs-reset lifecycle,
// JSON / Prometheus exposition round trips, labeled series identity, the
// enabled() hot-path gate, and a live scrape through ScrapeServer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_cell.h"
#include "src/sim/metrics.h"

namespace tap::metrics {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ------------------------------------------------------------ primitives

TEST(Metrics, ConcurrentCounterIncrementsAreExact) {
  Counter& c = registry().counter("test_concurrent_counter",
                                  "concurrency exactness probe");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentHistogramObservationsAreExact) {
  Histogram& h = registry().histogram("test_concurrent_hist",
                                      "concurrency exactness probe", {1, 2, 4});
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(3.0);
    });
  for (auto& w : workers) w.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), total);
  EXPECT_EQ(h.bucket_count(2), total);  // 2 < 3.0 <= 4
  EXPECT_DOUBLE_EQ(h.sum(), 3.0 * static_cast<double>(total));
}

// More threads than owned cells, alive at once: the late ones share the
// atomic overflow cell, and every add still lands exactly once.
TEST(Metrics, CounterIsExactWithMoreLiveThreadsThanCells) {
  Counter& c = registry().counter("test_cell_overflow_counter",
                                  "overflow-cell exactness probe");
  c.reset();
  constexpr std::size_t kThreads = 2 * kThreadCells;
  constexpr int kPerThread = 2'000;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::size_t overflowed = 0;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      c.inc();  // claims this thread's cell while every thread is alive
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      if (thread_cell() == kOverflowCell) ++overflowed;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == kThreads; });
      lock.unlock();
      for (int i = 1; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_GE(overflowed, kThreads - kThreadCells);
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// More threads than cells, one after another: each exiting thread hands
// its cell back with the counts still in it, and the next owner adds on
// top.
TEST(Metrics, CounterKeepsCountsAcrossCellReuse) {
  Counter& c = registry().counter("test_cell_reuse_counter",
                                  "cell-reuse exactness probe");
  c.reset();
  constexpr std::size_t kThreads = 2 * kThreadCells;
  constexpr int kPerThread = 1'000;
  std::size_t cell_seen_max = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::size_t cell = 0;
    std::thread([&] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
      cell = thread_cell();
    }).join();
    cell_seen_max = std::max(cell_seen_max, cell);
    EXPECT_EQ(c.value(), (t + 1) * kPerThread);
  }
  // Sequential threads reuse freed cells instead of spilling over.
  EXPECT_LT(cell_seen_max, kOverflowCell);
}

TEST(Metrics, HistogramCountSumAndBucketsAreExactUnderFourThreads) {
  Histogram& h = registry().histogram(
      "test_cell_hist", "per-thread histogram exactness probe", {1, 2, 3});
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      // Thread t observes t + 0.5, landing in bucket t (the last one is
      // +Inf).
      for (int i = 0; i < kPerThread; ++i) h.observe(t + 0.5);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (std::size_t b = 0; b < 4; ++b)
    EXPECT_EQ(h.bucket_count(b), static_cast<std::uint64_t>(kPerThread))
        << "bucket " << b;
  // Halves and small integers add exactly in doubles, in any order.
  EXPECT_EQ(h.sum(), kPerThread * (0.5 + 1.5 + 2.5 + 3.5));
}

TEST(Metrics, HistogramBucketEdgesUseLeSemantics) {
  Histogram& h = registry().histogram("test_hist_edges",
                                      "bucket edge semantics", {1, 2, 4});
  h.reset();
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // == bound 1: le keeps it in bucket 0
  h.observe(1.001);  // first bucket with x <= bound is 2
  h.observe(4.0);    // == bound 4: bucket 2
  h.observe(4.001);  // past every bound: +Inf overflow
  h.observe(100.0);  // +Inf overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // bounds().size() == +Inf bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 4.0 + 4.001 + 100.0);
}

TEST(Metrics, EnabledGateSuppressesRecording) {
  Counter& c =
      registry().counter("test_gate_counter", "enabled() gate probe");
  c.reset();
  set_enabled(false);
  c.inc(5);
  EXPECT_EQ(c.value(), 0u) << "writes must be no-ops while disabled";
  set_enabled(true);
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);
}

// ------------------------------------------------------ registry lifecycle

TEST(Metrics, ResetZeroesValuesButKeepsIdentities) {
  Counter& c = registry().counter("test_reset_counter", "reset probe");
  Gauge& g = registry().gauge("test_reset_gauge", "reset probe");
  Histogram& h =
      registry().histogram("test_reset_hist", "reset probe", {1, 10});
  c.inc(7);
  g.set(3.5);
  h.observe(5.0);
  registry().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The references stay live and the families stay registered.
  c.inc(2);
  EXPECT_EQ(c.value(), 2u);
  Counter& again = registry().counter("test_reset_counter", "reset probe");
  EXPECT_EQ(&again, &c) << "re-registration must return the same object";
  EXPECT_TRUE(contains(registry().snapshot_json(), "\"test_reset_counter\":2"));
}

TEST(Metrics, LabelsCreateDistinctSeries) {
  Counter& a = registry().counter("test_labeled_total", "labeled probe",
                                  {{"kind", "a"}});
  Counter& b = registry().counter("test_labeled_total", "labeled probe",
                                  {{"kind", "b"}});
  EXPECT_NE(&a, &b);
  a.reset();
  b.reset();
  a.inc(3);
  b.inc(4);
  const std::string json = registry().snapshot_json();
  EXPECT_TRUE(contains(json, "\"test_labeled_total{kind=a}\":3")) << json;
  EXPECT_TRUE(contains(json, "\"test_labeled_total{kind=b}\":4")) << json;
  const std::string prom = registry().prometheus_text();
  EXPECT_TRUE(contains(prom, "test_labeled_total{kind=\"a\"} 3")) << prom;
  EXPECT_TRUE(contains(prom, "test_labeled_total{kind=\"b\"} 4")) << prom;
}

// ----------------------------------------------------------- expositions

TEST(Metrics, JsonSnapshotRoundTrip) {
  Counter& c = registry().counter("test_json_counter", "json probe");
  Gauge& g = registry().gauge("test_json_gauge", "json probe");
  Histogram& h = registry().histogram("test_json_hist", "json probe", {1, 2});
  c.reset();
  g.reset();
  h.reset();
  c.inc(42);
  g.set(2.5);
  h.observe(1.0);
  h.observe(9.0);
  const std::string json = registry().snapshot_json();
  EXPECT_TRUE(contains(json, "\"test_json_counter\":42")) << json;
  EXPECT_TRUE(contains(json, "\"test_json_gauge\":2.5")) << json;
  EXPECT_TRUE(contains(
      json, "\"test_json_hist\":{\"buckets\":[1,0,1],\"sum\":10,\"count\":2}"))
      << json;
  // Snapshots of the same state are byte-identical.
  EXPECT_EQ(json, registry().snapshot_json());
}

TEST(Metrics, PrometheusExpositionShape) {
  Histogram& h = registry().histogram("test_prom_hist", "prom shape probe",
                                      {1, 2});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string prom = registry().prometheus_text();
  EXPECT_TRUE(contains(prom, "# HELP test_prom_hist prom shape probe"));
  EXPECT_TRUE(contains(prom, "# TYPE test_prom_hist histogram"));
  // Cumulative buckets: le=1 -> 1, le=2 -> 2, +Inf -> 3.
  EXPECT_TRUE(contains(prom, "test_prom_hist_bucket{le=\"1\"} 1")) << prom;
  EXPECT_TRUE(contains(prom, "test_prom_hist_bucket{le=\"2\"} 2")) << prom;
  EXPECT_TRUE(contains(prom, "test_prom_hist_bucket{le=\"+Inf\"} 3")) << prom;
  EXPECT_TRUE(contains(prom, "test_prom_hist_sum 11")) << prom;
  EXPECT_TRUE(contains(prom, "test_prom_hist_count 3")) << prom;
}

TEST(Metrics, VolatileMetricsExcludedFromDeterministicSnapshot) {
  touch_builtin();
  stripe_lock_contention_total().inc();
  repair_wave_seconds().observe(0.5);
  const std::string det = snapshot_json(/*include_volatile=*/false);
  EXPECT_FALSE(contains(det, "tapestry_stripe_lock_contention_total")) << det;
  EXPECT_FALSE(contains(det, "tapestry_repair_wave_seconds")) << det;
  const std::string full = snapshot_json(/*include_volatile=*/true);
  EXPECT_TRUE(contains(full, "tapestry_stripe_lock_contention_total"));
  EXPECT_TRUE(contains(full, "tapestry_repair_wave_seconds"));
  // A live scrape has no determinism contract: volatile metrics included.
  const std::string prom = prometheus_text();
  EXPECT_TRUE(contains(prom, "tapestry_stripe_lock_contention_total"));
  EXPECT_TRUE(contains(prom, "tapestry_repair_wave_seconds_bucket"));
}

TEST(Metrics, BuiltinFamiliesAllRegistered) {
  touch_builtin();
  const std::vector<std::string> names = registry().family_names();
  auto has = [&names](const char* n) {
    for (const std::string& x : names)
      if (x == n) return true;
    return false;
  };
  EXPECT_TRUE(has("tapestry_messages_total"));
  EXPECT_TRUE(has("tapestry_locate_total"));
  EXPECT_TRUE(has("tapestry_locate_hops"));
  EXPECT_TRUE(has("tapestry_churn_events_total"));
  EXPECT_TRUE(has("tapestry_live_nodes"));
  EXPECT_TRUE(has("tapestry_store_wal_bytes"));
  EXPECT_TRUE(has("tapestry_repair_wave_seconds"));
}

// --------------------------------------------------------- scrape server

TEST(Metrics, ScrapeServerServesPrometheusText) {
  touch_builtin();
  messages_total().inc();
  ScrapeServer server(0);  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.stop();
  EXPECT_FALSE(server.running());

  EXPECT_TRUE(contains(resp, "HTTP/1.0 200 OK")) << resp;
  EXPECT_TRUE(contains(resp, "text/plain; version=0.0.4")) << resp;
  EXPECT_TRUE(contains(resp, "tapestry_messages_total")) << resp;
  EXPECT_TRUE(contains(resp, "tapestry_locate_hops_bucket")) << resp;
}

}  // namespace
}  // namespace tap::metrics
