// Serve-layer watchdog supervision: a dispatch wedged inside the engine
// (armed "watchdog.stall") is reclaimed once it exceeds its grace budget
// -- the stuck futures resolve with WatchdogError, the descriptor
// class's breaker is forced Open (journaled via the engine), and a fresh
// dispatcher generation replaces the wedged thread so queued work keeps
// moving. Timings are deliberately coarse (stall 500ms vs budgets of
// tens of ms) so the assertions hold under ASan/TSan scheduling noise.
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/resilience/health_ledger.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::serve {
namespace {

using namespace std::chrono_literals;

class WatchdogTest : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// Identical-descriptor double GEMMs with per-request outputs (mirrors
// test_server.cpp's GemmPool).
struct GemmPool {
  index_t m = 4, n = 4, k = 4, batch;
  test::HostBatch<double> a, b;
  CompactBuffer<double> ca, cb;
  std::vector<test::HostBatch<double>> cs;
  std::vector<CompactBuffer<double>> ccs;
  test::HostBatch<double> expected;

  explicit GemmPool(std::size_t requests, unsigned seed = 417) {
    Rng rng(seed);
    batch = simd::pack_width_v<double> + 1;
    a = test::random_batch<double>(m, k, batch, rng);
    b = test::random_batch<double>(k, n, batch, rng);
    ca = a.to_compact();
    cb = b.to_compact();
    test::HostBatch<double> c0 = test::random_batch<double>(m, n, batch, rng);
    expected = c0;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, a.mat(l), a.ld(),
                b.mat(l), b.ld(), 0.0, expected.mat(l), expected.ld());
    }
    cs.assign(requests, c0);
    ccs.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      ccs.push_back(cs[i].to_compact());
    }
  }

  GemmShape shape() const {
    return GemmShape{m, n, k, Op::NoTrans, Op::NoTrans, batch};
  }

  std::future<BatchHealth> submit(Server& server, std::size_t i,
                                  SubmitOptions opts = {}) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, ca, cb,
                                      0.0, ccs[i], opts);
  }

  void expect_correct(std::size_t i, const std::string& ctx) {
    test::HostBatch<double> out = cs[i];
    out.from_compact(ccs[i]);
    test::expect_batch_near(expected, out, test::ulp_tolerance<double>(k),
                            ctx);
  }
};

Engine& test_engine() {
  static Engine engine(CacheInfo::kunpeng920());
  static bool init = [] {
    engine.set_kernel_verification(false);
    return true;
  }();
  (void)init;
  return engine;
}

ServeConfig watchdog_config() {
  ServeConfig cfg;
  cfg.watchdog_grace = 1.0;
  cfg.watchdog_floor = 50ms; // reclaim ~50ms into the 500ms stall
  cfg.watchdog_poll = 5ms;
  return cfg;
}

TEST_F(WatchdogTest, StalledDispatchResolvesWithWatchdogError) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(2);
  fault::ScopedFault stall("watchdog.stall", 0, 1); // first dispatch only
  std::future<BatchHealth> stuck = pool.submit(server, 0);
  // The future resolves long before the 500ms stall ends: the watchdog,
  // not the wedged dispatcher, resolved it.
  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  try {
    (void)stuck.get();
    FAIL() << "expected WatchdogError";
  } catch (const Error& err) {
    EXPECT_EQ(err.status(), Status::Watchdog);
  }
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);

  // The respawned dispatcher generation serves new work on the spot --
  // the wedged thread is still sleeping inside the engine at this point.
  std::future<BatchHealth> healthy = pool.submit(server, 1);
  ASSERT_EQ(healthy.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(healthy.get().clean());
  // Reclaimed buffers stay borrowed until the zombie is joined; stop()
  // guarantees that, after which pool may be destroyed.
  server.stop();
  pool.expect_correct(1, "post-reclaim dispatch");
}

TEST_F(WatchdogTest, ReclaimFailsEveryRequestInTheCoalescedBatch) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(3);
  server.pause(); // stage all three so they coalesce into one dispatch
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  server.resume();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(futs[i].wait_for(10s), std::future_status::ready) << i;
    EXPECT_THROW((void)futs[i].get(), WatchdogError) << i;
  }
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
}

TEST_F(WatchdogTest, ReclaimTripsTheClassBreakerAndJournals) {
  const std::string path = ::testing::TempDir() + "iatf_watchdog.hl";
  std::remove(path.c_str());
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  engine.set_breaker_config({/*window=*/4, /*threshold=*/2, /*cooldown=*/2});
  ASSERT_EQ(engine.set_health_ledger(path),
            resilience::LedgerLoad::Missing);
  {
    Server server(engine, watchdog_config());
    GemmPool pool(1);
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    std::future<BatchHealth> stuck = pool.submit(server, 0);
    ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
    EXPECT_THROW((void)stuck.get(), WatchdogError);
    // The stalled class is forced Open: the engine stops trusting its
    // fast path until the cooldown probe clears it.
    EXPECT_EQ(engine.gemm_breaker_state<double>(pool.shape()),
              resilience::BreakerState::Open);
    server.stop();
  }
  // The reclaim was journaled as it happened: a restart would replay it.
  const resilience::LedgerStats stats = engine.health_ledger()->stats();
  EXPECT_GE(stats.watchdog_reclaims, 1u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST_F(WatchdogTest, ReclaimTripsTheTrsmClassBreaker) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  engine.set_breaker_config({/*window=*/4, /*threshold=*/2, /*cooldown=*/2});
  Rng rng(419);
  const index_t m = 4, n = 3, batch = simd::pack_width_v<double> + 1;
  const auto a = test::random_triangular_batch<double>(m, batch, rng);
  const auto b = test::random_batch<double>(m, n, batch, rng);
  CompactBuffer<double> ca = a.to_compact();
  ca.pad_identity();
  CompactBuffer<double> cb = b.to_compact();
  const TrsmShape shape{m,           n,             Side::Left, Uplo::Lower,
                        Op::NoTrans, Diag::NonUnit, batch};
  {
    Server server(engine, watchdog_config());
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    std::future<BatchHealth> stuck = server.submit_trsm<double>(
        shape.side, shape.uplo, shape.op_a, shape.diag, 1.0, ca, cb);
    ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
    EXPECT_THROW((void)stuck.get(), WatchdogError);
    // The TRSM class is forced Open; a GEMM class of the same dimensions
    // is a different descriptor class and stays Closed.
    EXPECT_EQ(engine.trsm_breaker_state<double>(shape),
              resilience::BreakerState::Open);
    EXPECT_EQ(engine.gemm_breaker_state<double>(GemmShape{
                  m, n, m, Op::NoTrans, Op::NoTrans, batch}),
              resilience::BreakerState::Closed);
    server.stop();
  }
}

TEST_F(WatchdogTest, LateTripReadsNoBufferTheCallerHasFreed) {
  // The watchdog reclaims the wedged dispatch, then stalls before its
  // trip; meanwhile the retired dispatcher wakes up, runs the call and
  // resolves the request, and the caller frees its buffers. The late trip
  // must still name the right class without touching them (run under
  // ASan, a trip that re-reads the operands is a heap-use-after-free).
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  engine.set_breaker_config({/*window=*/4, /*threshold=*/2, /*cooldown=*/2});
  auto pool = std::make_unique<GemmPool>(1);
  const GemmShape shape = pool->shape();
  {
    Server server(engine, watchdog_config());
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    fault::arm("watchdog.reclaim", 0, 1);
    std::future<BatchHealth> fut = pool->submit(server, 0);
    ASSERT_EQ(fut.wait_for(10s), std::future_status::ready);
    // The un-wedged dispatcher claimed the request before the watchdog
    // got round to failing it.
    EXPECT_TRUE(fut.get().clean());
    pool->expect_correct(0, "resolved by the retired dispatcher");
    pool.reset();
    const auto until = std::chrono::steady_clock::now() + 10s;
    while (engine.gemm_breaker_state<double>(shape) !=
               resilience::BreakerState::Open &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_EQ(engine.gemm_breaker_state<double>(shape),
              resilience::BreakerState::Open);
    EXPECT_EQ(server.stats().watchdog_kicks, 1u);
    server.stop();
  }
}

TEST_F(WatchdogTest, DeadlineScalesTheStallBudget) {
  ServeConfig cfg = watchdog_config();
  cfg.watchdog_floor = 20ms;
  Server server(test_engine(), cfg);
  GemmPool pool(1);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  // A generous deadline stretches the budget past the floor: grace 1.0 x
  // 2s means the 500ms stall finishes first and the request succeeds.
  SubmitOptions opts;
  opts.deadline = 2s;
  std::future<BatchHealth> fut = pool.submit(server, 0, opts);
  ASSERT_EQ(fut.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(fut.get().clean());
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);
  server.stop();
  pool.expect_correct(0, "slow but within budget");
}

TEST_F(WatchdogTest, DisabledWatchdogLeavesStallsAlone) {
  Server server(test_engine()); // default config: no supervisor
  GemmPool pool(1);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> fut = pool.submit(server, 0);
  ASSERT_EQ(fut.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(fut.get().clean()); // slow, but resolved by the dispatcher
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);
  server.stop();
  pool.expect_correct(0, "unsupervised stall");
}

TEST_F(WatchdogTest, SetWatchdogEnablesSupervisionAtRuntime) {
  Server server(test_engine()); // starts unsupervised
  server.set_watchdog(1.0, 50ms);
  GemmPool pool(2);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> stuck = pool.submit(server, 0);
  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  EXPECT_THROW((void)stuck.get(), WatchdogError);
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  // Disable again: the next stall runs to completion unsupervised.
  server.set_watchdog(0.0);
  fault::arm("watchdog.stall", 0, 1);
  std::future<BatchHealth> slow = pool.submit(server, 1);
  ASSERT_EQ(slow.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(slow.get().clean());
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
}

TEST_F(WatchdogTest, StopAfterReclaimJoinsTheZombieCleanly) {
  GemmPool pool(8);
  {
    Server server(test_engine(), watchdog_config());
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    std::vector<std::future<BatchHealth>> futs;
    futs.push_back(pool.submit(server, 0)); // wedges; reclaimed
    ASSERT_EQ(futs[0].wait_for(10s), std::future_status::ready);
    for (std::size_t i = 1; i < 8; ++i) {
      futs.push_back(pool.submit(server, i)); // served by the new epoch
    }
    server.drain(); // joins dispatcher AND the retired zombie
    int reclaimed = 0;
    for (auto& f : futs) {
      try {
        EXPECT_TRUE(f.get().clean());
      } catch (const WatchdogError&) {
        ++reclaimed;
      }
    }
    EXPECT_EQ(reclaimed, 1);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.watchdog_kicks, 1u);
    EXPECT_EQ(s.inflight, 0u);
    EXPECT_EQ(s.queued, 0u);
    // ~Server runs here with a parked zombie already joined by drain().
  }
  for (std::size_t i = 1; i < 8; ++i) {
    pool.expect_correct(i, "post-drain request " + std::to_string(i));
  }
}

TEST_F(WatchdogTest, HeartbeatsCountDispatcherRounds) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(2);
  for (std::size_t i = 0; i < 2; ++i) {
    std::future<BatchHealth> f = pool.submit(server, i);
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
    EXPECT_TRUE(f.get().clean());
  }
  EXPECT_GE(server.stats().heartbeats, 2u);
  server.stop();
}

} // namespace
} // namespace iatf::serve
