// Grouped variable-size entry points: Engine::gemm_grouped and
// Engine::trsm_grouped must match the per-segment reference for ragged
// descriptor mixes, share plans within size classes, produce identical
// results on the sequential and interleaved thread-pool paths, and carry
// the guarded-execution contract (Check/Fallback/deadline) per segment.
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf {
namespace {

struct GemmCase {
  Op op_a = Op::NoTrans;
  Op op_b = Op::NoTrans;
  double alpha = 1.0;
  double beta = 0.0;
  index_t m = 0, n = 0, k = 0, batch = 0;
};

// Builds host batches for a list of GEMM segments, the per-lane reference
// results, and the compact buffers + segment descriptors the grouped call
// consumes. All compact buffers are created in finalize() so their
// addresses are stable when the segments take pointers to them.
struct GroupedGemmFixture {
  std::vector<GemmCase> cases;
  std::vector<test::HostBatch<double>> a, b, c, expected;
  std::vector<CompactBuffer<double>> ca, cb, cc;
  std::vector<sched::GemmSegment<double>> segs;
  Rng rng{4242};

  void add(const GemmCase& cs) {
    cases.push_back(cs);
    const index_t ar = cs.op_a == Op::NoTrans ? cs.m : cs.k;
    const index_t ac = cs.op_a == Op::NoTrans ? cs.k : cs.m;
    const index_t br = cs.op_b == Op::NoTrans ? cs.k : cs.n;
    const index_t bc = cs.op_b == Op::NoTrans ? cs.n : cs.k;
    a.push_back(test::random_batch<double>(ar, ac, cs.batch, rng));
    b.push_back(test::random_batch<double>(br, bc, cs.batch, rng));
    c.push_back(test::random_batch<double>(cs.m, cs.n, cs.batch, rng));
  }

  void finalize() {
    expected.clear();
    ca.clear();
    cb.clear();
    cc.clear();
    segs.clear();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const GemmCase& cs = cases[i];
      expected.push_back(c[i]);
      for (index_t l = 0; l < cs.batch; ++l) {
        ref::gemm(cs.op_a, cs.op_b, cs.m, cs.n, cs.k, cs.alpha,
                  a[i].mat(l), a[i].ld(), b[i].mat(l), b[i].ld(), cs.beta,
                  expected[i].mat(l), expected[i].ld());
      }
      ca.push_back(a[i].to_compact());
      cb.push_back(b[i].to_compact());
      cc.push_back(c[i].to_compact());
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      segs.push_back({cases[i].op_a, cases[i].op_b, cases[i].alpha,
                      cases[i].beta, &ca[i], &cb[i], &cc[i]});
    }
  }

  void verify(const std::string& ctx) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      test::HostBatch<double> out = c[i];
      out.from_compact(cc[i]);
      test::expect_batch_near(expected[i], out,
                              test::ulp_tolerance<double>(cases[i].k),
                              ctx + " segment " + std::to_string(i));
    }
  }
};

// A ragged mix covering transposes, scalars, tiny and multi-group
// batches. Shared by the sequential/pool equivalence test, so keep the
// data deterministic (the fixture's Rng is fixed-seed).
GroupedGemmFixture mixed_fixture() {
  const index_t pw = simd::pack_width_v<double>;
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 5, 4, 6, 2 * pw + 3});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 9, 7, 3, pw});
  fx.add({Op::NoTrans, Op::Trans, 0.37, 1.0, 12, 12, 12, 3 * pw + 1});
  fx.add({Op::Trans, Op::Trans, -1.0, 0.37, 1, 33, 2, 1});
  fx.finalize();
  return fx;
}

TEST(EngineGrouped, MatchesReferenceAcrossMixedSizes) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx = mixed_fixture();

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  ASSERT_EQ(healths.size(), fx.segs.size());
  for (std::size_t i = 0; i < healths.size(); ++i) {
    EXPECT_EQ(healths[i].batch, fx.cases[i].batch);
    EXPECT_TRUE(healths[i].clean()); // Fast: no scanning, no repair
  }
  fx.verify("grouped gemm");

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.grouped_calls, 1u);
  // Four distinct descriptors land in the 3-4 histogram bucket.
  EXPECT_EQ(stats.distinct_plans_per_call[2], 1u);
  EXPECT_EQ(stats.distinct_plans_per_call[0], 0u);
}

TEST(EngineGrouped, SharesPlansWithinSizeClasses) {
  Engine engine(CacheInfo::kunpeng920());
  const index_t pw = simd::pack_width_v<double>;
  GroupedGemmFixture fx;
  const GemmCase small{Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, pw};
  const GemmCase big{Op::Trans, Op::NoTrans, 1.0, 0.5, 8, 6, 5, 2 * pw};
  fx.add(small);
  fx.add(big);
  fx.add(small);
  fx.add(big);
  fx.add(small);
  fx.finalize();

  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  // Five segments, two size classes: exactly two plans were built.
  EXPECT_EQ(engine.plan_cache_builds(), 2u);
  EXPECT_EQ(engine.stats().distinct_plans_per_call[1], 1u);
  fx.verify("plan-shared grouped gemm");

  // A repeat call hits the cache for both classes.
  fx.finalize();
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  EXPECT_EQ(engine.plan_cache_builds(), 2u);
  EXPECT_EQ(engine.stats().grouped_calls, 2u);
}

// The pool path interleaves work items across segments, but each
// interleave group is computed by exactly one worker with the same
// kernels as the sequential path, so the results must be bit-identical.
TEST(EngineGrouped, PoolPathMatchesSequentialBitExact) {
  GroupedGemmFixture seq_fx = mixed_fixture();
  GroupedGemmFixture pool_fx = mixed_fixture();

  Engine seq(CacheInfo::kunpeng920());
  seq.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(seq_fx.segs));

  Engine par(CacheInfo::kunpeng920());
  ThreadPool pool(4);
  par.set_thread_pool(&pool);
  par.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(pool_fx.segs));

  for (std::size_t i = 0; i < seq_fx.cc.size(); ++i) {
    ASSERT_EQ(seq_fx.cc[i].size(), pool_fx.cc[i].size());
    EXPECT_EQ(std::memcmp(seq_fx.cc[i].data(), pool_fx.cc[i].data(),
                          seq_fx.cc[i].size() * sizeof(double)),
              0)
        << "segment " << i;
  }
  pool_fx.verify("pool grouped gemm");
}

TEST(EngineGrouped, TrsmGroupedMatchesReference) {
  using T = double;
  Engine engine(CacheInfo::kunpeng920());
  const index_t pw = simd::pack_width_v<T>;
  Rng rng(777);

  struct TrsmCase {
    Side side;
    Uplo uplo;
    Op op_a;
    Diag diag;
    T alpha;
    index_t m, n, batch;
  };
  const std::vector<TrsmCase> cases{
      {Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), 6, 5,
       pw + 1},
      {Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(2), 4, 7,
       2 * pw},
      {Side::Left, Uplo::Upper, Op::Trans, Diag::Unit, T(0.37), 9, 3, 2},
      {Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), 6, 5,
       pw + 1}, // same class as [0]
  };

  std::vector<test::HostBatch<T>> a, b, expected;
  for (const TrsmCase& cs : cases) {
    const index_t ta = cs.side == Side::Left ? cs.m : cs.n;
    a.push_back(test::random_triangular_batch<T>(ta, cs.batch, rng));
    b.push_back(test::random_batch<T>(cs.m, cs.n, cs.batch, rng));
    expected.push_back(b.back());
    for (index_t l = 0; l < cs.batch; ++l) {
      ref::trsm(cs.side, cs.uplo, cs.op_a, cs.diag, cs.m, cs.n, cs.alpha,
                a.back().mat(l), ta, expected.back().mat(l), cs.m);
    }
  }
  std::vector<CompactBuffer<T>> ca, cb;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ca.push_back(a[i].to_compact());
    ca.back().pad_identity();
    cb.push_back(b[i].to_compact());
  }
  std::vector<sched::TrsmSegment<T>> segs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    segs.push_back({cases[i].side, cases[i].uplo, cases[i].op_a,
                    cases[i].diag, cases[i].alpha, &ca[i], &cb[i]});
  }

  const auto healths = engine.trsm_grouped<T>(
      std::span<const sched::TrsmSegment<T>>(segs));

  ASSERT_EQ(healths.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const index_t depth = cases[i].side == Side::Left ? cases[i].m
                                                      : cases[i].n;
    test::HostBatch<T> out = b[i];
    out.from_compact(cb[i]);
    test::expect_batch_near(expected[i], out,
                            test::ulp_tolerance<T>(depth, 256),
                            "grouped trsm segment " + std::to_string(i));
  }
  // Segments 0 and 3 share a class: three distinct plans -> bucket 2.
  EXPECT_EQ(engine.stats().distinct_plans_per_call[2], 1u);
  EXPECT_EQ(engine.plan_cache_builds(), 3u);
}

TEST(EngineGrouped, NullBufferThrowsInvalidArg) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 3, 3, 3, 2});
  fx.finalize();
  fx.segs[0].c = nullptr;
  try {
    engine.gemm_grouped<double>(
        std::span<const sched::GemmSegment<double>>(fx.segs));
    FAIL() << "null buffer must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArg);
  }
}

TEST(EngineGrouped, EmptyCallReturnsNoHealths) {
  Engine engine(CacheInfo::kunpeng920());
  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>{});
  EXPECT_TRUE(healths.empty());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.grouped_calls, 1u);
  // An empty call resolves no plans and must not touch the histogram.
  for (std::size_t b = 0; b < EngineStats::kGroupedPlanBuckets; ++b) {
    EXPECT_EQ(stats.distinct_plans_per_call[b], 0u);
  }
}

TEST(EngineGrouped, CheckReportsHazardsPerSegment) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Check);
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, 6});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 5, 5, 5, 6});
  fx.a[1].mat(3)[0] = std::numeric_limits<double>::quiet_NaN();
  fx.finalize();

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  // The hazard is confined to segment 1; segment 0's report stays clean
  // and its output still matches the reference.
  EXPECT_TRUE(healths[0].clean());
  EXPECT_EQ(healths[1].nonfinite, 1);
  EXPECT_EQ(healths[1].first_nonfinite, 3);
  EXPECT_EQ(healths[1].fallback, 0); // Check observes, never repairs
  EXPECT_TRUE(has_event(healths[1].events, DegradeEvent::NumericalHazard));
  test::HostBatch<double> out = fx.c[0];
  out.from_compact(fx.cc[0]);
  test::expect_batch_near(fx.expected[0], out,
                          test::ulp_tolerance<double>(4),
                          "clean segment under Check");
}

TEST(EngineGrouped, FallbackRepairsOnlyFlaggedLanes) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_policy(ExecPolicy::Fallback);
  GroupedGemmFixture fx;
  fx.add({Op::NoTrans, Op::NoTrans, 1.0, 0.0, 4, 4, 4, 6});
  fx.add({Op::Trans, Op::NoTrans, 2.0, -1.0, 5, 5, 5, 6});
  fx.a[1].mat(2)[1] = std::numeric_limits<double>::quiet_NaN();
  fx.finalize(); // expected[1] lane 2 is the reference-of-NaN result

  const auto healths = engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));

  EXPECT_EQ(healths[0].fallback, 0);
  EXPECT_EQ(healths[1].nonfinite, 1);
  EXPECT_EQ(healths[1].fallback, 1);
  EXPECT_EQ(healths[1].first_fallback, 2);
  EXPECT_TRUE(healths[1].degraded());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_calls, 1u);
  EXPECT_EQ(stats.fallback_lanes, 1u);

  // Segment 0 is untouched by the repair; segment 1's clean lanes match
  // the reference and the repaired lane still carries the NaN the
  // reference propagates.
  test::HostBatch<double> out0 = fx.c[0];
  out0.from_compact(fx.cc[0]);
  test::expect_batch_near(fx.expected[0], out0,
                          test::ulp_tolerance<double>(4),
                          "clean segment under Fallback");
  test::HostBatch<double> out1 = fx.c[1];
  out1.from_compact(fx.cc[1]);
  bool lane2_nan = false;
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 5; ++i) {
      lane2_nan = lane2_nan || std::isnan(out1.mat(2)[j * 5 + i]);
    }
  }
  EXPECT_TRUE(lane2_nan);
  for (index_t l = 0; l < 6; ++l) {
    if (l == 2) {
      continue;
    }
    for (index_t j = 0; j < 5; ++j) {
      for (index_t i = 0; i < 5; ++i) {
        const double e = fx.expected[1].mat(l)[j * 5 + i];
        const double got = out1.mat(l)[j * 5 + i];
        EXPECT_LE(std::abs(e - got),
                  test::ulp_tolerance<double>(5) *
                      std::max(1.0, std::abs(e)))
            << "lane " << l;
      }
    }
  }
}

TEST(EngineGrouped, DeadlineExpiryThrowsTimeout) {
  Engine engine(CacheInfo::kunpeng920());
  GroupedGemmFixture fx = mixed_fixture();
  engine.set_call_deadline(std::chrono::nanoseconds(1));
  try {
    engine.gemm_grouped<double>(
        std::span<const sched::GemmSegment<double>>(fx.segs));
    FAIL() << "1ns deadline must expire";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.status(), Status::Timeout);
  }
  EXPECT_EQ(engine.stats().timeout_calls, 1u);

  // Disabling the deadline restores normal service on the same engine.
  engine.set_call_deadline(std::chrono::nanoseconds(0));
  fx.finalize();
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  fx.verify("post-timeout grouped gemm");
}

TEST(EngineGrouped, GroupGrainEnvOverridesItemGranularity) {
  // IATF_GROUP_GRAIN=1 forces one-interleave-group work items, the
  // finest legal interleaving; results must be unaffected.
  ASSERT_EQ(setenv("IATF_GROUP_GRAIN", "1", 1), 0);
  GroupedGemmFixture fx = mixed_fixture();
  Engine engine(CacheInfo::kunpeng920());
  ThreadPool pool(3);
  engine.set_thread_pool(&pool);
  engine.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(fx.segs));
  unsetenv("IATF_GROUP_GRAIN");
  fx.verify("grain-1 grouped gemm");
}

// EngineStats::width16/32/64_calls count one compute call per entry
// point against the kernel width class it ran in: single and grouped,
// GEMM, TRSM and the factorisations alike. Runs every width class the
// host can execute.
TEST(EngineGrouped, WidthCountersCoverEveryOpSingleAndGrouped) {
  std::set<int> widths;
  for (const simd::Isa isa : simd::supported_isas()) {
    widths.insert(simd::isa_bytes(isa));
  }
  ASSERT_TRUE(widths.count(16));
  for (const int bytes : widths) {
    const index_t pw = bytes / static_cast<index_t>(sizeof(double));
    const index_t m = 4, batch = pw + 1;
    Rng rng(77);
    const auto tri = test::random_triangular_batch<double>(m, batch, rng);
    const auto gen = test::random_batch<double>(m, m, batch, rng);
    test::HostBatch<double> spd(m, m, batch); // 2 I: trivially SPD
    for (index_t l = 0; l < batch; ++l) {
      for (index_t d = 0; d < m; ++d) {
        spd.mat(l)[d * m + d] = 2.0;
      }
    }
    CompactBuffer<double> a = tri.to_compact(pw);
    CompactBuffer<double> b = gen.to_compact(pw);
    CompactBuffer<double> c = gen.to_compact(pw);
    CompactBuffer<double> f = spd.to_compact(pw);
    a.pad_identity();

    Engine engine(CacheInfo::kunpeng920());
    dispatch_width<double>(pw, [&](auto width) {
      constexpr int kB = decltype(width)::value;
      const sched::GemmSegment<double> gseg{Op::NoTrans, Op::NoTrans, 1.0,
                                            0.0, &a, &b, &c};
      const sched::TrsmSegment<double> tseg{Side::Left, Uplo::Lower,
                                            Op::NoTrans, Diag::NonUnit,
                                            1.0, &a, &b};
      const sched::FactorSegment<double> fseg{factor::FactorOp::Potrf,
                                              Uplo::Lower, Diag::NonUnit, &f};
      engine.gemm<double, kB>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
      engine.trsm<double, kB>(Side::Left, Uplo::Lower, Op::NoTrans,
                              Diag::NonUnit, 1.0, a, b);
      engine.potrf_batch<double, kB>(f);
      engine.gemm_grouped<double, kB>(
          std::span<const sched::GemmSegment<double>>(&gseg, 1));
      engine.trsm_grouped<double, kB>(
          std::span<const sched::TrsmSegment<double>>(&tseg, 1));
      engine.factor_grouped<double, kB>(
          std::span<const sched::FactorSegment<double>>(&fseg, 1));
    });
    const EngineStats s = engine.stats();
    const std::string ctx = "width " + std::to_string(bytes) + "B";
    EXPECT_EQ(s.width16_calls, bytes == 16 ? 6u : 0u) << ctx;
    EXPECT_EQ(s.width32_calls, bytes == 32 ? 6u : 0u) << ctx;
    EXPECT_EQ(s.width64_calls, bytes == 64 ? 6u : 0u) << ctx;
  }
}

} // namespace
} // namespace iatf
