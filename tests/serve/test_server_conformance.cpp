// Serve-layer conformance: every request path of iatf::serve::Server --
// single GEMM, single TRSM, two tenants' same-class GEMMs or TRSMs
// coalesced onto one grouped dispatch, and pre-assembled grouped GEMM and
// TRSM submissions -- must match the scalar reference for every dtype
// (s/d/c/z). Buffers use the active backend's pack width, so the
// width-to-kernel-class dispatch is exercised on every host backend.
#include <complex>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/serve/server.hpp"
#include "iatf/simd/isa.hpp"

namespace iatf::serve {
namespace {

template <class T> T scalar(double re, double im) {
  if constexpr (is_complex_v<T>) {
    return T(static_cast<real_t<T>>(re), static_cast<real_t<T>>(im));
  } else {
    (void)im;
    return static_cast<T>(re);
  }
}

Engine& conformance_engine() {
  static Engine engine(CacheInfo::kunpeng920());
  static bool init = [] {
    engine.set_kernel_verification(false);
    return true;
  }();
  (void)init;
  return engine;
}

/// One GEMM request: host operands, the reference result and the
/// compact buffers the request borrows (never moved once built).
template <class T> struct GemmProblem {
  index_t m, n, k, batch;
  Op op_a, op_b;
  T alpha = scalar<T>(0.75, -0.5);
  T beta = scalar<T>(-1.25, 0.25);
  test::HostBatch<T> c, expected;
  CompactBuffer<T> ca, cb, cc;

  GemmProblem(index_t m_, index_t n_, index_t k_, index_t batch_, Op oa,
              Op ob, std::uint64_t seed)
      : m(m_), n(n_), k(k_), batch(batch_), op_a(oa), op_b(ob) {
    Rng rng(seed);
    const index_t pw = simd::active_pack_width<T>();
    const auto a = test::random_batch<T>(oa == Op::NoTrans ? m : k,
                                         oa == Op::NoTrans ? k : m, batch,
                                         rng);
    const auto b = test::random_batch<T>(ob == Op::NoTrans ? k : n,
                                         ob == Op::NoTrans ? n : k, batch,
                                         rng);
    c = test::random_batch<T>(m, n, batch, rng);
    expected = c;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(op_a, op_b, m, n, k, alpha, a.mat(l), a.ld(), b.mat(l),
                b.ld(), beta, expected.mat(l), expected.ld());
    }
    ca = a.to_compact(pw);
    cb = b.to_compact(pw);
    cc = c.to_compact(pw);
  }
  GemmProblem(const GemmProblem&) = delete;

  sched::GemmSegment<T> segment() {
    return {op_a, op_b, alpha, beta, &ca, &cb, &cc};
  }
  std::future<BatchHealth> submit(Server& server, TenantId tenant) {
    SubmitOptions opts;
    opts.tenant = tenant;
    return server.submit_gemm<T>(op_a, op_b, alpha, ca, cb, beta, cc, opts);
  }
  void check(const std::string& ctx) {
    test::HostBatch<T> out = c;
    out.from_compact(cc);
    test::expect_batch_near(expected, out, test::ulp_tolerance<T>(k), ctx);
  }
};

/// One TRSM request, built the same way.
template <class T> struct TrsmProblem {
  index_t m, n, batch;
  Side side;
  Uplo uplo;
  Op op_a;
  Diag diag;
  T alpha = scalar<T>(1.5, 0.5);
  test::HostBatch<T> b, expected;
  CompactBuffer<T> ca, cb;

  TrsmProblem(index_t m_, index_t n_, index_t batch_, Side s, Uplo u, Op o,
              Diag d, std::uint64_t seed)
      : m(m_), n(n_), batch(batch_), side(s), uplo(u), op_a(o), diag(d) {
    Rng rng(seed);
    const index_t pw = simd::active_pack_width<T>();
    const index_t adim = side == Side::Left ? m : n;
    const auto a = test::random_triangular_batch<T>(adim, batch, rng);
    b = test::random_batch<T>(m, n, batch, rng);
    expected = b;
    for (index_t l = 0; l < batch; ++l) {
      ref::trsm(side, uplo, op_a, diag, m, n, alpha, a.mat(l), a.ld(),
                expected.mat(l), expected.ld());
    }
    ca = a.to_compact(pw);
    ca.pad_identity();
    cb = b.to_compact(pw);
  }
  TrsmProblem(const TrsmProblem&) = delete;

  sched::TrsmSegment<T> segment() {
    return {side, uplo, op_a, diag, alpha, &ca, &cb};
  }
  std::future<BatchHealth> submit(Server& server, TenantId tenant) {
    SubmitOptions opts;
    opts.tenant = tenant;
    return server.submit_trsm<T>(side, uplo, op_a, diag, alpha, ca, cb,
                                 opts);
  }
  void check(const std::string& ctx) {
    test::HostBatch<T> out = b;
    out.from_compact(cb);
    test::expect_batch_near(expected, out,
                            test::ulp_tolerance<T>(side == Side::Left ? m : n,
                                                   256),
                            ctx);
  }
};

template <class T> class ServeConformance : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(ServeConformance, ScalarTypes);

index_t odd_batch() { return 2 * simd::active_pack_width<double>() + 3; }

TYPED_TEST(ServeConformance, SingleGemm) {
  using T = TypeParam;
  Server server(conformance_engine());
  GemmProblem<T> p(5, 4, 6, odd_batch(), Op::Trans, Op::NoTrans, 11);
  EXPECT_TRUE(p.submit(server, 0).get().clean());
  p.check("single gemm");
}

TYPED_TEST(ServeConformance, SingleTrsm) {
  using T = TypeParam;
  Server server(conformance_engine());
  TrsmProblem<T> p(5, 3, odd_batch(), Side::Right, Uplo::Upper,
                   is_complex_v<T> ? Op::ConjTrans : Op::Trans,
                   Diag::NonUnit, 12);
  EXPECT_TRUE(p.submit(server, 0).get().clean());
  p.check("single trsm");
}

TYPED_TEST(ServeConformance, CoalescedGemmAcrossTwoTenants) {
  using T = TypeParam;
  Server server(conformance_engine());
  GemmProblem<T> p0(4, 6, 3, odd_batch(), Op::NoTrans, Op::Trans, 21);
  GemmProblem<T> p1(4, 6, 3, odd_batch(), Op::NoTrans, Op::Trans, 22);
  server.pause(); // stage both so they share one dispatch
  auto f0 = p0.submit(server, 1);
  auto f1 = p1.submit(server, 2);
  server.resume();
  EXPECT_TRUE(f0.get().clean());
  EXPECT_TRUE(f1.get().clean());
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dispatch_calls, 1u);
  EXPECT_EQ(s.coalesced_requests, 2u);
  p0.check("coalesced gemm tenant 1");
  p1.check("coalesced gemm tenant 2");
}

TYPED_TEST(ServeConformance, CoalescedTrsmAcrossTwoTenants) {
  using T = TypeParam;
  Server server(conformance_engine());
  TrsmProblem<T> p0(6, 4, odd_batch(), Side::Left, Uplo::Lower,
                    Op::NoTrans, Diag::Unit, 31);
  TrsmProblem<T> p1(6, 4, odd_batch(), Side::Left, Uplo::Lower,
                    Op::NoTrans, Diag::Unit, 32);
  server.pause();
  auto f0 = p0.submit(server, 1);
  auto f1 = p1.submit(server, 2);
  server.resume();
  EXPECT_TRUE(f0.get().clean());
  EXPECT_TRUE(f1.get().clean());
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dispatch_calls, 1u);
  EXPECT_EQ(s.coalesced_requests, 2u);
  p0.check("coalesced trsm tenant 1");
  p1.check("coalesced trsm tenant 2");
}

TYPED_TEST(ServeConformance, GroupedGemm) {
  using T = TypeParam;
  Server server(conformance_engine());
  GemmProblem<T> p0(3, 5, 7, odd_batch(), Op::NoTrans, Op::NoTrans, 41);
  GemmProblem<T> p1(8, 2, 4, 1, Op::Trans, Op::Trans, 42);
  const std::vector<sched::GemmSegment<T>> segs{p0.segment(),
                                                p1.segment()};
  const std::vector<BatchHealth> healths =
      server
          .submit_grouped<T>(std::span<const sched::GemmSegment<T>>(segs))
          .get();
  ASSERT_EQ(healths.size(), 2u);
  EXPECT_TRUE(healths[0].clean());
  EXPECT_TRUE(healths[1].clean());
  p0.check("grouped gemm segment 0");
  p1.check("grouped gemm segment 1");
}

TYPED_TEST(ServeConformance, GroupedTrsm) {
  using T = TypeParam;
  Server server(conformance_engine());
  TrsmProblem<T> p0(4, 5, odd_batch(), Side::Left, Uplo::Upper,
                    Op::Trans, Diag::NonUnit, 51);
  TrsmProblem<T> p1(7, 3, 2, Side::Right, Uplo::Lower, Op::NoTrans,
                    Diag::NonUnit, 52);
  const std::vector<sched::TrsmSegment<T>> segs{p0.segment(),
                                                p1.segment()};
  const std::vector<BatchHealth> healths =
      server
          .submit_grouped<T>(std::span<const sched::TrsmSegment<T>>(segs))
          .get();
  ASSERT_EQ(healths.size(), 2u);
  EXPECT_TRUE(healths[0].clean());
  EXPECT_TRUE(healths[1].clean());
  p0.check("grouped trsm segment 0");
  p1.check("grouped trsm segment 1");
}

} // namespace
} // namespace iatf::serve
