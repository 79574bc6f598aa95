// The C interface, exercised the way a C caller would use it (plus error
// paths that must surface as return codes, never exceptions).
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/capi/iatf.h"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

TEST(CApi, BufferLifecycleAndAccessors) {
  iatf_dbuf* buf = iatf_dcreate(3, 4, 7);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(iatf_drows(buf), 3);
  EXPECT_EQ(iatf_dcols(buf), 4);
  EXPECT_EQ(iatf_dbatch(buf), 7);
  iatf_ddestroy(buf);
  iatf_ddestroy(nullptr); // must be safe
}

TEST(CApi, CreateRejectsNegativeDims) {
  EXPECT_EQ(iatf_screate(-1, 2, 3), nullptr);
  EXPECT_NE(std::string(iatf_last_error()).find("negative"),
            std::string::npos);
}

TEST(CApi, DgemmMatchesReference) {
  Rng rng(7);
  const index_t m = 5, n = 4, k = 6, batch = 5;
  auto a = test::random_batch<double>(m, k, batch, rng);
  auto b = test::random_batch<double>(k, n, batch, rng);
  auto c = test::random_batch<double>(m, n, batch, rng);

  iatf_dbuf* ca = iatf_dcreate(m, k, batch);
  iatf_dbuf* cb = iatf_dcreate(k, n, batch);
  iatf_dbuf* cc = iatf_dcreate(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dimport(ca, l, a.mat(l), m), 0);
    ASSERT_EQ(iatf_dimport(cb, l, b.mat(l), k), 0);
    ASSERT_EQ(iatf_dimport(cc, l, c.mat(l), m), 0);
  }
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 2.0, ca, cb,
                               -1.0, cc),
            0);
  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<double>(Op::NoTrans, Op::NoTrans, m, n, k, 2.0, a.mat(l), m,
                      b.mat(l), k, -1.0, expected.mat(l), m);
  }
  test::HostBatch<double> actual(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dexport(cc, l, actual.mat(l), m), 0);
  }
  test::expect_batch_near(expected, actual, test::ulp_tolerance<double>(k),
                          "capi dgemm");
  iatf_ddestroy(ca);
  iatf_ddestroy(cb);
  iatf_ddestroy(cc);
}

TEST(CApi, ZgemmComplexScalars) {
  using C = std::complex<double>;
  Rng rng(8);
  const index_t s = 3, batch = 3;
  auto a = test::random_batch<C>(s, s, batch, rng);
  auto b = test::random_batch<C>(s, s, batch, rng);
  auto c = test::random_batch<C>(s, s, batch, rng);

  iatf_zbuf* ca = iatf_zcreate(s, s, batch);
  iatf_zbuf* cb = iatf_zcreate(s, s, batch);
  iatf_zbuf* cc = iatf_zcreate(s, s, batch);
  for (index_t l = 0; l < batch; ++l) {
    // The C API takes interleaved (re, im) arrays.
    iatf_zimport(ca, l, reinterpret_cast<const double*>(a.mat(l)), s);
    iatf_zimport(cb, l, reinterpret_cast<const double*>(b.mat(l)), s);
    iatf_zimport(cc, l, reinterpret_cast<const double*>(c.mat(l)), s);
  }
  const C alpha{1.5, -0.5}, beta{0.0, 2.0};
  ASSERT_EQ(iatf_zgemm_compact(IATF_CONJTRANS, IATF_NOTRANS,
                               alpha.real(), alpha.imag(), ca, cb,
                               beta.real(), beta.imag(), cc),
            0);
  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<C>(Op::ConjTrans, Op::NoTrans, s, s, s, alpha, a.mat(l), s,
                 b.mat(l), s, beta, expected.mat(l), s);
  }
  test::HostBatch<C> actual(s, s, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_zexport(cc, l, reinterpret_cast<double*>(actual.mat(l)), s);
  }
  test::expect_batch_near(expected, actual, test::ulp_tolerance<C>(s),
                          "capi zgemm");
  iatf_zdestroy(ca);
  iatf_zdestroy(cb);
  iatf_zdestroy(cc);
}

TEST(CApi, StrsmAndPadIdentity) {
  Rng rng(9);
  const index_t m = 6, n = 4;
  const index_t batch = 5; // not a multiple of the float pack width
  auto a = test::random_triangular_batch<float>(m, batch, rng);
  auto b = test::random_batch<float>(m, n, batch, rng);

  iatf_sbuf* ca = iatf_screate(m, m, batch);
  iatf_sbuf* cb = iatf_screate(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_simport(ca, l, a.mat(l), m);
    iatf_simport(cb, l, b.mat(l), m);
  }
  ASSERT_EQ(iatf_spad_identity(ca), 0);
  ASSERT_EQ(iatf_strsm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0f, ca, cb),
            0);
  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trsm<float>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                     m, n, 1.0f, a.mat(l), m, expected.mat(l), m);
  }
  test::HostBatch<float> actual(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_sexport(cb, l, actual.mat(l), m);
  }
  test::expect_batch_near(expected, actual,
                          test::ulp_tolerance<float>(m, 256), "capi strsm");
  iatf_sdestroy(ca);
  iatf_sdestroy(cb);
}

TEST(CApi, FactorisationsRoundtrip) {
  Rng rng(10);
  const index_t m = 5, batch = 4;
  auto host = test::random_batch<double>(m, m, batch, rng);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t d = 0; d < m; ++d) {
      host.mat(l)[d * m + d] += m + 1.0;
    }
  }
  iatf_dbuf* a = iatf_dcreate(m, m, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_dimport(a, l, host.mat(l), m);
  }
  iatf_dpad_identity(a);
  ASSERT_EQ(iatf_dgetrfnp_compact(a), 0);
  auto expected = host;
  for (index_t l = 0; l < batch; ++l) {
    ref::getrf_np<double>(m, expected.mat(l), m);
  }
  test::HostBatch<double> actual(m, m, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_dexport(a, l, actual.mat(l), m);
  }
  test::expect_batch_near(expected, actual,
                          test::ulp_tolerance<double>(m, 128), "capi getrf");
  iatf_ddestroy(a);
}

TEST(CApi, ErrorsReturnCodesNotExceptions) {
  iatf_dbuf* a = iatf_dcreate(3, 3, 2);
  iatf_dbuf* bad = iatf_dcreate(4, 4, 2);
  iatf_dbuf* c = iatf_dcreate(3, 3, 2);
  EXPECT_NE(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, bad,
                               0.0, c),
            0);
  EXPECT_NE(std::string(iatf_last_error()).size(), 0u);
  // Dimension mismatch in import.
  std::vector<double> small(4);
  EXPECT_NE(iatf_dimport(a, 0, small.data(), 1), 0);
  iatf_ddestroy(a);
  iatf_ddestroy(bad);
  iatf_ddestroy(c);
}

TEST(CApi, StatusCodesAreTyped) {
  iatf_dbuf* a = iatf_dcreate(3, 3, 2);
  iatf_dbuf* bad = iatf_dcreate(4, 4, 2);
  iatf_dbuf* c = iatf_dcreate(3, 3, 2);
  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, bad,
                               0.0, c),
            IATF_STATUS_INVALID_ARG);
  EXPECT_NE(std::string(iatf_last_error()).size(), 0u);
  iatf_clear_error();
  EXPECT_STREQ(iatf_last_error(), "");
  iatf_ddestroy(a);
  iatf_ddestroy(bad);
  iatf_ddestroy(c);
}

TEST(CApi, ExecPolicyRoundTrip) {
  EXPECT_EQ(iatf_get_exec_policy(), IATF_EXEC_FAST); // library default
  iatf_set_exec_policy(IATF_EXEC_CHECK);
  EXPECT_EQ(iatf_get_exec_policy(), IATF_EXEC_CHECK);
  iatf_set_exec_policy(IATF_EXEC_FALLBACK);
  EXPECT_EQ(iatf_get_exec_policy(), IATF_EXEC_FALLBACK);
  iatf_set_exec_policy(IATF_EXEC_FAST);
  EXPECT_EQ(iatf_get_exec_policy(), IATF_EXEC_FAST);
}

TEST(CApi, NumericalHazardSurfacesAsStatusCode) {
  Rng rng(11);
  const index_t m = 4, n = 3, k = 4, batch = 3;
  auto a = test::random_batch<double>(m, k, batch, rng);
  auto b = test::random_batch<double>(k, n, batch, rng);
  auto c = test::random_batch<double>(m, n, batch, rng);
  a.mat(1)[0] = std::numeric_limits<double>::quiet_NaN();

  iatf_dbuf* ca = iatf_dcreate(m, k, batch);
  iatf_dbuf* cb = iatf_dcreate(k, n, batch);
  iatf_dbuf* cc = iatf_dcreate(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dimport(ca, l, a.mat(l), m), 0);
    ASSERT_EQ(iatf_dimport(cb, l, b.mat(l), k), 0);
  }
  const auto reload_c = [&] {
    for (index_t l = 0; l < batch; ++l) {
      ASSERT_EQ(iatf_dimport(cc, l, c.mat(l), m), 0);
    }
  };

  // Fast does not scan: the poisoned batch still returns OK.
  reload_c();
  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, ca, cb,
                               0.0, cc),
            IATF_STATUS_OK);

  // Check flags it as a typed status with a descriptive message.
  iatf_set_exec_policy(IATF_EXEC_CHECK);
  reload_c();
  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, ca, cb,
                               0.0, cc),
            IATF_STATUS_NUMERICAL_HAZARD);
  EXPECT_NE(std::string(iatf_last_error()).find("hazard"),
            std::string::npos);
  iatf_clear_error();

  // Fallback repairs the lane on the reference path, so the call is OK:
  // the result matches the per-matrix reference (NaN lane included).
  iatf_set_exec_policy(IATF_EXEC_FALLBACK);
  reload_c();
  EXPECT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, ca, cb,
                               0.0, cc),
            IATF_STATUS_OK);
  auto expected = c;
  for (index_t l = 0; l < batch; ++l) {
    ref::gemm<double>(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, a.mat(l), m,
                      b.mat(l), k, 0.0, expected.mat(l), m);
  }
  test::HostBatch<double> actual(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dexport(cc, l, actual.mat(l), m), 0);
  }
  for (index_t j = 0; j < n; ++j) {
    // The NaN at A(0,0) of lane 1 poisons row 0 of its result.
    EXPECT_TRUE(std::isnan(actual.mat(1)[j * m]));
    actual.mat(1)[j * m] = expected.mat(1)[j * m] = 0.0;
  }
  test::expect_batch_near(expected, actual, test::ulp_tolerance<double>(k, 128),
                          "capi fallback gemm");

  iatf_set_exec_policy(IATF_EXEC_FAST);
  iatf_ddestroy(ca);
  iatf_ddestroy(cb);
  iatf_ddestroy(cc);
}

TEST(CApi, SgemmGroupedMatchesReference) {
  Rng rng(11);
  struct Case {
    index_t m, n, k, batch;
    float alpha, beta;
  };
  // Two ragged sizes plus a repeat of the first, so the grouped call
  // resolves two distinct plans for three segments.
  const std::vector<Case> cases{{5, 4, 6, 5, 2.0f, -1.0f},
                                {9, 2, 3, 7, 0.37f, 1.0f},
                                {5, 4, 6, 5, 2.0f, -1.0f}};

  std::vector<test::HostBatch<float>> a, b, c, expected;
  std::vector<iatf_sbuf*> ca, cb, cc;
  for (const Case& cs : cases) {
    a.push_back(test::random_batch<float>(cs.m, cs.k, cs.batch, rng));
    b.push_back(test::random_batch<float>(cs.k, cs.n, cs.batch, rng));
    c.push_back(test::random_batch<float>(cs.m, cs.n, cs.batch, rng));
    expected.push_back(c.back());
    for (index_t l = 0; l < cs.batch; ++l) {
      ref::gemm<float>(Op::NoTrans, Op::NoTrans, cs.m, cs.n, cs.k,
                       cs.alpha, a.back().mat(l), cs.m, b.back().mat(l),
                       cs.k, cs.beta, expected.back().mat(l), cs.m);
    }
    ca.push_back(iatf_screate(cs.m, cs.k, cs.batch));
    cb.push_back(iatf_screate(cs.k, cs.n, cs.batch));
    cc.push_back(iatf_screate(cs.m, cs.n, cs.batch));
    for (index_t l = 0; l < cs.batch; ++l) {
      ASSERT_EQ(iatf_simport(ca.back(), l, a.back().mat(l), cs.m), 0);
      ASSERT_EQ(iatf_simport(cb.back(), l, b.back().mat(l), cs.k), 0);
      ASSERT_EQ(iatf_simport(cc.back(), l, c.back().mat(l), cs.m), 0);
    }
  }

  std::vector<iatf_sgemm_segment> segs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    iatf_sgemm_segment s{};
    s.op_a = IATF_NOTRANS;
    s.op_b = IATF_NOTRANS;
    s.alpha = cases[i].alpha;
    s.beta = cases[i].beta;
    s.a = ca[i];
    s.b = cb[i];
    s.c = cc[i];
    segs.push_back(s);
  }

  iatf_engine_stats before{};
  ASSERT_EQ(iatf_get_engine_stats(&before), 0);
  ASSERT_EQ(iatf_sgemm_grouped(segs.data(),
                               static_cast<int64_t>(segs.size())),
            0);
  iatf_engine_stats after{};
  ASSERT_EQ(iatf_get_engine_stats(&after), 0);
  EXPECT_EQ(after.grouped_calls, before.grouped_calls + 1);
  // Three segments over two size classes -> the 2-plan bucket.
  EXPECT_EQ(after.grouped_plan_hist[1], before.grouped_plan_hist[1] + 1);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    test::HostBatch<float> actual(cases[i].m, cases[i].n, cases[i].batch);
    for (index_t l = 0; l < cases[i].batch; ++l) {
      ASSERT_EQ(iatf_sexport(cc[i], l, actual.mat(l), cases[i].m), 0);
    }
    test::expect_batch_near(expected[i], actual,
                            test::ulp_tolerance<float>(cases[i].k),
                            "capi sgemm_grouped segment " +
                                std::to_string(i));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    iatf_sdestroy(ca[i]);
    iatf_sdestroy(cb[i]);
    iatf_sdestroy(cc[i]);
  }
}

TEST(CApi, ZtrsmGroupedMatchesReference) {
  using C = std::complex<double>;
  Rng rng(12);
  const index_t m = 4, n = 3, batch = 3;
  auto a = test::random_triangular_batch<C>(m, batch, rng);
  auto b = test::random_batch<C>(m, n, batch, rng);
  const C alpha{1.0, -0.5};
  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trsm<C>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, m, n,
                 alpha, a.mat(l), m, expected.mat(l), m);
  }

  iatf_zbuf* ca = iatf_zcreate(m, m, batch);
  iatf_zbuf* cb = iatf_zcreate(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_zimport(ca, l, reinterpret_cast<const double*>(a.mat(l)), m);
    iatf_zimport(cb, l, reinterpret_cast<const double*>(b.mat(l)), m);
  }
  ASSERT_EQ(iatf_zpad_identity(ca), 0);

  iatf_ztrsm_segment seg{};
  seg.side = IATF_LEFT;
  seg.uplo = IATF_LOWER;
  seg.op_a = IATF_NOTRANS;
  seg.diag = IATF_NONUNIT;
  seg.alpha_re = alpha.real();
  seg.alpha_im = alpha.imag();
  seg.a = ca;
  seg.b = cb;
  ASSERT_EQ(iatf_ztrsm_grouped(&seg, 1), 0);

  test::HostBatch<C> actual(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    iatf_zexport(cb, l, reinterpret_cast<double*>(actual.mat(l)), m);
  }
  test::expect_batch_near(expected, actual, test::ulp_tolerance<C>(m, 256),
                          "capi ztrsm_grouped");
  iatf_zdestroy(ca);
  iatf_zdestroy(cb);
}

TEST(CApi, GroupedRejectsBadArguments) {
  // A null segment array with a positive count is an InvalidArg, as is a
  // segment whose buffer pointers are null; both surface as codes.
  EXPECT_EQ(iatf_dgemm_grouped(nullptr, 2), IATF_STATUS_INVALID_ARG);
  EXPECT_NE(std::string(iatf_last_error()).find("dgemm_grouped"),
            std::string::npos);

  iatf_dgemm_segment seg{};
  seg.op_a = IATF_NOTRANS;
  seg.op_b = IATF_NOTRANS;
  seg.alpha = 1.0;
  EXPECT_EQ(iatf_dgemm_grouped(&seg, 1), IATF_STATUS_INVALID_ARG);

  // Zero segments is a valid (empty) call.
  EXPECT_EQ(iatf_dgemm_grouped(nullptr, 0), IATF_STATUS_OK);
  EXPECT_EQ(iatf_strsm_grouped(nullptr, -1), IATF_STATUS_INVALID_ARG);
}

// --- Extension shims (trmm / unpivoted LU / Cholesky, s and d) ---------

TEST(CApi, ExtShimsRejectNullBuffers) {
  iatf_sbuf* s = iatf_screate(2, 2, 1);
  iatf_dbuf* d = iatf_dcreate(2, 2, 1);
  EXPECT_EQ(iatf_strmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0f, nullptr, s),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_strmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0f, s, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dtrmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0, nullptr, d),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dtrmm_compact(IATF_LEFT, IATF_LOWER, IATF_NOTRANS,
                               IATF_NONUNIT, 1.0, d, nullptr),
            IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_sgetrfnp_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dgetrfnp_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_spotrf_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_dpotrf_compact(nullptr), IATF_STATUS_INVALID_ARG);
  EXPECT_NE(std::string(iatf_last_error()).find("dpotrf_compact"),
            std::string::npos);
  iatf_sdestroy(s);
  iatf_ddestroy(d);
}

template <class T> struct ExtApi;
template <> struct ExtApi<float> {
  using Buf = iatf_sbuf;
  static constexpr auto create = &iatf_screate;
  static constexpr auto destroy = &iatf_sdestroy;
  static constexpr auto import = &iatf_simport;
  static constexpr auto export_ = &iatf_sexport;
  static constexpr auto pad_identity = &iatf_spad_identity;
  static constexpr auto trmm = &iatf_strmm_compact;
  static constexpr auto getrfnp = &iatf_sgetrfnp_compact;
  static constexpr auto potrf = &iatf_spotrf_compact;
};
template <> struct ExtApi<double> {
  using Buf = iatf_dbuf;
  static constexpr auto create = &iatf_dcreate;
  static constexpr auto destroy = &iatf_ddestroy;
  static constexpr auto import = &iatf_dimport;
  static constexpr auto export_ = &iatf_dexport;
  static constexpr auto pad_identity = &iatf_dpad_identity;
  static constexpr auto trmm = &iatf_dtrmm_compact;
  static constexpr auto getrfnp = &iatf_dgetrfnp_compact;
  static constexpr auto potrf = &iatf_dpotrf_compact;
};

template <class T>
typename ExtApi<T>::Buf* upload(const test::HostBatch<T>& h) {
  typename ExtApi<T>::Buf* buf = ExtApi<T>::create(h.rows, h.cols, h.batch);
  for (index_t l = 0; l < h.batch; ++l) {
    EXPECT_EQ(ExtApi<T>::import(buf, l, h.mat(l), h.ld()), IATF_STATUS_OK);
  }
  return buf;
}

template <class T>
test::HostBatch<T> download(const typename ExtApi<T>::Buf* buf,
                            index_t rows, index_t cols, index_t batch) {
  test::HostBatch<T> out(rows, cols, batch);
  for (index_t l = 0; l < batch; ++l) {
    EXPECT_EQ(ExtApi<T>::export_(buf, l, out.mat(l), out.ld()),
              IATF_STATUS_OK);
  }
  return out;
}

template <class T> class CApiExtTyped : public ::testing::Test {};
using ExtTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(CApiExtTyped, ExtTypes);

TYPED_TEST(CApiExtTyped, TrmmMatchesReference) {
  using T = TypeParam;
  using Api = ExtApi<T>;
  Rng rng(51);
  const index_t m = 5, n = 3, batch = simd::pack_width_v<T> + 3;
  const T alpha = T(1.5);
  const auto a = test::random_triangular_batch<T>(m, batch, rng);
  const auto b = test::random_batch<T>(m, n, batch, rng);
  auto* ca = upload(a);
  auto* cb = upload(b);
  ASSERT_EQ(Api::trmm(IATF_LEFT, IATF_UPPER, IATF_TRANS, IATF_NONUNIT,
                      alpha, ca, cb),
            IATF_STATUS_OK);
  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trmm<T>(Side::Left, Uplo::Upper, Op::Trans, Diag::NonUnit, m, n,
                 alpha, a.mat(l), m, expected.mat(l), m);
  }
  test::expect_batch_near(expected, download<T>(cb, m, n, batch),
                          test::ulp_tolerance<T>(m, 128), "capi trmm");
  Api::destroy(ca);
  Api::destroy(cb);
}

TYPED_TEST(CApiExtTyped, GetrfnpMatchesReference) {
  using T = TypeParam;
  using Api = ExtApi<T>;
  Rng rng(52);
  const index_t m = 6, batch = simd::pack_width_v<T> + 3;
  const auto host = test::random_diag_dominant_batch<T>(m, batch, rng);
  auto* ca = upload(host);
  ASSERT_EQ(Api::pad_identity(ca), IATF_STATUS_OK);
  ASSERT_EQ(Api::getrfnp(ca), IATF_STATUS_OK);
  auto expected = host;
  for (index_t l = 0; l < batch; ++l) {
    ref::getrf_np<T>(m, expected.mat(l), m);
  }
  test::expect_batch_near(expected, download<T>(ca, m, m, batch),
                          test::ulp_tolerance<T>(m, 128), "capi getrfnp");
  Api::destroy(ca);
}

TYPED_TEST(CApiExtTyped, PotrfMatchesReference) {
  using T = TypeParam;
  using Api = ExtApi<T>;
  Rng rng(53);
  const index_t m = 6, batch = simd::pack_width_v<T> + 3;
  const auto host = test::random_spd_batch<T>(m, batch, rng);
  auto* ca = upload(host);
  ASSERT_EQ(Api::pad_identity(ca), IATF_STATUS_OK);
  ASSERT_EQ(Api::potrf(ca), IATF_STATUS_OK);
  auto expected = host;
  test::ref_potrf_batch(expected);
  const auto actual = download<T>(ca, m, m, batch);
  // Compare the lower triangles only (the upper one is scratch).
  const T tol = test::ulp_tolerance<T>(m, 256) * static_cast<T>(m);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = j; i < m; ++i) {
        ASSERT_NEAR(actual.mat(l)[j * m + i], expected.mat(l)[j * m + i],
                    tol)
            << "capi potrf lane " << l << " (" << i << "," << j << ")";
      }
    }
  }
  Api::destroy(ca);
}

} // namespace
} // namespace iatf
