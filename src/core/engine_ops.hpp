// Op traits for the engine's guarded-execution drivers (engine.cpp). Not
// installed; not part of the public API.
//
// The engine runs deadline, admission, breaker, verify, retry, fallback
// and hazard repair once, in one single-call and one grouped driver. What
// differs between GEMM, TRSM and the factorisations lives here, one small
// struct per op. A trait value binds one call's (or one grouped
// segment's) operands to its shape and supplies:
//   - the descriptor class (class_key, also the plan-cache key) and the
//     tuning key of its plan;
//   - execute, plus execute_range for the grouped driver's interleave
//     (GEMM and TRSM only: factor_grouped runs segments through the
//     single-call core instead);
//   - inout(), the operand the op reads and overwrites, which is what a
//     retry or a lane repair restores;
//   - validate() and ref_lane() for the scalar reference path;
//   - prepare()/scan() around execution (factor: pad_identity and the
//     written-region scan);
//   - the tile caps quarantine substitution walks down from.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"
#include "iatf/factor/factor_plan.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/sched/group_scheduler.hpp"
#include "iatf/tune/descriptor.hpp"

namespace iatf::detail {

template <class T> constexpr char dtype_tag() {
  return blas_prefix_v<T>[0];
}

inline bool site_prefix(const std::string& site, const char* prefix) {
  return site.rfind(prefix, 0) == 0;
}

/// Classify the in-flight exception as a degradation event. InvalidArg
/// errors are caller bugs and must never be silently degraded, so they are
/// rethrown; Timeout likewise -- a deadline already blown cannot be helped
/// by a slower scalar recompute. Everything else maps to the event the
/// fallback records.
inline DegradeEvent classify_failure() {
  try {
    throw;
  } catch (const fault::FaultInjected& f) {
    if (site_prefix(f.site(), "registry")) {
      return DegradeEvent::MissingKernel;
    }
    if (site_prefix(f.site(), "plan")) {
      return DegradeEvent::UnsupportedPlan;
    }
    if (site_prefix(f.site(), "threadpool") ||
        site_prefix(f.site(), "sched") ||
        site_prefix(f.site(), "resilience")) {
      return DegradeEvent::WorkerFailure;
    }
    return DegradeEvent::AllocFailure;
  } catch (const Error& e) {
    switch (e.status()) {
    case Status::InvalidArg:
    case Status::Timeout:
      throw;
    case Status::Unsupported:
      return DegradeEvent::UnsupportedPlan;
    case Status::AllocFailure:
      return DegradeEvent::AllocFailure;
    default:
      return DegradeEvent::WorkerFailure;
    }
  } catch (const std::bad_alloc&) {
    return DegradeEvent::AllocFailure;
  } catch (...) {
    return DegradeEvent::WorkerFailure;
  }
}

/// Raw copy of a buffer's storage, for restore() / restore_lane().
template <class T>
std::vector<real_t<T>> snapshot_of(const CompactBuffer<T>& buf) {
  return std::vector<real_t<T>>(buf.data(), buf.data() + buf.size());
}

template <class T>
void restore(CompactBuffer<T>& buf, const std::vector<real_t<T>>& snapshot) {
  std::copy(snapshot.begin(), snapshot.end(), buf.data());
}

/// Restore one lane of `buf` from a raw snapshot of its storage.
template <class T>
void restore_lane(CompactBuffer<T>& buf,
                  const std::vector<real_t<T>>& snapshot, index_t lane) {
  using R = real_t<T>;
  const index_t pw = buf.pack_width();
  const index_t g = lane / pw;
  const index_t l = lane % pw;
  const index_t es = buf.element_stride();
  const index_t elems = buf.rows() * buf.cols();
  R* gdata = buf.group_data(g);
  const R* sdata = snapshot.data() + g * buf.group_stride();
  for (index_t e = 0; e < elems; ++e) {
    gdata[e * es + l] = sdata[e * es + l];
    if constexpr (is_complex_v<T>) {
      gdata[e * es + pw + l] = sdata[e * es + pw + l];
    }
  }
}

/// Serve every lane of one op on the scalar reference path. The op is
/// validated first (the plan may have failed before validating anything)
/// and, given a snapshot, its in/out operand is restored so no partial
/// fast-path result is read as input. Lanes the reference refuses (a
/// non-SPD Cholesky lane) keep their input and are flagged singular.
template <class OpT>
BatchHealth ref_all(const OpT& op, DegradeEvent event,
                    const std::vector<real_t<typename OpT::value_type>>*
                        snapshot) {
  op.validate();
  if (snapshot != nullptr) {
    restore(op.inout(), *snapshot);
  }
  BatchHealth health;
  health.batch = op.shape.batch;
  for (index_t lane = 0; lane < op.shape.batch; ++lane) {
    if (!op.ref_lane(lane)) {
      ++health.singular;
      if (health.first_singular < 0) {
        health.first_singular = lane;
      }
      health.events |= DegradeEvent::NumericalHazard;
    }
  }
  health.events |= event;
  health.fallback = op.shape.batch;
  health.first_fallback = op.shape.batch > 0 ? 0 : -1;
  return health;
}

/// Fold a guarded run's recorder into `health` and, under Fallback
/// (`snapshot` non-null), restore and ref-recompute every flagged lane.
/// A lane the reference refuses keeps its restored input.
template <class OpT>
void settle_hazards(const OpT& op, const HealthRecorder& rec,
                    const std::vector<real_t<typename OpT::value_type>>*
                        snapshot,
                    BatchHealth& health) {
  rec.fill(health);
  if (health.nonfinite == 0 && health.singular == 0) {
    return;
  }
  health.events |= DegradeEvent::NumericalHazard;
  if (snapshot == nullptr) {
    return;
  }
  for (index_t lane = 0; lane < op.shape.batch; ++lane) {
    if (!rec.flagged(lane)) {
      continue;
    }
    restore_lane(op.inout(), *snapshot, lane);
    (void)op.ref_lane(lane);
    if (health.first_fallback < 0) {
      health.first_fallback = lane;
    }
    ++health.fallback;
  }
}

// --- GEMM -----------------------------------------------------------------

template <class T, int Bytes> struct GemmOp {
  using value_type = T;
  using Shape = GemmShape;
  using Plan = plan::GemmPlan<T, Bytes>;
  using Segment = sched::GemmSegment<T>;
  static constexpr int bytes = Bytes;
  static constexpr const char* plan_site = "plan.gemm";
  /// Registry-kernel plan: tuned, canary-verified, substituted around
  /// quarantines starting from these tile caps.
  static constexpr bool tiled = true;
  static constexpr index_t mc_cap = kernels::KernelLimits<T>::gemm_max_mc;
  static constexpr index_t nc_cap = kernels::KernelLimits<T>::gemm_max_nc;

  Shape shape;
  T alpha, beta;
  const CompactBuffer<T>* a;
  const CompactBuffer<T>* b;
  CompactBuffer<T>* c;

  static GemmOp make(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
                     const CompactBuffer<T>& b, T beta,
                     CompactBuffer<T>& c) {
    const Shape s{c.rows(), c.cols(),
                  op_a == Op::NoTrans ? a.cols() : a.rows(), op_a, op_b,
                  c.batch()};
    return GemmOp{s, alpha, beta, &a, &b, &c};
  }
  static GemmOp make(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr && seg.b != nullptr && seg.c != nullptr,
               "gemm_grouped: segment with a null buffer");
    return make(seg.op_a, seg.op_b, seg.alpha, *seg.a, *seg.b, seg.beta,
                *seg.c);
  }

  static sched::ClassKey class_key(const Shape& s) {
    return sched::gemm_class_key(s, Bytes);
  }
  static tune::TuneKey tune_key(const Shape& s) {
    return tune::gemm_key<T, Bytes>(s);
  }

  CompactBuffer<T>& inout() const { return *c; }
  void prepare() const {}
  void scan(HealthRecorder&) const {}

  void execute(const Plan& plan, ThreadPool* pool, HealthRecorder* rec,
               const Deadline* deadline) const {
    if (pool != nullptr) {
      plan.execute_parallel(*a, *b, *c, alpha, beta, *pool, rec, deadline);
    } else {
      plan.execute(*a, *b, *c, alpha, beta, rec, deadline);
    }
  }
  void execute_range(const Plan& plan, index_t g_begin, index_t g_end,
                     HealthRecorder* rec, const Deadline* deadline) const {
    plan.execute_range(*a, *b, *c, alpha, beta, g_begin, g_end, rec,
                       deadline);
  }

  /// The reference path reads the buffers directly, so it re-checks the
  /// consistency the plan normally validates.
  void validate() const {
    const bool ta = shape.op_a != Op::NoTrans;
    const bool tb = shape.op_b != Op::NoTrans;
    const Shape& s = shape;
    IATF_CHECK(s.m >= 0 && s.n >= 0 && s.k >= 0 && s.batch >= 0,
               "gemm: negative dimension");
    IATF_CHECK(a->rows() == (ta ? s.k : s.m) &&
                   a->cols() == (ta ? s.m : s.k),
               "gemm: operand A has mismatched dimensions");
    IATF_CHECK(b->rows() == (tb ? s.n : s.k) &&
                   b->cols() == (tb ? s.k : s.n),
               "gemm: operand B has mismatched dimensions");
    IATF_CHECK(a->batch() == s.batch && b->batch() == s.batch &&
                   c->batch() == s.batch,
               "gemm: operand batch sizes do not match");
  }

  /// Recompute one lane with the scalar reference GEMM. The lane's C must
  /// hold the original (pre-call) values so beta applies correctly.
  bool ref_lane(index_t lane) const {
    const index_t lda = std::max<index_t>(a->rows(), 1);
    const index_t ldb = std::max<index_t>(b->rows(), 1);
    const index_t ldc = std::max<index_t>(c->rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a->rows() * a->cols()));
    std::vector<T> tb(static_cast<std::size_t>(b->rows() * b->cols()));
    std::vector<T> tc(static_cast<std::size_t>(c->rows() * c->cols()));
    a->export_colmajor(lane, ta.data(), lda);
    b->export_colmajor(lane, tb.data(), ldb);
    c->export_colmajor(lane, tc.data(), ldc);
    ref::gemm(shape.op_a, shape.op_b, shape.m, shape.n, shape.k, alpha,
              ta.data(), lda, tb.data(), ldb, beta, tc.data(), ldc);
    c->import_colmajor(lane, tc.data(), ldc);
    return true;
  }
};

// --- TRSM -----------------------------------------------------------------

template <class T, int Bytes> struct TrsmOp {
  using value_type = T;
  using Shape = TrsmShape;
  using Plan = plan::TrsmPlan<T, Bytes>;
  using Segment = sched::TrsmSegment<T>;
  static constexpr int bytes = Bytes;
  static constexpr const char* plan_site = "plan.trsm";
  static constexpr bool tiled = true;
  static constexpr index_t mc_cap = kernels::KernelLimits<T>::trsm_block;
  static constexpr index_t nc_cap = kernels::KernelLimits<T>::tri_max_nc;

  Shape shape;
  T alpha;
  const CompactBuffer<T>* a;
  CompactBuffer<T>* b;

  static TrsmOp make(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                     const CompactBuffer<T>& a, CompactBuffer<T>& b) {
    const Shape s{b.rows(), b.cols(), side, uplo, op_a, diag, b.batch()};
    return TrsmOp{s, alpha, &a, &b};
  }
  static TrsmOp make(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr && seg.b != nullptr,
               "trsm_grouped: segment with a null buffer");
    return make(seg.side, seg.uplo, seg.op_a, seg.diag, seg.alpha, *seg.a,
                *seg.b);
  }

  static sched::ClassKey class_key(const Shape& s) {
    return sched::trsm_class_key(s, Bytes);
  }
  static tune::TuneKey tune_key(const Shape& s) {
    return tune::trsm_key<T, Bytes>(s);
  }

  CompactBuffer<T>& inout() const { return *b; }
  void prepare() const {}
  void scan(HealthRecorder&) const {}

  void execute(const Plan& plan, ThreadPool* pool, HealthRecorder* rec,
               const Deadline* deadline) const {
    if (pool != nullptr) {
      plan.execute_parallel(*a, *b, alpha, *pool, rec, deadline);
    } else {
      plan.execute(*a, *b, alpha, rec, deadline);
    }
  }
  void execute_range(const Plan& plan, index_t g_begin, index_t g_end,
                     HealthRecorder* rec, const Deadline* deadline) const {
    plan.execute_range(*a, *b, alpha, g_begin, g_end, rec, deadline);
  }

  void validate() const {
    IATF_CHECK(shape.m >= 0 && shape.n >= 0 && shape.batch >= 0,
               "trsm: negative dimension");
    IATF_CHECK(a->rows() == shape.a_dim() && a->cols() == shape.a_dim(),
               "trsm: A must be a_dim x a_dim");
    IATF_CHECK(a->batch() == shape.batch && b->batch() == shape.batch,
               "trsm: operand batch sizes do not match");
  }

  /// Recompute one lane with the scalar reference TRSM. The lane's B must
  /// hold the original right-hand side, not the partial fast-path solution.
  bool ref_lane(index_t lane) const {
    const index_t lda = std::max<index_t>(a->rows(), 1);
    const index_t ldb = std::max<index_t>(b->rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a->rows() * a->cols()));
    std::vector<T> tb(static_cast<std::size_t>(b->rows() * b->cols()));
    a->export_colmajor(lane, ta.data(), lda);
    b->export_colmajor(lane, tb.data(), ldb);
    ref::trsm(shape.side, shape.uplo, shape.op_a, shape.diag, shape.m,
              shape.n, alpha, ta.data(), lda, tb.data(), ldb);
    b->import_colmajor(lane, tb.data(), ldb);
    return true;
  }
};

// --- Factorisations (potrf / getrf_nopiv / trtri) -------------------------

template <class T> bool finite_scalar(T v) {
  if constexpr (is_complex_v<T>) {
    return std::isfinite(v.real()) && std::isfinite(v.imag());
  } else {
    return std::isfinite(v);
  }
}

/// Does the factorisation write element (i, j)? Potrf touches the lower
/// triangle only, LU the full matrix, Trtri its own triangle (diagonal
/// included only when it is stored).
inline bool in_written_region(const factor::FactorShape& s, index_t i,
                              index_t j) {
  switch (s.op) {
  case factor::FactorOp::Potrf:
    return i >= j;
  case factor::FactorOp::GetrfNp:
    return true;
  case factor::FactorOp::Trtri:
    if (i == j) {
      return s.diag == Diag::NonUnit;
    }
    return s.uplo == Uplo::Lower ? i > j : i < j;
  }
  return true;
}

/// Factor plans are fixed register sweeps: no tile tuning, no registry
/// kernels to canary, no quarantine substitution, no pool split.
template <class T, int Bytes> struct FactorOp {
  using value_type = T;
  using Shape = factor::FactorShape;
  using Plan = factor::FactorPlan<T, Bytes>;
  using Segment = sched::FactorSegment<T>;
  static constexpr int bytes = Bytes;
  static constexpr const char* plan_site = "plan.factor";
  static constexpr bool tiled = false;

  Shape shape;
  CompactBuffer<T>* a;

  static FactorOp make(factor::FactorOp op, Uplo uplo, Diag diag,
                       CompactBuffer<T>& a) {
    return FactorOp{Shape{op, a.rows(), uplo, diag, a.batch()}, &a};
  }
  static FactorOp make(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr, "factor_grouped: null segment buffer");
    return make(seg.op, seg.uplo, seg.diag, *seg.a);
  }

  static sched::ClassKey class_key(const Shape& s) {
    return sched::factor_class_key(s.op, s.m, s.uplo, s.diag, s.batch,
                                   Bytes);
  }

  CompactBuffer<T>& inout() const { return *a; }

  /// Factorisations divide by the pad-lane diagonals, so make them unit
  /// before touching the data (to_compact zero-fills the padding).
  void prepare() const { a->pad_identity(); }

  void execute(const Plan& plan, ThreadPool*, HealthRecorder* rec,
               const Deadline* deadline) const {
    plan.execute(*a, rec, deadline);
  }

  void validate() const {
    IATF_CHECK(shape.m >= 0 && shape.batch >= 0,
               "factor: negative dimension");
    IATF_CHECK(a->rows() == shape.m && a->cols() == shape.m,
               "factor: matrices must be square and match the call");
    IATF_CHECK(a->batch() == shape.batch, "factor: batch does not match");
  }

  /// Post-execution hazard scan over the written region. The plan's pivot
  /// scan catches bad pivots as they are formed; this catches Inf/NaN
  /// that propagated into the output without passing through a scanned
  /// diagonal (a non-finite off-diagonal input under Trtri, for example).
  void scan(HealthRecorder& rec) const {
    for (index_t lane = 0; lane < shape.batch; ++lane) {
      if (rec.flagged(lane)) {
        continue;
      }
      bool bad = false;
      for (index_t j = 0; j < shape.m && !bad; ++j) {
        for (index_t i = 0; i < shape.m; ++i) {
          if (in_written_region(shape, i, j) &&
              !finite_scalar(a->get(lane, i, j))) {
            bad = true;
            break;
          }
        }
      }
      if (bad) {
        rec.note_nonfinite(lane);
      }
    }
  }

  /// Recompute one lane with the scalar reference factorisation,
  /// out-of-place. The lane is written back only when the reference
  /// result is defined -- ref::potrf accepted the input and the written
  /// region is free of Inf/NaN. Otherwise returns false and leaves the
  /// lane exactly as it was (the caller has already restored the
  /// original input there).
  bool ref_lane(index_t lane) const {
    const index_t lda = std::max<index_t>(a->rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a->rows() * a->cols()));
    a->export_colmajor(lane, ta.data(), lda);
    try {
      switch (shape.op) {
      case factor::FactorOp::Potrf:
        ref::potrf(shape.m, ta.data(), lda);
        break;
      case factor::FactorOp::GetrfNp:
        ref::getrf_np(shape.m, ta.data(), lda);
        break;
      case factor::FactorOp::Trtri:
        ref::trtri(shape.uplo, shape.diag, shape.m, ta.data(), lda);
        break;
      }
    } catch (const Error&) {
      return false; // ref::potrf refuses non-positive-definite input
    }
    for (index_t j = 0; j < shape.m; ++j) {
      for (index_t i = 0; i < shape.m; ++i) {
        if (in_written_region(shape, i, j) &&
            !finite_scalar(ta[static_cast<std::size_t>(j * lda + i)])) {
          return false; // quiet zero pivot: as failed as a throwing one
        }
      }
    }
    a->import_colmajor(lane, ta.data(), lda);
    return true;
  }
};

} // namespace iatf::detail
