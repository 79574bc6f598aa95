// `compact`: the paper's setting. One caller thread, no pool, no serve,
// net or layout conversion while timed: operands are converted to the
// compact layout during set-up, then a closed loop of steps runs, for s
// and d,
//   * GEMM at sizes spread over 2..33, rotating NN/NT/TN/TT per step;
//   * TRSM LNLN and LTUN;
//   * the potrf -> trsm chain on PackedHandles.
// Every descriptor's operands are about 2.25 MiB, above the 2 MiB per-core
// L2, so the batch counter's L1 slicing matters; the whole step stays
// inside the LLC (both sizes are printed). A request is one step.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>

#include "iatf/core/engine.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using iatf::CompactBuffer;
using iatf::index_t;
using iatf::Op;

constexpr std::size_t kDescBytes = 2304u << 10; // 2.25 MiB per descriptor
constexpr int kGemmSizes[] = {2, 5, 9, 16, 24, 33};
constexpr int kTrsmSizes[] = {6, 16, 28};
constexpr int kChainSizes[] = {8, 24};
constexpr std::uint64_t kCheckEvery = 16; ///< steps checked vs iatf::ref
// Steps take tens of ms. The median and the rate use 16 windows of about
// 50 steps (ten beyond the median), short enough that a dip of a second
// or two covers few of them. p90 needs 100 steps per window, so it uses 4.
constexpr int kCompactWindows = 16;
constexpr std::size_t kCompactWindowSteps = 20;
constexpr int kCompactP90Windows = 4;

/// Column-major host batch (the caller's side of the layout).
template <class T> struct Host {
  index_t m = 0, batch = 0;
  std::vector<T> data;
  const T* lane(index_t l) const { return data.data() + l * m * m; }
};

template <class T>
Host<T> random_host(index_t m, index_t batch, std::mt19937_64& rng) {
  std::uniform_real_distribution<T> dist(T(-1), T(1));
  Host<T> h{m, batch, std::vector<T>(static_cast<std::size_t>(m * m * batch))};
  for (T& x : h.data) {
    x = dist(rng);
  }
  return h;
}

/// Well-conditioned triangle source: off-diagonal scaled by 0.5/m, diagonal
/// in [0.5, 1.5] (the suite's random_triangular_batch construction).
template <class T>
Host<T> triangular_host(index_t m, index_t batch, std::mt19937_64& rng) {
  Host<T> h = random_host<T>(m, batch, rng);
  std::uniform_real_distribution<T> diag(T(0.5), T(1.5));
  const T scale = m > 1 ? T(0.5) / T(m) : T(1);
  for (index_t l = 0; l < batch; ++l) {
    T* a = h.data.data() + l * m * m;
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = 0; i < m; ++i) {
        a[j * m + i] = i == j ? diag(rng) : a[j * m + i] * scale;
      }
    }
  }
  return h;
}

/// SPD source: B B^T / m + I.
template <class T>
Host<T> spd_host(index_t m, index_t batch, std::mt19937_64& rng) {
  Host<T> b = random_host<T>(m, batch, rng);
  Host<T> h{m, batch, std::vector<T>(b.data.size())};
  for (index_t l = 0; l < batch; ++l) {
    const T* x = b.lane(l);
    T* a = h.data.data() + l * m * m;
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = 0; i < m; ++i) {
        T s = i == j ? T(1) : T(0);
        for (index_t k = 0; k < m; ++k) {
          s += x[k * m + i] * x[k * m + j] / T(m);
        }
        a[j * m + i] = s;
      }
    }
  }
  return h;
}

index_t pick_lane(index_t batch, std::mt19937_64& rng) {
  return std::uniform_int_distribution<index_t>(0, batch - 1)(rng);
}

/// One timed operation of a step, with its untimed restore and check.
struct StepOp {
  const char* layer = "";
  double flops = 0;
  std::size_t bytes = 0;
  std::function<void()> restore;
  std::function<void(std::uint64_t step)> run;
  std::function<bool(std::mt19937_64&)> check;
};

/// Inputs of the whole step in caller layout, generated once per run.
struct Inputs {
  std::vector<Host<float>> fg, ft, fc;   // gemm (a, b pairs), trsm, chain
  std::vector<Host<double>> dg, dt, dc;
};

template <class T> index_t batch_for(index_t m, int operands) {
  const auto per = static_cast<std::size_t>(operands * m * m) * sizeof(T);
  const index_t pw = iatf::simd::pack_width_v<T>;
  const auto fit = static_cast<index_t>(kDescBytes / per);
  return std::max<index_t>(pw, fit / pw * pw);
}

template <class T>
void make_inputs(std::vector<Host<T>>& g, std::vector<Host<T>>& t,
                 std::vector<Host<T>>& c, std::mt19937_64& rng) {
  for (int m : kGemmSizes) {
    const index_t b = batch_for<T>(m, 3);
    g.push_back(random_host<T>(m, b, rng));
    g.push_back(random_host<T>(m, b, rng));
  }
  for (int m : kTrsmSizes) {
    const index_t b = batch_for<T>(m, 2);
    t.push_back(triangular_host<T>(m, b, rng));
    t.push_back(random_host<T>(m, b, rng));
  }
  for (int m : kChainSizes) {
    const index_t b = batch_for<T>(m, 2);
    c.push_back(spd_host<T>(m, b, rng));
    c.push_back(random_host<T>(m, b, rng));
  }
}

/// Compact operands of one set-up; owns everything the step touches.
struct State {
  std::unique_ptr<iatf::Engine> engine;
  std::vector<std::unique_ptr<CompactBuffer<float>>> fbufs;
  std::vector<std::unique_ptr<CompactBuffer<double>>> dbufs;
  std::vector<std::unique_ptr<iatf::factor::PackedHandle<float>>> fh;
  std::vector<std::unique_ptr<iatf::factor::PackedHandle<double>>> dh;
  std::vector<StepOp> ops;
  std::size_t bytes = 0;

  template <class T> CompactBuffer<T>& keep(CompactBuffer<T> b) {
    bytes += b.size() * sizeof(typename CompactBuffer<T>::real_type);
    auto p = std::make_unique<CompactBuffer<T>>(std::move(b));
    CompactBuffer<T>& ref = *p;
    if constexpr (std::is_same_v<T, float>) {
      fbufs.push_back(std::move(p));
    } else {
      dbufs.push_back(std::move(p));
    }
    return ref;
  }
  template <class T>
  iatf::factor::PackedHandle<T>& keep(iatf::factor::PackedHandle<T> h) {
    bytes += h.buffer().size() * sizeof(typename CompactBuffer<T>::real_type);
    auto p = std::make_unique<iatf::factor::PackedHandle<T>>(std::move(h));
    auto& ref = *p;
    if constexpr (std::is_same_v<T, float>) {
      fh.push_back(std::move(p));
    } else {
      dh.push_back(std::move(p));
    }
    return ref;
  }
};

template <class T> CompactBuffer<T> to_compact(const Host<T>& h) {
  return iatf::to_compact<T>(h.data.data(), h.m, h.m, h.m, h.m * h.m, h.batch);
}

template <class T>
void add_ops(State& st, const std::vector<Host<T>>& g,
             const std::vector<Host<T>>& t, const std::vector<Host<T>>& c,
             std::uint64_t seed) {
  iatf::Engine& eng = *st.engine;
  for (std::size_t i = 0; i + 1 < g.size(); i += 2) {
    const index_t m = g[i].m, batch = g[i].batch;
    CompactBuffer<T>& a = st.keep(to_compact(g[i]));
    CompactBuffer<T>& b = st.keep(to_compact(g[i + 1]));
    CompactBuffer<T>& cc = st.keep(CompactBuffer<T>(m, m, batch));
    auto mode = std::make_shared<int>(0);
    const std::uint64_t rot = seed + i / 2;
    StepOp op;
    op.layer = "kernels.gemm";
    op.flops = gemm_flops(m, m, m, batch);
    op.bytes = 3 * a.size() * sizeof(T);
    op.run = [&eng, &a, &b, &cc, mode, rot](std::uint64_t step) {
      *mode = static_cast<int>((step + rot) % 4);
      eng.gemm<T>(*mode & 2 ? Op::Trans : Op::NoTrans,
                  *mode & 1 ? Op::Trans : Op::NoTrans, T(1), a, b, T(0), cc);
    };
    op.check = [&a, &b, &cc, mode, m, batch](std::mt19937_64& rng) {
      const index_t l = pick_lane(batch, rng);
      const auto la = lane_of(a, l), lb = lane_of(b, l), got = lane_of(cc, l);
      std::vector<T> want(got.size());
      iatf::ref::gemm<T>(*mode & 2 ? Op::Trans : Op::NoTrans,
                         *mode & 1 ? Op::Trans : Op::NoTrans, m, m, m, T(1),
                         la.data(), m, lb.data(), m, T(0), want.data(), m);
      return within_ulps<T>(want.data(), got.data(), want.size(), m);
    };
    st.ops.push_back(std::move(op));
  }
  for (std::size_t i = 0; i + 1 < t.size(); i += 2) {
    const index_t m = t[i].m, batch = t[i].batch;
    CompactBuffer<T>& a = st.keep(to_compact(t[i]));
    a.pad_identity();
    const CompactBuffer<T>& pristine = st.keep(to_compact(t[i + 1]));
    for (int variant = 0; variant < 2; ++variant) {
      // LNLN, then LTUN.
      const iatf::Uplo uplo =
          variant == 0 ? iatf::Uplo::Lower : iatf::Uplo::Upper;
      const Op opa = variant == 0 ? Op::NoTrans : Op::Trans;
      const iatf::Diag diag =
          variant == 0 ? iatf::Diag::NonUnit : iatf::Diag::Unit;
      CompactBuffer<T>& b = st.keep(CompactBuffer<T>(m, m, batch));
      StepOp op;
      op.layer = "kernels.trsm";
      op.flops = trsm_flops(true, m, m, batch);
      op.bytes = 2 * a.size() * sizeof(T);
      op.restore = [&b, &pristine] { copy_into(b, pristine); };
      op.run = [&eng, &a, &b, uplo, opa, diag](std::uint64_t) {
        eng.trsm<T>(iatf::Side::Left, uplo, opa, diag, T(1), a, b);
      };
      op.check = [&a, &b, &pristine, uplo, opa, diag, m,
                  batch](std::mt19937_64& rng) {
        const index_t l = pick_lane(batch, rng);
        const auto la = lane_of(a, l), got = lane_of(b, l);
        auto want = lane_of(pristine, l);
        iatf::ref::trsm<T>(iatf::Side::Left, uplo, opa, diag, m, m, T(1),
                           la.data(), m, want.data(), m);
        return within_ulps<T>(want.data(), got.data(), want.size(), m);
      };
      st.ops.push_back(std::move(op));
    }
  }
  for (std::size_t i = 0; i + 1 < c.size(); i += 2) {
    const index_t m = c[i].m, batch = c[i].batch;
    const CompactBuffer<T>& s0 = st.keep(to_compact(c[i]));
    const CompactBuffer<T>& b0 = st.keep(to_compact(c[i + 1]));
    auto& hs = st.keep(eng.pack<T>(c[i].data.data(), m, m, m, m * m, batch));
    auto& hb =
        st.keep(eng.pack<T>(c[i + 1].data.data(), m, m, m, m * m, batch));
    StepOp op;
    op.layer = "factor.chain";
    op.flops = potrf_flops(m, batch) + trsm_flops(true, m, m, batch);
    op.bytes = 2 * s0.size() * sizeof(T);
    op.restore = [&hs, &hb, &s0, &b0] {
      copy_into(hs.buffer(), s0);
      copy_into(hb.buffer(), b0);
    };
    op.run = [&eng, &hs, &hb](std::uint64_t) {
      eng.potrf_batch<T>(hs);
      eng.trsm<T>(iatf::Side::Left, iatf::Uplo::Lower, Op::NoTrans,
                  iatf::Diag::NonUnit, T(1), hs, hb);
    };
    op.check = [&hb, &s0, &b0, m, batch](std::mt19937_64& rng) {
      const index_t l = pick_lane(batch, rng);
      auto ls = lane_of(s0, l), want = lane_of(b0, l);
      const auto got = lane_of(hb.buffer(), l);
      iatf::ref::potrf<T>(m, ls.data(), m);
      iatf::ref::trsm<T>(iatf::Side::Left, iatf::Uplo::Lower, Op::NoTrans,
                         iatf::Diag::NonUnit, m, m, T(1), ls.data(), m,
                         want.data(), m);
      // A two-op chain: the suite's factor budget of 128 ULPs.
      return within_ulps<T>(want.data(), got.data(), want.size(), m, 128.0);
    };
    st.ops.push_back(std::move(op));
  }
}

struct SetupTimes {
  double engine_ms = 0, front_ms = 0, warm_ms = 0;
};

std::unique_ptr<State> build_state(const Inputs& in, std::uint64_t seed,
                                   SetupTimes& times) {
  auto st = std::make_unique<State>();
  const std::int64_t t0 = now_ns();
  st->engine = std::make_unique<iatf::Engine>();
  const std::int64_t t1 = now_ns();
  add_ops<float>(*st, in.fg, in.ft, in.fc, seed);
  add_ops<double>(*st, in.dg, in.dt, in.dc, seed);
  const std::int64_t t2 = now_ns();
  // First touch: plans and canaries for every op in all four GEMM modes.
  for (std::uint64_t step = 0; step < 4; ++step) {
    for (StepOp& op : st->ops) {
      if (op.restore) {
        op.restore();
      }
      op.run(step);
    }
  }
  const std::int64_t t3 = now_ns();
  times = {(t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6};
  return st;
}

} // namespace

void run_compact(const Options& opt, Report& rep, Outcome& out) {
  Inputs in;
  std::mt19937_64 rng(opt.seed);
  make_inputs<float>(in.fg, in.ft, in.fc, rng);
  make_inputs<double>(in.dg, in.dt, in.dc, rng);

  std::unique_ptr<State> st;
  std::vector<double> setup_s, engine_ms, front_ms, warm_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    st = build_state(in, opt.seed, t);
    setup_s.push_back((now_ns() - t0) / 1e9);
    engine_ms.push_back(t.engine_ms);
    front_ms.push_back(t.front_ms);
    warm_ms.push_back(t.warm_ms);
  }
  double step_flops = 0;
  for (const StepOp& op : st->ops) {
    step_flops += op.flops;
  }
  const iatf::EngineStats e0 = st->engine->stats();

  std::mt19937_64 check_rng(opt.seed ^ 0xc0ffee);
  std::vector<double> step_us;
  std::uint64_t step = 0, wrong = 0, failed = 0;
  Tracer tracer(opt.trace);
  std::vector<double> gap_us;
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(opt.seconds * 0.9e9);
  SampleWindows lat_us(start, end, kCompactWindows);
  SampleWindows lat90_us(start, end, kCompactP90Windows);
  SampleWindows rate(start, end, kCompactWindows);
  while (now_ns() < end) {
    ++step;
    std::int64_t busy = 0;
    const std::int64_t wall0 = now_ns();
    const auto req = static_cast<std::uint32_t>(step);
    const std::int32_t root = tracer.begin("compact.step", -1, req);
    try {
      for (StepOp& op : st->ops) {
        if (op.restore) {
          op.restore();
        }
        const std::int32_t sp = tracer.begin(op.layer, root, req);
        const std::int64_t t0 = now_ns();
        op.run(step);
        busy += now_ns() - t0;
        tracer.end(sp);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "compact: step %llu failed: %s\n",
                   static_cast<unsigned long long>(step), e.what());
      ++failed;
      continue;
    }
    tracer.end(root);
    // Closed loop: the generator's lateness is the untimed work it does
    // between timed calls (restores, loop and tracing overhead).
    gap_us.push_back((now_ns() - wall0 - busy) / 1e3);
    step_us.push_back(busy / 1e3);
    lat_us.add(wall0, busy / 1e3);
    lat90_us.add(wall0, busy / 1e3);
    rate.add(wall0, step_flops / static_cast<double>(busy));
    if (sampled(opt.seed, step, kCheckEvery)) {
      bool ok = true;
      for (StepOp& op : st->ops) {
        ok = op.check(check_rng) && ok;
      }
      wrong += ok ? 0 : 1;
    }
  }
  const iatf::EngineStats e1 = st->engine->stats();
  out.attempted += step;
  out.failed += failed + wrong;
  out.wrong += wrong;

  std::size_t step_bytes = 0;
  for (const StepOp& op : st->ops) {
    step_bytes += op.bytes;
  }
  std::printf("compact: %zu ops per step, %.1f MFLOP per step; largest "
              "descriptor %zu B vs L2 %zu B; step working set %zu B vs LLC "
              "%zu B\n",
              st->ops.size(), step_flops / 1e6, kDescBytes,
              iatf::CacheInfo::detect().l2, step_bytes, llc_bytes());

  rep.set("setup_s", median(setup_s), "s");
  rep.set("gflops", rate.figure(50, kRateQuartile, kCompactWindowSteps),
          "GFLOPS");
  rep.set("latency_p50_us",
          lat_us.figure(50, kTimeQuartile, kCompactWindowSteps), "us");
  rep.set("latency_p90_us",
          lat90_us.figure(90, kTimeQuartile, kMinWindowSamples), "us");
  if (!opt.trace) {
    return;
  }
  rep.set("setup.engine_ms", median(engine_ms), "ms");
  rep.set("setup.serve_ms", median(front_ms), "ms");
  rep.set("setup.warm_ms", median(warm_ms), "ms");
  set_engine_counts(rep, *st->engine, e0, e1);
  rep.set("factor.packed_reuse_hits",
          delta(e0.packed_reuse_hits, e1.packed_reuse_hits), "count");
  rep.set("factor.packed_repacks",
          delta(e0.packed_repacks, e1.packed_repacks), "count");
  rep.set("e2e.latency_p99_us", percentile(step_us, 99), "us");
  rep.set("gen.late_p99_us", percentile(gap_us, 99), "us");
  rep.set("gen.late_max_us", max_of(gap_us), "us");
  tracer.write_summary(opt.out_dir + "/perfbench-trace-compact.json");
}

} // namespace perfbench
