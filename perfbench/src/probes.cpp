// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from the benchmark's own code, on the run's
// seeded inputs, and fills the per-layer metrics the workload did not
// measure itself. Every traced run reports every per-layer metric.
#include <algorithm>
#include <array>
#include <future>
#include <unistd.h>

#include "grouped_calls.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/net/client.hpp"
#include "iatf/net/reactor.hpp"
#include "iatf/net/wire.hpp"
#include "iatf/pack/gemm_pack.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/serve/server.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {

void set_engine_counts(Report& rep, const iatf::Engine& engine,
                       const iatf::EngineStats& e0,
                       const iatf::EngineStats& e1) {
  rep.set("core.plan_hits", delta(e0.hits, e1.hits), "count");
  rep.set("core.plan_misses", delta(e0.misses, e1.misses), "count");
  rep.set("core.plan_builds", delta(e0.builds, e1.builds), "count");
  rep.set("core.plan_evictions", delta(e0.evictions, e1.evictions), "count");
  const iatf::EngineHealth h = engine.health();
  rep.set("resilience.quarantined", static_cast<double>(h.quarantined_kernels),
          "count");
  rep.set("resilience.breaker_open", static_cast<double>(h.breaker_open),
          "count");
  rep.set("resilience.degraded_calls",
          delta(e0.degraded_calls, e1.degraded_calls), "count");
}

void set_serve_counts(Report& rep, const iatf::serve::ServerStats& s0,
                      const iatf::serve::ServerStats& s1) {
  const double calls = delta(s0.dispatch_calls, s1.dispatch_calls);
  const double done = delta(s0.completed, s1.completed);
  rep.set("serve.dispatch_calls", calls, "count");
  rep.set("serve.coalesce_ratio", calls > 0 ? done / calls : 0, "req/call");
  rep.set("serve.shed",
          static_cast<double>(s1.shed_expired + s1.shed_overflow -
                              s0.shed_expired - s0.shed_overflow),
          "count");
  rep.set("serve.cancelled", delta(s0.cancelled, s1.cancelled), "count");
}

void set_net_counts(Report& rep, const iatf::net::NetStats& n0,
                    const iatf::net::NetStats& n1) {
  const double bytes = delta(n0.bytes_in + n0.bytes_out,
                             n1.bytes_in + n1.bytes_out);
  rep.set("net.bytes_per_req",
          bytes / std::max(1.0, delta(n0.results, n1.results)), "B");
  rep.set("net.wire_errors", delta(n0.wire_errors, n1.wire_errors), "count");
  rep.set("net.slow_closes", delta(n0.slow_closes, n1.slow_closes), "count");
}

namespace {

using iatf::CompactBuffer;
using iatf::index_t;
using iatf::Op;
using namespace std::chrono_literals;

/// How far the medians of the net stage ledger may miss net.rtt_us.
constexpr double kStageSumTolerancePct = 10;

/// Median over `reps` timings of f(), in ns.
template <class F> double median_ns(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t);
}

void set_if_absent(Report& rep, const std::string& name, double v,
                   const std::string& unit) {
  if (!rep.has(name)) {
    rep.set(name, v, unit);
  }
}

iatf::GemmShape shape_of(const GemmDesc& g) {
  return {g.m, g.n, g.k, g.op_a, g.op_b, g.batch};
}

// ---- core: plan cache and dispatch ----------------------------------------

void probe_core(const RequestStream& stream, Report& rep) {
  iatf::Engine eng;
  std::vector<double> build_ns;
  for (const GemmOperands& op : stream.pool()) {
    const iatf::GemmShape sh = shape_of(op.desc);
    const std::int64_t t0 = now_ns();
    if (op.desc.dtype == 's') {
      (void)eng.plan_gemm<float>(sh);
    } else {
      (void)eng.plan_gemm<double>(sh);
    }
    build_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  const double per_round = median_ns(20, [&] {
    for (const GemmOperands& op : stream.pool()) {
      const iatf::GemmShape sh = shape_of(op.desc);
      if (op.desc.dtype == 's') {
        (void)eng.plan_gemm<float>(sh);
      } else {
        (void)eng.plan_gemm<double>(sh);
      }
    }
  });
  rep.set("core.plan_build_us", median(build_ns) / 1e3, "us");
  rep.set("core.plan_hit_ns",
          per_round / static_cast<double>(stream.pool().size()), "ns");

  // Dispatch: Engine::gemm minus GemmPlan::execute at 1x1x1, batch 1.
  CompactBuffer<double> a(1, 1, 1), b(1, 1, 1), c(1, 1, 1);
  a.set(0, 0, 0, 1.5);
  b.set(0, 0, 0, 2.0);
  const auto plan =
      eng.plan_gemm<double>({1, 1, 1, Op::NoTrans, Op::NoTrans, 1});
  constexpr int kInner = 200;
  const double via_engine = median_ns(50, [&] {
    for (int i = 0; i < kInner; ++i) {
      eng.gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, c);
    }
  });
  const double via_plan = median_ns(50, [&] {
    for (int i = 0; i < kInner; ++i) {
      plan->execute(a, b, c, 1.0, 0.0);
    }
  });
  rep.set("core.dispatch_ns", (via_engine - via_plan) / kInner, "ns");
}

// ---- kernels and pack ------------------------------------------------------

template <class T>
double gemm_class_gflops(iatf::Engine& eng,
                         const std::array<int, 3>& sizes) {
  double flops = 0, ns = 0;
  for (int m : sizes) {
    const index_t batch =
        std::max<index_t>(4, (1 << 20) / (3 * m * m * sizeof(T)));
    CompactBuffer<T> a(m, m, batch), b(m, m, batch), c(m, m, batch);
    std::fill(a.data(), a.data() + a.size(), T(0.5));
    std::fill(b.data(), b.data() + b.size(), T(0.25));
    const auto plan =
        eng.plan_gemm<T>({m, m, m, Op::NoTrans, Op::NoTrans, batch});
    plan->execute(a, b, c, T(1), T(0));
    ns += median_ns(7, [&] { plan->execute(a, b, c, T(1), T(0)); });
    flops += gemm_flops(m, m, m, batch);
  }
  return flops / ns;
}

template <class T> double trsm_gflops(iatf::Engine& eng) {
  double flops = 0, ns = 0;
  for (int m : {4, 12, 24}) {
    const index_t batch =
        std::max<index_t>(4, (1 << 20) / (2 * m * m * sizeof(T)));
    CompactBuffer<T> a(m, m, batch), b(m, m, batch);
    for (index_t l = 0; l < batch; ++l) {
      for (int i = 0; i < m; ++i) {
        a.set(l, i, i, T(1));
      }
    }
    std::fill(b.data(), b.data() + b.size(), T(1));
    const auto plan =
        eng.plan_trsm<T>({m, m, iatf::Side::Left, iatf::Uplo::Lower,
                          Op::NoTrans, iatf::Diag::NonUnit, batch});
    plan->execute(a, b, T(1));
    ns += median_ns(7, [&] { plan->execute(a, b, T(1)); });
    flops += trsm_flops(true, m, m, batch);
  }
  return flops / ns;
}

void probe_kernels(Report& rep) {
  iatf::Engine eng;
  // Size classes <= 8, 9..16 and 17..33, three sizes each.
  const std::pair<const char*, std::array<int, 3>> classes[] = {
      {"small", {3, 5, 8}}, {"mid", {10, 13, 16}}, {"large", {20, 27, 33}}};
  for (const auto& [name, sizes] : classes) {
    const std::string suffix = std::string(name) + "_gflops";
    rep.set("kernels.gemm_s_" + suffix, gemm_class_gflops<float>(eng, sizes),
            "GFLOPS");
    rep.set("kernels.gemm_d_" + suffix, gemm_class_gflops<double>(eng, sizes),
            "GFLOPS");
  }
  rep.set("kernels.trsm_s_gflops", trsm_gflops<float>(eng), "GFLOPS");
  rep.set("kernels.trsm_d_gflops", trsm_gflops<double>(eng), "GFLOPS");

  // pack_gemm_a + pack_gemm_b over every group of a 16^3 d batch.
  constexpr index_t m = 16, batch = 512;
  CompactBuffer<double> a(m, m, batch), b(m, m, batch);
  std::fill(a.data(), a.data() + a.size(), 0.5);
  std::fill(b.data(), b.data() + b.size(), 0.25);
  const auto plan =
      eng.plan_gemm<double>({m, m, m, Op::NoTrans, Op::NoTrans, batch});
  const index_t es = a.element_stride();
  std::vector<double> pa(
      static_cast<std::size_t>(iatf::pack::packed_gemm_a_size(m, m, es)));
  std::vector<double> pb(
      static_cast<std::size_t>(iatf::pack::packed_gemm_b_size(m, m, es)));
  const double ns = median_ns(9, [&] {
    for (index_t g = 0; g < a.groups(); ++g) {
      iatf::pack::pack_gemm_a<double>(a.group_data(g), m, es, Op::NoTrans,
                                      plan->m_tiles(), m, pa.data());
      iatf::pack::pack_gemm_b<double>(b.group_data(g), m, es, Op::NoTrans,
                                      plan->n_tiles(), m, pb.data());
    }
  });
  rep.set("pack.gemm_ns_per_matrix", ns / batch, "ns");
}

// ---- factor ----------------------------------------------------------------

/// SPD compact batch: the identity plus a small symmetric perturbation.
CompactBuffer<double> spd_batch(index_t m, index_t batch) {
  CompactBuffer<double> s(m, m, batch);
  for (index_t l = 0; l < batch; ++l) {
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = 0; i < m; ++i) {
        s.set(l, i, j, i == j ? 2.0 : 0.5 / static_cast<double>(m + i + j));
      }
    }
  }
  return s;
}

void probe_factor(Report& rep) {
  iatf::Engine eng;
  double flops = 0, ns = 0;
  for (index_t m : {8, 16, 24}) {
    const index_t batch = std::max<index_t>(4, (1 << 20) / (m * m * 8));
    const CompactBuffer<double> s0 = spd_batch(m, batch);
    CompactBuffer<double> s = clone(s0);
    eng.potrf_batch<double>(s);
    std::vector<double> t;
    for (int r = 0; r < 7; ++r) {
      copy_into(s, s0);
      const std::int64_t t0 = now_ns();
      eng.potrf_batch<double>(s);
      t.push_back(static_cast<double>(now_ns() - t0));
    }
    ns += median(t);
    flops += potrf_flops(m, batch);
  }
  rep.set("factor.potrf_gflops", flops / ns, "GFLOPS");

  // The potrf -> trsm chain on PackedHandles, 16 x 16, batch 256.
  constexpr index_t m = 16, batch = 256;
  const CompactBuffer<double> s0 = spd_batch(m, batch);
  CompactBuffer<double> b0(m, m, batch);
  std::fill(b0.data(), b0.data() + b0.size(), 1.0);
  auto hs = eng.adopt_packed<double>(clone(s0));
  auto hb = eng.adopt_packed<double>(clone(b0));
  const iatf::EngineStats e0 = eng.stats();
  std::vector<double> t;
  for (int r = 0; r < 15; ++r) {
    copy_into(hs.buffer(), s0);
    copy_into(hb.buffer(), b0);
    const std::int64_t t0 = now_ns();
    eng.potrf_batch<double>(hs);
    eng.trsm<double>(iatf::Side::Left, iatf::Uplo::Lower, Op::NoTrans,
                     iatf::Diag::NonUnit, 1.0, hs, hb);
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  const iatf::EngineStats e1 = eng.stats();
  rep.set("factor.chain_ms", median(t) / 1e6, "ms");
  set_if_absent(rep, "factor.packed_reuse_hits",
                delta(e0.packed_reuse_hits, e1.packed_reuse_hits), "count");
  set_if_absent(rep, "factor.packed_repacks",
                delta(e0.packed_repacks, e1.packed_repacks), "count");
}

// ---- layout, serve and net on the request stream ---------------------------

/// Compact operands of one descriptor, converted once.
struct Converted {
  CompactBuffer<float> fa, fb, fc;
  CompactBuffer<double> da, db, dc;
};

template <class T>
void convert(const GemmOperands& op, CompactBuffer<T>& a, CompactBuffer<T>& b,
             CompactBuffer<T>& c) {
  const GemmDesc& g = op.desc;
  a = iatf::to_compact<T>(op.a<T>().data(), g.rows_a(), g.cols_a(), g.rows_a(),
                          g.rows_a() * g.cols_a(), g.batch);
  b = iatf::to_compact<T>(op.b<T>().data(), g.rows_b(), g.cols_b(), g.rows_b(),
                          g.rows_b() * g.cols_b(), g.batch);
  c = iatf::to_compact<T>(op.c<T>().data(), g.m, g.n, g.m, g.m * g.n, g.batch);
}

void probe_layout_serve(const RequestStream& stream, Report& rep,
                        std::vector<double>& serve_by_desc,
                        Outcome& out) {
  const auto& pool = stream.pool();
  std::vector<double> imp, exp;
  double bytes = 0, ns = 0;
  std::vector<Converted> conv(pool.size());
  for (std::size_t d = 0; d < pool.size(); ++d) {
    const GemmOperands& op = pool[d];
    Converted& cv = conv[d];
    const std::int64_t t0 = now_ns();
    if (op.desc.dtype == 's') {
      convert<float>(op, cv.fa, cv.fb, cv.fc);
    } else {
      convert<double>(op, cv.da, cv.db, cv.dc);
    }
    const std::int64_t t1 = now_ns();
    const index_t m = op.desc.m, mn = op.desc.m * op.desc.n;
    if (op.desc.dtype == 's') {
      std::vector<float> o(op.fc.size());
      iatf::from_compact<float>(cv.fc, o.data(), m, mn);
    } else {
      std::vector<double> o(op.dc.size());
      iatf::from_compact<double>(cv.dc, o.data(), m, mn);
    }
    const std::int64_t t2 = now_ns();
    imp.push_back(static_cast<double>(t1 - t0));
    exp.push_back(static_cast<double>(t2 - t1));
    // A, B and C in, C out.
    const auto out_elems = static_cast<std::size_t>(mn * op.desc.batch);
    bytes += static_cast<double>((op.desc.elems() + out_elems) *
                                 op.desc.elem_bytes());
    ns += static_cast<double>(t2 - t0);
  }
  rep.set("layout.import_us", median(imp) / 1e3, "us");
  rep.set("layout.export_us", median(exp) / 1e3, "us");
  rep.set("layout.gbps", bytes / ns, "GB/s");

  // serve.rtt_us: in process, one outstanding, operands already converted.
  iatf::Engine eng;
  iatf::serve::Server server(eng);
  const iatf::serve::ServerStats s0 = server.stats();
  std::vector<double> rtt;
  serve_by_desc.assign(pool.size(), 0);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t d = 0; d < pool.size(); ++d) {
      const GemmDesc& g = pool[d].desc;
      Converted& cv = conv[d];
      const std::int64_t t0 = now_ns();
      std::future<iatf::BatchHealth> f =
          g.dtype == 's'
              ? server.submit_gemm<float>(g.op_a, g.op_b, float(g.alpha), cv.fa,
                                          cv.fb, float(g.beta), cv.fc)
              : server.submit_gemm<double>(g.op_a, g.op_b, g.alpha, cv.da,
                                           cv.db, g.beta, cv.dc);
      ++out.attempted;
      try {
        f.get();
      } catch (const std::exception&) {
        ++out.failed;
      }
      const double t = static_cast<double>(now_ns() - t0);
      if (round > 0) { // round 0 builds plans
        rtt.push_back(t);
        serve_by_desc[d] = round == 1 ? t : std::min(serve_by_desc[d], t);
      }
    }
  }
  rep.set("serve.rtt_us", median(rtt) / 1e3, "us");
  if (!rep.has("serve.dispatch_calls")) {
    set_serve_counts(rep, s0, server.stats());
  }
  set_if_absent(rep, "serve.queue_depth_max", 1, "count");
}

void probe_net(const RequestStream& stream, const Options& opt,
               const std::vector<double>& serve_by_desc, Report& rep,
               Outcome& out) {
  const auto& pool = stream.pool();
  iatf::Engine eng;
  iatf::serve::Server server(eng);
  iatf::net::NetConfig cfg;
  cfg.unix_path =
      opt.out_dir + "/pb-probe-" + std::to_string(::getpid()) + ".sock";
  iatf::net::NetServer net(server, cfg);
  net.start();
  iatf::net::Client client;
  client.connect_unix(cfg.unix_path);
  const iatf::net::NetStats n0 = net.stats();

  std::vector<double> rtt, enc, dec, res, unattributed, crc_ns;
  double crc_bytes = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t d = 0; d < pool.size(); ++d) {
      const GemmOperands& op = pool[d];
      const iatf::net::GemmSubmit msg = op.submit(0);
      const std::int64_t t0 = now_ns();
      client.submit_gemm(msg);
      iatf::net::Client::Reply r;
      if (!client.next_reply(r, 10000ms)) {
        throw std::runtime_error("probe: no reply within 10 s");
      }
      const double t_rtt = static_cast<double>(now_ns() - t0);
      ++out.attempted;
      if (r.type != iatf::net::FrameType::Result || r.status != 0) {
        ++out.failed;
        continue;
      }
      if (round == 0) { // round 0 builds plans
        continue;
      }
      // Replay this request's stages outside the round trip.
      std::vector<std::uint8_t> payload, frame;
      std::int64_t a = now_ns();
      iatf::net::append_gemm_submit(payload, msg);
      iatf::net::append_frame(frame, iatf::net::FrameType::SubmitGemm, 1,
                              payload);
      std::int64_t b = now_ns();
      const double t_enc = static_cast<double>(b - a);
      a = now_ns();
      iatf::net::Decoder decoder;
      decoder.feed(frame.data(), frame.size());
      iatf::net::Decoder::Event ev = decoder.next();
      iatf::net::GemmSubmit parsed;
      (void)iatf::net::parse_gemm_submit(ev.frame.payload, parsed);
      b = now_ns();
      const double t_dec = static_cast<double>(b - a);
      a = now_ns();
      std::vector<std::uint8_t> rp, rf;
      iatf::net::append_result(rp, 0, r.c);
      iatf::net::append_frame(rf, iatf::net::FrameType::Result, 1, rp);
      iatf::net::Decoder rdec;
      rdec.feed(rf.data(), rf.size());
      iatf::net::Decoder::Event rev = rdec.next();
      iatf::net::ResultMsg rm;
      (void)iatf::net::parse_result(rev.frame.payload, rm);
      const double t_res = static_cast<double>(now_ns() - a);
      a = now_ns();
      volatile std::uint32_t crc =
          iatf::net::crc32(payload.data(), payload.size());
      (void)crc;
      crc_ns.push_back(static_cast<double>(now_ns() - a));
      crc_bytes += static_cast<double>(payload.size());

      rtt.push_back(t_rtt);
      enc.push_back(t_enc);
      dec.push_back(t_dec);
      res.push_back(t_res);
      unattributed.push_back(t_rtt - t_enc - t_dec - t_res -
                             serve_by_desc[d]);
    }
  }
  const iatf::net::NetStats n1 = net.stats();
  client.goodbye();
  net.drain();
  ::unlink(cfg.unix_path.c_str());

  const double m_rtt = median(rtt);
  rep.set("net.rtt_us", m_rtt / 1e3, "us");
  rep.set("net.overhead_ratio", m_rtt / 1e3 / rep.get("serve.rtt_us"), "x");
  double crc_total = 0;
  for (double x : crc_ns) {
    crc_total += x;
  }
  rep.set("net.crc_gbps", crc_bytes / crc_total, "GB/s");
  rep.set("net.encode_us", median(enc) / 1e3, "us");
  rep.set("net.decode_us", median(dec) / 1e3, "us");
  rep.set("net.result_codec_us", median(res) / 1e3, "us");
  rep.set("net.unattributed_us", median(unattributed) / 1e3, "us");
  // Per request the stages and the remainder add up to the round trip by
  // construction; their medians need not. A ledger whose medians miss the
  // median round trip by more than kStageSumTolerancePct does not say
  // where the time goes, and the traced run fails.
  const double stage_sum = median(enc) + median(dec) + median(res) +
                           median(serve_by_desc) + median(unattributed);
  const double error_pct = std::abs(stage_sum - m_rtt) / m_rtt * 100;
  rep.set("net.stage_sum_error_pct", error_pct, "%");
  if (error_pct > kStageSumTolerancePct) {
    throw std::runtime_error(
        "net: stage medians miss the round trip by " +
        std::to_string(error_pct) + "% (tolerance " +
        std::to_string(kStageSumTolerancePct) + "%)");
  }
  if (!rep.has("net.bytes_per_req")) {
    set_net_counts(rep, n0, n1);
  }
}

// ---- sched and parallel ----------------------------------------------------

void probe_grouped(const Options& opt, Report& rep) {
  // Sequential grouped calls: sched's binning and interleaving, no pool.
  {
    const GroupedInputs in(opt.seed);
    GroupedCalls calls(in);
    iatf::Engine eng;
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < calls.size(); ++c) {
        calls.restore(c);
        const std::int64_t t0 = now_ns();
        calls.run(eng, c);
        if (r > 0) {
          t.push_back(static_cast<double>(now_ns() - t0));
        }
      }
    }
    rep.set("sched.grouped_us", median(t) / 1e3, "us");
    rep.set("sched.segments_per_call", calls.segments_per_call(), "count");
  }
  // The same grouped GEMM call without and with ThreadPool(2).
  iatf::ThreadPool pool(kGroupedWorkers);
  for (int n : {4, 16, 64, 256}) {
    CallSpec spec;
    for (int m : {4, 8, 12, 16, 20, 24}) {
      spec.segs.push_back({m, n, 0});
    }
    const GroupedInputs in(opt.seed, {spec});
    GroupedCalls calls(in);
    iatf::Engine seq, par;
    par.set_thread_pool(&pool);
    calls.run(seq, 0);
    calls.run(par, 0);
    const int reps = n <= 16 ? 200 : 40;
    const double t_seq = median_ns(reps, [&] { calls.run(seq, 0); });
    const double t_par = median_ns(reps, [&] { calls.run(par, 0); });
    rep.set("parallel.pool_speedup_n" + std::to_string(n), t_seq / t_par, "x");
  }
}

} // namespace

void run_probes(const Options& opt, Report& rep, Outcome& out) {
  const RequestStream stream(opt.seed);
  probe_core(stream, rep);
  probe_kernels(rep);
  probe_factor(rep);
  // Layout, serve and net on one CPU, as the `wire` workload runs, so a
  // round trip costs context switches rather than vCPU wake-ups.
  {
    const OneCpu pin;
    std::vector<double> serve_by_desc;
    probe_layout_serve(stream, rep, serve_by_desc, out);
    probe_net(stream, opt, serve_by_desc, rep, out);
  }
  probe_grouped(opt, rep);
}

} // namespace perfbench
