// `ragged`: multi-tenant in-process serving. Four tenants share one
// serve::Server; every request converts its caller-owned column-major
// operands with to_compact, submits, and converts C back with
// from_compact in its completion. Kernels are cheap here: the time goes
// to conversion, queueing, coalescing, plan lookups and per-call work.
// BENCHMARK.json does not gate it: its latency moved more from run to run
// than the bounds allow (README, "Host noise").
//
// Phases: an open-loop latency phase at kRaggedRate (Poisson arrivals,
// latency timed from each request's due time), then a saturation phase
// holding kRaggedOutstanding requests in flight. Threads: the generator
// (this thread) and the server's dispatcher, both on one CPU (OneCpu in
// common.hpp): the generator yields while it waits, so the dispatcher
// runs whenever it has work, and a request costs context switches rather
// than vCPU wake-ups.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "iatf/core/engine.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/serve/server.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using iatf::CompactBuffer;

struct Record {
  std::uint32_t desc = 0;
  std::uint64_t index = 0;
  std::int64_t due = 0, sent = 0, imported = 0, submitted = 0;
  std::int64_t export_start = 0, done = 0;
  iatf::Status status = iatf::Status::Ok;
};

struct Slot {
  std::atomic<bool> busy{false};
  Record rec;
  CompactBuffer<float> fa, fb, fc;
  CompactBuffer<double> da, db, dc;
  std::vector<float> fout;
  std::vector<double> dout;

  template <class T> CompactBuffer<T>& a() {
    if constexpr (std::is_same_v<T, float>) {
      return fa;
    } else {
      return da;
    }
  }
  template <class T> CompactBuffer<T>& b() {
    if constexpr (std::is_same_v<T, float>) {
      return fb;
    } else {
      return db;
    }
  }
  template <class T> CompactBuffer<T>& c() {
    if constexpr (std::is_same_v<T, float>) {
      return fc;
    } else {
      return dc;
    }
  }
  template <class T> std::vector<T>& out() {
    if constexpr (std::is_same_v<T, float>) {
      return fout;
    } else {
      return dout;
    }
  }
};

/// Engine + server, built together so set-up can be repeated and timed.
struct Stack {
  std::unique_ptr<iatf::Engine> engine;
  std::unique_ptr<iatf::serve::Server> server;
  double engine_ms = 0, warm_ms = 0, serve_ms = 0;
};

class RequestLoop : public Harvest<Record> {
public:
  RequestLoop(const RequestStream& stream, std::uint64_t seed)
      : Harvest(stream, seed), slots_(kSlots) {}

  /// Issue descriptor `d` as request `index`, due at `due`.
  void issue(iatf::serve::Server& server, std::uint32_t d,
             std::uint64_t index, std::int64_t due) {
    Slot& slot = slots_[index % kSlots];
    while (slot.busy.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (slot.rec.done != 0) {
      harvest(slot);
    }
    slot.rec = Record{};
    slot.rec.desc = d;
    slot.rec.index = index;
    slot.rec.due = due;
    slot.busy.store(true, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    const GemmOperands& op = stream_.pool()[d];
    if (op.desc.dtype == 's') {
      submit<float>(server, slot, op);
    } else {
      submit<double>(server, slot, op);
    }
  }

  int inflight() const { return inflight_.load(std::memory_order_acquire); }

  /// Wait for every request, then harvest all slots.
  void finish() {
    while (inflight() != 0) {
      std::this_thread::yield();
    }
    for (Slot& s : slots_) {
      if (s.rec.done != 0) {
        harvest(s);
      }
    }
  }

private:
  static constexpr std::size_t kSlots = 256;

  template <class T>
  void submit(iatf::serve::Server& server, Slot& slot,
              const GemmOperands& op) {
    const GemmDesc& g = op.desc;
    slot.rec.sent = now_ns();
    slot.a<T>() = iatf::to_compact<T>(op.a<T>().data(), g.rows_a(),
                                      g.cols_a(), g.rows_a(),
                                      g.rows_a() * g.cols_a(), g.batch);
    slot.b<T>() = iatf::to_compact<T>(op.b<T>().data(), g.rows_b(),
                                      g.cols_b(), g.rows_b(),
                                      g.rows_b() * g.cols_b(), g.batch);
    slot.c<T>() = iatf::to_compact<T>(op.c<T>().data(), g.m, g.n, g.m,
                                      g.m * g.n, g.batch);
    slot.out<T>().resize(static_cast<std::size_t>(g.m * g.n * g.batch));
    slot.rec.imported = now_ns();
    iatf::serve::SubmitOptions so;
    so.tenant = static_cast<std::uint32_t>(slot.rec.index % kRaggedTenants);
    Slot* sp = &slot;
    std::atomic<int>* inflight = &inflight_;
    (void)server.submit_gemm<T>(
        g.op_a, g.op_b, T(g.alpha), slot.a<T>(), slot.b<T>(), T(g.beta),
        slot.c<T>(), so,
        [sp, inflight, m = g.m, n = g.n](iatf::Status st,
                                         const iatf::BatchHealth&) {
          sp->rec.export_start = now_ns();
          if (st == iatf::Status::Ok) {
            iatf::from_compact<T>(sp->c<T>(), sp->out<T>().data(), m, m * n);
          }
          sp->rec.status = st;
          sp->rec.done = now_ns();
          sp->busy.store(false, std::memory_order_release);
          inflight->fetch_sub(1, std::memory_order_release);
        });
    slot.rec.submitted = now_ns();
  }

  void harvest(Slot& slot) {
    add(slot.rec, slot.rec.desc, slot.rec.index, slot.rec.done,
        slot.rec.status == iatf::Status::Ok, [&](Sample& s) {
          if (stream_.pool()[slot.rec.desc].desc.dtype == 's') {
            s.f = slot.fout;
          } else {
            s.d = slot.dout;
          }
        });
    slot.rec.done = 0;
  }

  std::vector<Slot> slots_;
  std::atomic<int> inflight_{0};
};

Stack build_stack(const RequestStream& stream, std::uint64_t seed) {
  Stack s;
  std::int64_t t0 = now_ns();
  s.engine = std::make_unique<iatf::Engine>();
  std::int64_t t1 = now_ns();
  s.server = std::make_unique<iatf::serve::Server>(*s.engine);
  std::int64_t t2 = now_ns();
  // First touch: every descriptor once (plan builds, kernel canaries).
  RequestLoop warm(stream, seed);
  for (std::uint32_t d = 0; d < stream.pool().size(); ++d) {
    warm.issue(*s.server, d, d, now_ns());
    warm.finish();
  }
  std::int64_t t3 = now_ns();
  s.engine_ms = (t1 - t0) / 1e6;
  s.serve_ms = (t2 - t1) / 1e6;
  s.warm_ms = (t3 - t2) / 1e6;
  return s;
}

} // namespace

void run_ragged(const Options& opt, Report& rep, Outcome& out) {
  const OneCpu pin;
  const RequestStream proto(opt.seed);
  std::vector<Stack> setups;
  std::vector<double> setup_s, engine_ms, serve_ms, warm_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    setups.clear(); // the previous stack is torn down outside the timing
    const std::int64_t t0 = now_ns();
    setups.push_back(build_stack(proto, opt.seed));
    setup_s.push_back((now_ns() - t0) / 1e9);
    engine_ms.push_back(setups.back().engine_ms);
    serve_ms.push_back(setups.back().serve_ms);
    warm_ms.push_back(setups.back().warm_ms);
  }
  Stack& st = setups.back();
  RequestStream stream(opt.seed);
  std::uint64_t index = 0;
  const iatf::EngineStats e0 = st.engine->stats();
  const iatf::serve::ServerStats s0 = st.server->stats();

  // Latency phase: open loop, Poisson arrivals at kRaggedRate.
  RequestLoop lat_loop(stream, opt.seed);
  std::mt19937_64 arrivals(opt.seed ^ 0xa11ce);
  std::exponential_distribution<double> gap(kRaggedRate / 1e9);
  const std::int64_t lat_start = now_ns() + 1000000;
  const std::int64_t lat_end =
      lat_start + static_cast<std::int64_t>(opt.seconds * 0.5e9);
  std::int64_t due = lat_start;
  while (due < lat_end) {
    const std::uint32_t d = stream.next();
    while (now_ns() < due) {
      std::this_thread::yield();
    }
    lat_loop.issue(*st.server, d, index++, due);
    due += static_cast<std::int64_t>(gap(arrivals));
  }
  lat_loop.finish();
  LateTracker lat;
  SampleWindows lat_us(lat_start, lat_end, kWindows);
  for (const Record& r : lat_loop.records()) {
    lat.record(r.due, r.sent, r.done);
    lat_us.add(r.due, (r.done - r.due) / 1e3);
  }

  // Saturation phase: kRaggedOutstanding in flight, closed loop.
  RequestLoop sat_loop(stream, opt.seed);
  const std::int64_t sat_start = now_ns();
  const std::int64_t sat_end =
      sat_start + static_cast<std::int64_t>(opt.seconds * 0.4e9);
  Windows windows(sat_start, sat_end, kWindows);
  sat_loop.count_into(&windows);
  std::size_t queue_max = 0;
  while (now_ns() < sat_end) {
    while (sat_loop.inflight() >= kRaggedOutstanding) {
      std::this_thread::yield();
    }
    if (opt.trace && index % 64 == 0) {
      queue_max = std::max(queue_max, st.server->stats().queued);
    }
    sat_loop.issue(*st.server, stream.next(), index++, now_ns());
  }
  sat_loop.finish();
  const iatf::EngineStats e1 = st.engine->stats();
  const iatf::serve::ServerStats s1 = st.server->stats();

  const std::uint64_t wrong = check_samples(stream, lat_loop.samples()) +
                              check_samples(stream, sat_loop.samples());
  const std::uint64_t attempted = lat_loop.count() + sat_loop.count();
  out.attempted += attempted;
  out.failed += lat_loop.failed() + sat_loop.failed() + wrong;
  out.wrong += wrong;

  print_census("ragged", stream.census(), stream.working_set_bytes());
  std::printf("ragged: rate %.0f req/s, %d tenants, %d outstanding in "
              "saturation; %zu samples checked vs iatf::ref\n",
              kRaggedRate, kRaggedTenants, kRaggedOutstanding,
              lat_loop.samples().size() + sat_loop.samples().size());

  rep.set("setup_s", median(setup_s), "s");
  rep.set("latency_p50_us",
          lat_us.figure(50, kTimeQuartile, kMinWindowSamples), "us");
  rep.set("latency_p90_us",
          lat_us.figure(90, kTimeQuartile, kMinWindowSamples), "us");
  rep.set("gflops", windows.rate(kRateQuartile), "GFLOPS");
  if (!opt.trace) {
    return;
  }
  rep.set("setup.engine_ms", median(engine_ms), "ms");
  rep.set("setup.serve_ms", median(serve_ms), "ms");
  rep.set("setup.warm_ms", median(warm_ms), "ms");
  set_engine_counts(rep, *st.engine, e0, e1);
  set_serve_counts(rep, s0, s1);
  rep.set("serve.queue_depth_max", static_cast<double>(queue_max), "count");
  rep.set("e2e.latency_p99_us", percentile(lat.latency_ns(), 99) / 1e3, "us");
  rep.set("gen.late_p99_us", lat.late_p99_ns() / 1e3, "us");
  rep.set("gen.late_max_us", lat.late_max_ns() / 1e3, "us");
  // Spans from each latency-phase request's stage timestamps.
  Tracer tracer(true);
  std::uint32_t req = 0;
  for (const Record& r : lat_loop.records()) {
    const std::int32_t root = tracer.begin("ragged.request", -1, req);
    tracer.at(root, r.due, r.done);
    tracer.at(tracer.begin("gen.late", root, req), r.due, r.sent);
    tracer.at(tracer.begin("layout.import", root, req), r.sent, r.imported);
    // On one CPU the dispatcher can preempt the generator inside
    // submit_gemm and finish the request before the call returns, so the
    // hand-off ends at whichever comes first.
    const std::int64_t handed = std::min(r.submitted, r.export_start);
    tracer.at(tracer.begin("serve.submit", root, req), r.imported, handed);
    tracer.at(tracer.begin("serve.queue_execute", root, req), handed,
              r.export_start);
    tracer.at(tracer.begin("layout.export", root, req), r.export_start,
              r.done);
    ++req;
  }
  tracer.write_summary(opt.out_dir + "/perfbench-trace-ragged.json");
}

} // namespace perfbench
