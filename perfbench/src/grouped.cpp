// `grouped`: the only workload where `parallel` works. A library caller
// with ThreadPool(kGroupedWorkers) attached to its engine runs a closed
// loop of gemm_grouped and trsm_grouped calls over ragged segment lists
// (per-segment batch n from 4 to 256), so a change to the pool grain or
// to skipping the pool shows here and nowhere else. Threads: the caller
// plus the pool's workers. A request is one grouped call.
#include <cstdio>
#include <memory>
#include <random>

#include "grouped_calls.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

void run_grouped(const Options& opt, Report& rep, Outcome& out) {
  const GroupedInputs in(opt.seed);
  struct Stack {
    std::unique_ptr<iatf::Engine> engine;
    std::unique_ptr<iatf::ThreadPool> pool;
    std::unique_ptr<GroupedCalls> calls;
  };
  std::vector<double> setup_s, engine_ms, front_ms, warm_ms;
  Stack st;
  for (int r = 0; r < kSetupReps; ++r) {
    st = Stack{};
    const std::int64_t t0 = now_ns();
    st.engine = std::make_unique<iatf::Engine>();
    const std::int64_t t1 = now_ns();
    st.pool = std::make_unique<iatf::ThreadPool>(kGroupedWorkers);
    st.engine->set_thread_pool(st.pool.get());
    st.calls = std::make_unique<GroupedCalls>(in);
    const std::int64_t t2 = now_ns();
    for (std::size_t c = 0; c < st.calls->size(); ++c) { // first touch
      st.calls->restore(c);
      st.calls->run(*st.engine, c);
    }
    const std::int64_t t3 = now_ns();
    setup_s.push_back((t3 - t0) / 1e9);
    engine_ms.push_back((t1 - t0) / 1e6);
    front_ms.push_back((t2 - t1) / 1e6);
    warm_ms.push_back((t3 - t2) / 1e6);
  }
  const iatf::EngineStats e0 = st.engine->stats();

  std::mt19937_64 check_rng(opt.seed ^ 0xfeed);
  std::vector<double> call_us, gap_us;
  double cycle_flops = 0, cycle_ns = 0;
  std::uint64_t calls = 0, failed = 0, wrong = 0;
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(opt.seconds * 0.9e9);
  SampleWindows lat_us(start, end, kWindows);
  SampleWindows cycle_gflops(start, end, kWindows);
  std::int64_t prev_done = now_ns();
  Tracer tracer(opt.trace);
  while (now_ns() < end) {
    const std::size_t c = calls % st.calls->size();
    st.calls->restore(c);
    const std::int64_t t0 = now_ns();
    gap_us.push_back((t0 - prev_done) / 1e3);
    ++calls;
    const std::int32_t span = tracer.begin(
        in.specs[c].trsm ? "sched.trsm_grouped" : "sched.gemm_grouped", -1,
        static_cast<std::uint32_t>(calls));
    try {
      st.calls->run(*st.engine, c);
      tracer.end(span);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grouped: call failed: %s\n", e.what());
      ++failed;
      prev_done = now_ns();
      continue;
    }
    const std::int64_t t1 = now_ns();
    call_us.push_back((t1 - t0) / 1e3);
    lat_us.add(t0, (t1 - t0) / 1e3);
    cycle_flops += st.calls->flops(c);
    cycle_ns += static_cast<double>(t1 - t0);
    if (c + 1 == st.calls->size()) {
      cycle_gflops.add(t1, cycle_flops / cycle_ns);
      cycle_flops = cycle_ns = 0;
    }
    if (sampled(opt.seed, calls, 16)) {
      wrong += st.calls->check(c, check_rng) ? 0 : 1;
    }
    prev_done = now_ns();
  }
  const iatf::EngineStats e1 = st.engine->stats();
  out.attempted += calls;
  out.failed += failed + wrong;
  out.wrong += wrong;

  std::printf("grouped: %zu call templates, %.1f segments per call, "
              "batches 4..256, ThreadPool(%u); working set %zu B vs LLC "
              "%zu B\n",
              st.calls->size(), st.calls->segments_per_call(),
              kGroupedWorkers, st.calls->bytes(), llc_bytes());

  rep.set("setup_s", median(setup_s), "s");
  // One rate per cycle of the 32 call lists: a handful per window.
  rep.set("gflops", cycle_gflops.figure(50, kRateQuartile, 5), "GFLOPS");
  rep.set("latency_p50_us",
          lat_us.figure(50, kTimeQuartile, kMinWindowSamples), "us");
  rep.set("latency_p90_us",
          lat_us.figure(90, kTimeQuartile, kMinWindowSamples), "us");
  if (!opt.trace) {
    return;
  }
  rep.set("setup.engine_ms", median(engine_ms), "ms");
  rep.set("setup.serve_ms", median(front_ms), "ms");
  rep.set("setup.warm_ms", median(warm_ms), "ms");
  set_engine_counts(rep, *st.engine, e0, e1);
  rep.set("e2e.latency_p99_us", percentile(call_us, 99), "us");
  rep.set("gen.late_p99_us", percentile(gap_us, 99), "us");
  rep.set("gen.late_max_us", max_of(gap_us), "us");
  tracer.write_summary(opt.out_dir + "/perfbench-trace-grouped.json");
}

} // namespace perfbench
