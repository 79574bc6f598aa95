// perfbench: the repository benchmark. One process runs one workload for
// --seconds, checks a seeded sample of its outputs against iatf::ref, and
// prints one JSON result as its last line:
//
//   perfbench --workload <compact|ragged|wire|grouped> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced pass plus the layer probes. Exit code
// is 0 only when every request succeeded and every checked output was
// within the suite's ULP rule.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <compact|ragged|wire|grouped> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) {
    return usage();
  }
  using Fn = void (*)(const perfbench::Options&, perfbench::Report&,
                      perfbench::Outcome&);
  Fn fn = nullptr;
  if (opt.workload == "compact") {
    fn = perfbench::run_compact;
  } else if (opt.workload == "ragged") {
    fn = perfbench::run_ragged;
  } else if (opt.workload == "wire") {
    fn = perfbench::run_wire;
  } else if (opt.workload == "grouped") {
    fn = perfbench::run_grouped;
  } else {
    return usage();
  }

  perfbench::Report rep;
  perfbench::Outcome out;
  try {
    if (!opt.trace) {
      fn(opt, rep, out);
      rep.set("rss_mb", perfbench::peak_rss_mb(), "MB");
    } else {
      // Traced run: the layer probes run after the workload, between two
      // host-drift probes. `compact` and `grouped` record spans while
      // timed, so they run untraced and then traced, 45% of the time each,
      // and the difference is the tracing overhead. `ragged` and `wire`
      // build their spans afterwards from timestamps the untraced run
      // takes anyway: one pass, and no overhead by design.
      const double calib0 = perfbench::host_calib_us();
      perfbench::Options pass = opt;
      if (opt.workload == "compact" || opt.workload == "grouped") {
        pass.seconds = opt.seconds * 0.45;
        pass.trace = false;
        perfbench::Report base;
        fn(pass, base, out);
        pass.trace = true;
        fn(pass, rep, out);
        rep.set("trace.overhead_pct",
                (rep.get("latency_p50_us") / base.get("latency_p50_us") - 1) *
                    100,
                "%");
      } else {
        pass.seconds = opt.seconds * 0.9;
        fn(pass, rep, out);
        rep.set("trace.overhead_pct", 0, "%");
      }
      for (const char* e2e : {"setup_s", "gflops", "latency_p50_us",
                              "latency_p90_us", "rss_mb"}) {
        rep.erase(e2e);
      }
      perfbench::run_probes(opt, rep, out);
      const double calib1 = perfbench::host_calib_us();
      rep.set("host.calib_us", (calib0 + calib1) / 2, "us");
      rep.set("host.calib_drift_pct", (calib1 - calib0) / calib0 * 100, "%");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", rep.json(out).c_str());
  std::fflush(stdout);
  return out.failed == 0 && out.wrong == 0 && out.attempted > 0 ? 0 : 1;
}
