// Self-tests of the benchmark's own logic (perfbench/src/bench_util.hpp):
// percentiles and quartiles on known samples, the seeded sampling of the
// correctness gate, flop counts per op, open-loop lateness accounting,
// span self time with nested children, the census counts and the time
// windows. Plain C++ with no test framework, so the benchmark package
// needs nothing beyond a compiler:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-9 * std::max(1.0, std::abs(want))) {
    std::printf("FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect_eq(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    std::printf("FAIL %s: got %zu want %zu\n", what, got, want);
    ++failures;
  }
}

using namespace perfbench;

void test_percentiles() {
  // Type-7 rule: rank = p/100 * (n-1), linear between neighbours.
  const std::vector<double> v{5, 1, 4, 2, 3}; // sorted 1..5
  expect_near(percentile(v, 0), 1, "p0");
  expect_near(percentile(v, 50), 3, "p50 odd");
  expect_near(percentile(v, 100), 5, "p100");
  expect_near(percentile(v, 90), 4.6, "p90");
  expect_near(median({1, 2, 3, 4}), 2.5, "median even");
  const std::vector<double> nine{1, 2, 3, 4, 5, 6, 7, 8, 9};
  expect_near(percentile(nine, 25), 3, "q1");
  expect_near(percentile(nine, 75), 7, "q3");
  expect_near(percentile({1, 2, 3, 4}, 25), 1.75, "q1 between ranks");
  expect_near(percentile({}, 50), 0, "empty");
  expect_near(percentile({7}, 99), 7, "single");
}

void test_sampling() {
  std::size_t hits = 0;
  for (std::uint64_t i = 0; i < 64000; ++i) {
    hits += sampled(7, i, 64) ? 1 : 0;
    if (sampled(7, i, 64) != sampled(7, i, 64)) {
      expect_eq(0, 1, "sampling is a function of (seed, index)");
    }
  }
  // About 1 in 64: 1000 expected, well inside +-20%.
  expect_eq(hits > 800 && hits < 1200, 1, "sampling rate");
  std::size_t same = 0;
  for (std::uint64_t i = 0; i < 64000; ++i) {
    same += sampled(7, i, 64) && sampled(8, i, 64) ? 1 : 0;
  }
  expect_eq(same < 100, 1, "another seed samples other requests");
}

void test_flops() {
  expect_near(gemm_flops(2, 3, 4, 5), 2.0 * 2 * 3 * 4 * 5, "gemm");
  // Left: a = m = 4 against n = 3 columns: 4*4*3 per matrix.
  expect_near(trsm_flops(true, 4, 3, 2), 4.0 * 4 * 3 * 2, "trsm left");
  // Right: a = n = 3 against m = 4 rows: 3*3*4 per matrix.
  expect_near(trsm_flops(false, 4, 3, 2), 3.0 * 3 * 4 * 2, "trsm right");
  // potrf at m = 3: 9 + 4.5 + 0.5 = 14 flops per matrix.
  expect_near(potrf_flops(3, 10), 140, "potrf");
}

void test_lateness() {
  LateTracker t;
  t.record(100, 100, 150); // on time: latency 50, late 0
  t.record(200, 230, 260); // 30 late: latency 60 counts the stall
  t.record(300, 290, 320); // early send is never negative lateness
  expect_near(t.latency_ns()[0], 50, "latency on time");
  expect_near(t.latency_ns()[1], 60, "latency from due");
  expect_near(t.latency_ns()[2], 20, "latency early");
  expect_near(t.late_ns()[1], 30, "late");
  expect_near(t.late_ns()[2], 0, "not negative");
  expect_near(t.late_max_ns(), 30, "late max");
}

void test_self_time() {
  // root [0,100) with children a [10,40) and b [30,60) overlapping, and a
  // grandchild c [15,25) inside a; d [90,120) is clipped to the root.
  const std::vector<Span> spans{
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"b", 30, 60, 0, 0},
      {"c", 15, 25, 1, 0},     {"d", 90, 120, 0, 0},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect_near(static_cast<double>(self[0]), 100 - 50 - 10, "root self");
  expect_near(static_cast<double>(self[1]), 30 - 10, "a self");
  expect_near(static_cast<double>(self[2]), 30, "b self");
  expect_near(static_cast<double>(self[3]), 10, "leaf self");
  const auto sum = summarize_spans(spans);
  expect_eq(sum.at("root").count, 1, "summary count");
  expect_near(sum.at("a").median_self_ns, 20, "summary median");
}

void test_census() {
  // One item per descriptor, weighted by the requests that used it.
  const std::vector<CensusItem> items{
      {0, 's', 0, 4, 100, 2}, {1, 'd', 3, 9, 400, 1}, {2, 'd', 1, 33, 300, 1},
      {3, 's', 2, 16, 200, 1}, {4, 'd', 0, 5, 999, 0}, // never drawn
  };
  const Census c = take_census(items);
  expect_eq(c.requests, 5, "requests");
  expect_eq(c.distinct_descriptors, 4, "distinct");
  expect_eq(c.size_class[0], 2, "<=8");
  expect_eq(c.size_class[1], 2, "9..16");
  expect_eq(c.size_class[2], 1, "17..33");
  expect_eq(c.dtype_s, 3, "s");
  expect_eq(c.dtype_d, 2, "d");
  expect_eq(c.modes[0], 2, "NN");
  expect_eq(c.modes[1], 1, "NT");
  expect_eq(c.modes[2], 1, "TN");
  expect_eq(c.modes[3], 1, "TT");
  // Payloads 100, 100, 200, 300, 400: the same quartiles as unweighted.
  expect_near(c.payload.q1, 100, "payload q1");
  expect_near(c.payload.q2, 200, "payload median");
  expect_near(c.payload.q3, 300, "payload q3");
  expect_near(weighted_percentile({{1, 3}, {2, 1}}, 90),
              percentile({1, 1, 1, 2}, 90), "weighted matches expanded");
}

void test_windows() {
  // Phase [0, 100) in 4 windows of 25 ns; the completion at 100 is after
  // the phase and ignored.
  Windows w(0, 100, 4);
  w.add(0, 10);
  w.add(24, 15);  // window 0: 25
  w.add(30, 50);  // window 1: 50
  w.add(60, 75);  // window 2: 75
  w.add(99, 100); // window 3: 100
  w.add(100, 1000);
  // Rates 1, 2, 3, 4 per ns.
  expect_near(w.rate(50), 2.5, "median window rate");
  expect_near(w.rate(75), 3.25, "third quartile of window rates");

  // A dip: window 1's samples are all slow; the first quartile across
  // windows of the per-window medians is not moved by it.
  SampleWindows s(0, 40, 4);
  for (int i = 0; i < 5; ++i) {
    s.add(0 + i, 10 + i);  // median 12
    s.add(10 + i, 90 + i); // the dip: median 92
    s.add(20 + i, 11 + i); // median 13
    s.add(30 + i, 12 + i); // median 14
  }
  s.add(5, 1); // window 0 now has 6 samples
  // Window medians 11.5, 92, 13, 14: first quartile 12.625.
  expect_near(s.figure(50, 25, 5), 12.625, "quartile of window medians");
  // Windows with too few samples are skipped; none left: pooled.
  expect_near(s.figure(50, 25, 6), 11.5, "only window 0 qualifies");
  expect_near(s.figure(50, 25, 100), 14, "pooled fallback");
}

} // namespace

int main() {
  test_percentiles();
  test_sampling();
  test_flops();
  test_lateness();
  test_self_time();
  test_census();
  test_windows();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
