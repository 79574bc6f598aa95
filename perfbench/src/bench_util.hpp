// Pure measurement logic of the benchmark: percentiles, flop counts,
// open-loop lateness accounting, span self time and the workload census.
// Nothing here touches the library or the clock, so every function is
// covered by perfbench/tests/test_bench_util.cpp on known samples.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Order statistics -----------------------------------------------------

/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (the "type 7" rule: rank = p/100 * (n-1)). Returns 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

// ---- Sampling ---------------------------------------------------------------

/// Seeded per-request sampling for the correctness gate: about 1 in
/// `every` requests, chosen by a hash of (seed, request index).
inline bool sampled(std::uint64_t seed, std::uint64_t i, std::uint64_t every) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + i;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x % every == 0;
}

// ---- Flop counts (the paper's per-op accounting, real types) --------------

/// C = alpha op(A) op(B) + beta C: one multiply-add per (i, j, l) triple.
inline double gemm_flops(double m, double n, double k, double batch) {
  return 2.0 * m * n * k * batch;
}

/// Triangular solve with an a x a triangle against `other` right-hand
/// sides: a*a*other/2 multiply-adds. Left: a = m, other = n; Right:
/// a = n, other = m.
inline double trsm_flops(bool left, double m, double n, double batch) {
  const double a = left ? m : n;
  const double other = left ? n : m;
  return a * a * other * batch;
}

/// Cholesky of an m x m matrix: m^3/3 + m^2/2 + m/6 flops (LAPACK count).
inline double potrf_flops(double m, double batch) {
  return (m * m * m / 3.0 + m * m / 2.0 + m / 6.0) * batch;
}

// ---- Open-loop lateness ---------------------------------------------------

/// Accounting for a request generator. A request is due at `due_ns` and
/// was sent at `sent_ns`; it completed at `done_ns`. Latency is charged
/// from the due time (so a generator stall is charged to the requests it
/// delayed), and lateness = sent - due (never negative) says how far the
/// generator fell behind its schedule. In a closed loop the due time is
/// the previous request's completion.
class LateTracker {
public:
  void record(std::int64_t due_ns, std::int64_t sent_ns,
              std::int64_t done_ns) {
    late_ns_.push_back(
        static_cast<double>(std::max<std::int64_t>(0, sent_ns - due_ns)));
    latency_ns_.push_back(static_cast<double>(done_ns - due_ns));
  }
  const std::vector<double>& latency_ns() const { return latency_ns_; }
  const std::vector<double>& late_ns() const { return late_ns_; }
  double late_p99_ns() const { return percentile(late_ns_, 99.0); }
  double late_max_ns() const {
    return late_ns_.empty()
               ? 0.0
               : *std::max_element(late_ns_.begin(), late_ns_.end());
  }

private:
  std::vector<double> late_ns_;
  std::vector<double> latency_ns_;
};

// ---- Time windows -----------------------------------------------------------
//
// The host this benchmark was made on dips for a second or two at a time
// (per-250 ms GEMM throughput ranged 5.4-9.3 GFLOPS within one minute),
// and interference only ever slows a run down. So every timed phase is cut
// into equal time windows, each figure is computed per window, and a
// quartile across windows is reported: the first quartile for times, the
// third for rates. A dip then moves the windows it covers, not the figure,
// while a change to the program moves every window.

/// Work completed per window (by completion time). Stores only one sum
/// per window, so memory does not grow with throughput.
class Windows {
public:
  Windows(std::int64_t start_ns, std::int64_t end_ns, int count)
      : start_(start_ns),
        width_(static_cast<double>(end_ns - start_ns) / count),
        work_(static_cast<std::size_t>(count), 0.0) {}
  /// Work completed at `t_ns`; ignored outside the phase.
  void add(std::int64_t t_ns, double work) {
    const double w = static_cast<double>(t_ns - start_) / width_;
    if (w >= 0 && w < static_cast<double>(work_.size())) {
      work_[static_cast<std::size_t>(w)] += work;
    }
  }
  /// The q-th percentile across windows of work per ns.
  double rate(double q) const {
    std::vector<double> r;
    for (double w : work_) {
      r.push_back(w / width_);
    }
    return percentile(r, q);
  }

private:
  std::int64_t start_;
  double width_;
  std::vector<double> work_;
};

/// Samples (latencies, per-step rates) kept per window.
class SampleWindows {
public:
  SampleWindows(std::int64_t start_ns, std::int64_t end_ns, int count)
      : start_(start_ns),
        width_(static_cast<double>(end_ns - start_ns) / count),
        samples_(static_cast<std::size_t>(count)) {}
  /// A sample taken at `t_ns`; ignored outside the phase.
  void add(std::int64_t t_ns, double value) {
    const double w = static_cast<double>(t_ns - start_) / width_;
    if (w >= 0 && w < static_cast<double>(samples_.size())) {
      samples_[static_cast<std::size_t>(w)].push_back(value);
    }
  }
  /// The p-th percentile of each window holding at least `min_samples`,
  /// then the q-th percentile across those windows. With no such window,
  /// the p-th percentile of all samples.
  double figure(double p, double q, std::size_t min_samples) const {
    std::vector<double> per_window, all;
    for (const std::vector<double>& w : samples_) {
      if (w.size() >= min_samples) {
        per_window.push_back(percentile(w, p));
      }
      all.insert(all.end(), w.begin(), w.end());
    }
    return per_window.empty() ? percentile(all, p)
                              : percentile(per_window, q);
  }

private:
  std::int64_t start_;
  double width_;
  std::vector<std::vector<double>> samples_;
};

// ---- Spans ------------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same log (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (children are clipped to the parent and their
/// overlaps are counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const std::int64_t a = std::max(s.start_ns, p.start_ns);
      const std::int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
      }
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) {
        covered += cur_b - cur_a;
      }
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) {
      covered += cur_b - cur_a;
    }
    out[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return out;
}

/// Per-name aggregate of a span log: count, total and median self time.
struct SpanSummary {
  std::size_t count = 0;
  double total_self_ns = 0;
  double median_self_ns = 0;
};

inline std::map<std::string, SpanSummary>
summarize_spans(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(static_cast<double>(self[i]));
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, v] : by_name) {
    SpanSummary s;
    s.count = v.size();
    for (double x : v) {
      s.total_self_ns += x;
    }
    s.median_self_ns = median(v);
    out[name] = s;
  }
  return out;
}

// ---- Workload census --------------------------------------------------------

/// One descriptor of a workload's pool as the census sees it, with the
/// number of requests that used it.
struct CensusItem {
  std::uint32_t descriptor = 0; ///< index into the workload's pool
  char dtype = 'd';
  std::uint8_t mode = 0;  ///< op_a*2 + op_b for GEMM (NN, NT, TN, TT)
  int size = 0;           ///< largest of m, n, k
  double payload_bytes = 0;
  std::uint64_t requests = 1;
};

/// percentile() over values repeated count times each, without expanding
/// them: the same type-7 rank, found by walking the cumulative counts.
inline double weighted_percentile(
    std::vector<std::pair<double, std::uint64_t>> v, double p) {
  std::uint64_t n = 0;
  for (const auto& e : v) {
    n += e.second;
  }
  if (n == 0) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Value at 0-based position i of the expanded, sorted sample.
  const auto at = [&v](std::uint64_t i) {
    for (const auto& [value, count] : v) {
      if (i < count) {
        return value;
      }
      i -= count;
    }
    return v.back().first;
  };
  const double a = at(lo);
  const double b = at(std::min(lo + 1, n - 1));
  return a + (b - a) * frac;
}

/// Size class of a request: 0 for <= 8, 1 for 9..16, 2 for 17..33.
inline int size_class(int size) { return size <= 8 ? 0 : size <= 16 ? 1 : 2; }

/// Exact counts over the issued requests; shares are count / requests.
struct Census {
  std::size_t requests = 0;
  std::size_t distinct_descriptors = 0;
  std::array<std::size_t, 3> size_class{}; ///< <=8, 9..16, 17..33
  std::size_t dtype_s = 0, dtype_d = 0;
  std::array<std::size_t, 4> modes{}; ///< NN, NT, TN, TT
  Quartiles payload;
};

inline Census take_census(const std::vector<CensusItem>& items) {
  Census c;
  std::vector<std::uint32_t> ids;
  std::vector<std::pair<double, std::uint64_t>> bytes;
  for (const CensusItem& it : items) {
    if (it.requests == 0) {
      continue;
    }
    c.requests += it.requests;
    ids.push_back(it.descriptor);
    bytes.emplace_back(it.payload_bytes, it.requests);
    c.size_class[static_cast<std::size_t>(size_class(it.size))] +=
        it.requests;
    (it.dtype == 's' ? c.dtype_s : c.dtype_d) += it.requests;
    c.modes[it.mode & 3u] += it.requests;
  }
  std::sort(ids.begin(), ids.end());
  c.distinct_descriptors = static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  c.payload = {weighted_percentile(bytes, 25), weighted_percentile(bytes, 50),
               weighted_percentile(bytes, 75)};
  return c;
}

} // namespace perfbench
