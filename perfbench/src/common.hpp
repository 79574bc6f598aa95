// Shared plumbing of the benchmark workloads: options, the metric report
// and its JSON line, clocks, the host-drift probe, peak RSS, the tracer
// and the correctness rule against iatf::ref.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "iatf/common/types.hpp"
#include "iatf/layout/compact.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = "."; ///< where the traced run writes span files
};

/// Requests attempted and failed (error, shed, timeout, cancel or wrong
/// result) over the whole run; a wrong result also clears `correct`.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs the calling thread, and every thread it starts, on one CPU (the
/// last it may use: the first, usually CPU 0, takes most device
/// interrupts) until destroyed. On a virtual machine an idle vCPU
/// halts, and waking a thread on it costs a hypervisor round trip whose
/// latency drifts with the host's load; on one CPU, a request handed
/// between threads costs context switches instead (README "Host noise").
class OneCpu {
public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Metrics by name with their units, printed as the run's last line.
class Report {
public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    metrics_[name] = {value, unit};
  }
  bool has(const std::string& name) const { return metrics_.count(name); }
  double get(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }
  void erase(const std::string& name) { metrics_.erase(name); }
  /// The contract's result object: correct/attempted/failed/metrics.
  std::string json(const Outcome& out) const;

private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

/// Growth of a monotonic counter between two stats snapshots.
inline double delta(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(after - before);
}

/// Largest sample (0 for none).
inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Last-level cache bytes as the C library reports them (0 if unknown).
std::size_t llc_bytes();

/// Fixed calibration loop owned by the benchmark: a dependent
/// floating-point chain plus a 1 MiB strided walk. Its time moves only
/// when the host does, so a drifting run set is visible in host.calib_us.
double host_calib_us();

/// The suite's K-scaled ULP rule (tests/testutil.hpp ulp_tolerance):
/// eps * ulps * max(depth, 2), scaled by the reference's magnitude.
/// Returns true when every element of `got` is within it of `want`.
template <class T>
bool within_ulps(const T* want, const T* got, std::size_t count,
                 iatf::index_t depth, double ulps = 64.0) {
  const double tol = static_cast<double>(std::numeric_limits<T>::epsilon()) *
                     ulps * static_cast<double>(depth < 2 ? 2 : depth);
  double norm = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    norm = std::max(norm, std::abs(static_cast<double>(want[i])));
  }
  const double bound = tol * (norm > 1.0 ? norm : 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    const double d =
        std::abs(static_cast<double>(want[i]) - static_cast<double>(got[i]));
    if (!(d <= bound)) {
      return false;
    }
  }
  return true;
}

/// Overwrite `dst` with `src` (same shape): restores an operand that a
/// timed call solves or factors in place.
template <class T>
void copy_into(iatf::CompactBuffer<T>& dst, const iatf::CompactBuffer<T>& src) {
  std::copy(src.data(), src.data() + src.size(), dst.data());
}

/// Deep copy of a compact batch (CompactBuffer is move-only).
template <class T>
iatf::CompactBuffer<T> clone(const iatf::CompactBuffer<T>& src) {
  iatf::CompactBuffer<T> out(src.rows(), src.cols(), src.batch(),
                             src.pack_width());
  copy_into(out, src);
  return out;
}

/// Lane `l` of a compact batch as a column-major matrix.
template <class T>
std::vector<T> lane_of(const iatf::CompactBuffer<T>& buf, iatf::index_t l) {
  std::vector<T> v(static_cast<std::size_t>(buf.rows() * buf.cols()));
  buf.export_colmajor(l, v.data(), buf.rows());
  return v;
}

/// In-memory span log for the traced run. Disabled, begin()/end() cost
/// one branch; enabled, one clock read each and a push into a
/// preallocated vector. Written out only when the run ends.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1u << 20);
    }
  }
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint32_t request) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }
  }
  /// Set a span's interval from timestamps taken earlier (spans built
  /// after the fact from a request's recorded stage times).
  void at(std::int32_t id, std::int64_t start_ns, std::int64_t end_ns) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].start_ns = start_ns;
      spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
    }
  }
  /// Write per-name span summaries (count, total and median self time)
  /// as JSON to `path`; returns false if the file cannot be written.
  bool write_summary(const std::string& path) const;

private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Print the workload census as exact counts "k/n", with the working
/// set against the L1/L2 sizes from CacheInfo::detect() and the LLC.
void print_census(const char* workload, const Census& c,
                  std::size_t working_set_bytes);

} // namespace perfbench
