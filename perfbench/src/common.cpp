#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "iatf/common/cache_info.hpp"

namespace perfbench {

std::string Report::json(const Outcome& out) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.wrong == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << e.value
       << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    return;
  }
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &saved_)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
}

OneCpu::~OneCpu() {
  if (pinned_) {
    sched_setaffinity(0, sizeof saved_, &saved_);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) {
    return static_cast<std::size_t>(l3);
  }
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

double host_calib_us() {
  static std::vector<std::uint32_t> walk(1u << 18); // 1 MiB
  const std::int64_t t0 = now_ns();
  volatile double sink = 0;
  double x = 1.0;
  for (int i = 0; i < 2000000; ++i) {
    x = x * 1.0000001 + 1e-9;
  }
  std::uint32_t acc = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (std::size_t i = 0; i < walk.size(); i += 16) {
      acc += walk[i] += static_cast<std::uint32_t>(i);
    }
  }
  sink = x + acc;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e3;
}

bool Tracer::write_summary(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << "{\"spans\": " << spans_.size() << ", \"by_name\": {";
  bool first = true;
  for (const auto& [name, s] : summarize_spans(spans_)) {
    f << (first ? "" : ", ") << '"' << name << "\": {\"count\": " << s.count
      << ", \"total_self_ms\": " << s.total_self_ns / 1e6
      << ", \"median_self_us\": " << s.median_self_ns / 1e3 << '}';
    first = false;
  }
  f << "}}\n";
  return static_cast<bool>(f);
}

void print_census(const char* workload, const Census& c,
                  std::size_t working_set_bytes) {
  const iatf::CacheInfo cache = iatf::CacheInfo::detect();
  const std::size_t n = c.requests;
  std::printf("census %s: requests=%zu distinct_descriptors=%zu\n", workload,
              n, c.distinct_descriptors);
  std::printf("census %s: size<=8 %zu/%zu, 9-16 %zu/%zu, 17-33 %zu/%zu\n",
              workload, c.size_class[0], n, c.size_class[1], n,
              c.size_class[2], n);
  std::printf("census %s: dtype s %zu/%zu, d %zu/%zu; mode NN %zu/%zu, "
              "NT %zu/%zu, TN %zu/%zu, TT %zu/%zu\n",
              workload, c.dtype_s, n, c.dtype_d, n, c.modes[0], n, c.modes[1],
              n, c.modes[2], n, c.modes[3], n);
  std::printf("census %s: payload bytes q1=%.0f q2=%.0f q3=%.0f\n", workload,
              c.payload.q1, c.payload.q2, c.payload.q3);
  std::printf("census %s: working set %zu B vs L1d %zu B, L2 %zu B, "
              "LLC %zu B\n",
              workload, working_set_bytes, cache.l1d, cache.l2, llc_bytes());
}

} // namespace perfbench
