// Ragged grouped calls (dtype d) shared by the `grouped` workload and the
// pool-speedup probe: each call is a list of square segments of size m
// with per-segment batch n; GEMM calls rotate the four transpose modes,
// TRSM calls solve LNLN against an m x m right-hand side.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "iatf/core/engine.hpp"
#include "iatf/layout/compact.hpp"

namespace perfbench {

struct SegSpec {
  int m = 1;
  int batch = 1;
  int mode = 0; ///< GEMM: op_a*2 + op_b
};

struct CallSpec {
  bool trsm = false;
  std::vector<SegSpec> segs;
};

/// The `grouped` workload's 32 call templates: fixed sizes and batches
/// (the flop mix is the same under every seed); the seed rotates modes.
std::vector<CallSpec> default_calls(std::uint64_t seed);

/// Column-major operands of every segment, generated once per run.
struct GroupedInputs {
  GroupedInputs(std::uint64_t seed, std::vector<CallSpec> specs);
  explicit GroupedInputs(std::uint64_t seed)
      : GroupedInputs(seed, default_calls(seed)) {}

  std::vector<CallSpec> specs;
  /// Per call, per segment: A and B (column-major, m x m x batch).
  std::vector<std::vector<std::vector<double>>> a, b;
};

/// Compact operands and segment lists of one set-up.
class GroupedCalls {
public:
  explicit GroupedCalls(const GroupedInputs& in);
  GroupedCalls(const GroupedCalls&) = delete;
  GroupedCalls& operator=(const GroupedCalls&) = delete;

  std::size_t size() const { return in_.specs.size(); }
  /// Untimed: reset TRSM right-hand sides to their inputs.
  void restore(std::size_t c);
  void run(iatf::Engine& engine, std::size_t c);
  double flops(std::size_t c) const { return flops_[c]; }
  /// Check one seeded lane of every segment of call c against iatf::ref.
  bool check(std::size_t c, std::mt19937_64& rng) const;
  double segments_per_call() const;
  std::size_t bytes() const { return bytes_; }

private:
  struct Seg {
    iatf::CompactBuffer<double> a, b, c, pristine;
  };
  const GroupedInputs& in_;
  std::vector<std::vector<Seg>> segs_;
  std::vector<std::vector<iatf::sched::GemmSegment<double>>> gemm_;
  std::vector<std::vector<iatf::sched::TrsmSegment<double>>> trsm_;
  std::vector<double> flops_;
  std::size_t bytes_ = 0;
};

} // namespace perfbench
