// Seeded inputs of the request-stream workloads (ragged, wire): a pool of
// 256 small GEMM descriptors with caller-owned column-major operands, and
// the order in which requests draw from it.
//
// The pool's shapes come from a fixed generator so the flop and byte mix
// is the same under every seed: 128 (m, n, k, batch) shapes, each served
// in s and d. The run seed picks each descriptor's transposes and
// alpha/beta (balanced: every mode and scalar pair on exactly a quarter
// of the pool), the operand values, and the request order, which walks
// the pool in a fresh seeded permutation every 256 requests.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "iatf/common/types.hpp"
#include "iatf/net/wire.hpp"

namespace perfbench {

struct GemmDesc {
  char dtype = 'd';
  iatf::Op op_a = iatf::Op::NoTrans;
  iatf::Op op_b = iatf::Op::NoTrans;
  int m = 1, n = 1, k = 1, batch = 1;
  double alpha = 1.0, beta = 0.0;

  int rows_a() const { return op_a == iatf::Op::NoTrans ? m : k; }
  int cols_a() const { return op_a == iatf::Op::NoTrans ? k : m; }
  int rows_b() const { return op_b == iatf::Op::NoTrans ? k : n; }
  int cols_b() const { return op_b == iatf::Op::NoTrans ? n : k; }
  std::size_t elem_bytes() const { return dtype == 's' ? 4 : 8; }
  /// Scalars of A, B and C over the whole batch.
  std::size_t elems() const {
    return static_cast<std::size_t>(m * k + k * n + m * n) *
           static_cast<std::size_t>(batch);
  }
  /// Bytes of one SubmitGemm frame: header + descriptor + A, B, C.
  double frame_bytes() const {
    return static_cast<double>(iatf::net::kHeaderSize + 52 +
                               elems() * elem_bytes());
  }
  double flops() const { return gemm_flops(m, n, k, batch); }
  int size() const { return std::max(m, std::max(n, k)); }
  std::uint8_t mode() const {
    return static_cast<std::uint8_t>((op_a != iatf::Op::NoTrans ? 2 : 0) +
                                     (op_b != iatf::Op::NoTrans ? 1 : 0));
  }
};

/// One descriptor with its operands (only the vectors of its dtype are
/// filled). Matrix b of A starts at element b * m * k, and so on.
struct GemmOperands {
  GemmDesc desc;
  std::vector<float> fa, fb, fc;
  std::vector<double> da, db, dc;

  template <class T> std::span<const T> a() const {
    if constexpr (std::is_same_v<T, float>) {
      return fa;
    } else {
      return da;
    }
  }
  template <class T> std::span<const T> b() const {
    if constexpr (std::is_same_v<T, float>) {
      return fb;
    } else {
      return db;
    }
  }
  template <class T> std::span<const T> c() const {
    if constexpr (std::is_same_v<T, float>) {
      return fc;
    } else {
      return dc;
    }
  }
  /// SubmitGemm message viewing this descriptor's operands.
  iatf::net::GemmSubmit submit(std::uint32_t tenant) const;
};

class RequestStream {
public:
  static constexpr std::size_t kPoolSize = 256;

  explicit RequestStream(std::uint64_t seed);

  const std::vector<GemmOperands>& pool() const { return pool_; }
  /// Descriptor index of the next request (requests are drawn in order).
  std::uint32_t next();
  /// Bytes of all operands in the pool.
  std::size_t working_set_bytes() const;
  /// Census of every request drawn so far.
  Census census() const;

private:
  std::vector<GemmOperands> pool_;
  std::vector<std::uint64_t> drawn_; ///< requests per descriptor
  std::mt19937_64 order_rng_;
  std::vector<std::uint32_t> perm_;
  std::size_t pos_ = 0;
};

/// One request's C output kept for the correctness gate.
struct Sample {
  std::uint32_t desc = 0;
  std::vector<float> f;
  std::vector<double> d;
};

/// Every kSampleEvery-th request (seeded) keeps its output for the
/// correctness gate, at most kMaxSamples per phase.
inline constexpr std::uint64_t kSampleEvery = 64;
inline constexpr std::size_t kMaxSamples = 256;

/// Completed-request bookkeeping of a request loop (ragged, wire): counts,
/// per-request records or per-window work, and the sampled outputs.
template <class Record> class Harvest {
public:
  Harvest(const RequestStream& stream, std::uint64_t seed)
      : stream_(stream), seed_(seed) {}

  /// Count completed work into `w` instead of keeping every record, so
  /// the benchmark's memory does not grow with the server's throughput.
  void count_into(Windows* w) { windows_ = w; }

  /// Request `index` on descriptor `desc` completed at `done_ns`; `fill`
  /// copies its C output into a Sample when the request is sampled.
  template <class Fill>
  void add(const Record& rec, std::uint32_t desc, std::uint64_t index,
           std::int64_t done_ns, bool ok, Fill&& fill) {
    ++count_;
    failed_ += ok ? 0 : 1;
    if (windows_ == nullptr) {
      records_.push_back(rec);
    } else if (ok) {
      windows_->add(done_ns, stream_.pool()[desc].desc.flops());
    }
    if (ok && samples_.size() < kMaxSamples &&
        sampled(seed_, index, kSampleEvery)) {
      Sample s;
      s.desc = desc;
      fill(s);
      samples_.push_back(std::move(s));
    }
  }

  const std::vector<Record>& records() const { return records_; }
  const std::vector<Sample>& samples() const { return samples_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t failed() const { return failed_; }

protected:
  const RequestStream& stream_;

private:
  std::uint64_t seed_;
  Windows* windows_ = nullptr;
  std::vector<Record> records_;
  std::vector<Sample> samples_;
  std::uint64_t count_ = 0, failed_ = 0;
};

/// Check kept samples against iatf::ref after the timed phase; returns
/// how many were wrong.
std::uint64_t check_samples(const RequestStream& stream,
                            const std::vector<Sample>& samples);

/// Check one request's C output (column-major, whole batch) against
/// iatf::ref on the descriptor's operands.
template <class T>
bool check_gemm(const GemmOperands& op, std::span<const T> got);

} // namespace perfbench
