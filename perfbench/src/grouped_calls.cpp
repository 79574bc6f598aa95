#include "grouped_calls.hpp"

#include "bench_util.hpp"
#include "common.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace perfbench {

namespace {

using iatf::Op;

constexpr int kBatches[] = {4, 8, 16, 32, 64, 128, 256};
constexpr int kSizes[] = {3, 5, 8, 11, 14, 17, 20, 24};
constexpr int kCalls = 32;
constexpr int kSegsPerCall = 6;

Op op_of(int bit) { return bit ? Op::Trans : Op::NoTrans; }

} // namespace

std::vector<CallSpec> default_calls(std::uint64_t seed) {
  std::vector<CallSpec> calls;
  for (int c = 0; c < kCalls; ++c) {
    CallSpec spec;
    spec.trsm = c % 2 == 1;
    for (int j = 0; j < kSegsPerCall; ++j) {
      spec.segs.push_back({kSizes[(3 * c + j) % 8], kBatches[(c + 2 * j) % 7],
                           static_cast<int>((seed + c + j) % 4)});
    }
    calls.push_back(spec);
  }
  return calls;
}

GroupedInputs::GroupedInputs(std::uint64_t seed, std::vector<CallSpec> s)
    : specs(std::move(s)) {
  std::mt19937_64 rng(seed ^ 0x96a3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_real_distribution<double> diag(0.5, 1.5);
  for (const CallSpec& call : specs) {
    a.emplace_back();
    b.emplace_back();
    for (const SegSpec& seg : call.segs) {
      const auto n = static_cast<std::size_t>(seg.m * seg.m * seg.batch);
      std::vector<double> va(n), vb(n);
      for (double& x : va) {
        x = dist(rng);
      }
      for (double& x : vb) {
        x = dist(rng);
      }
      if (call.trsm) { // well-conditioned triangles
        const double scale = seg.m > 1 ? 0.5 / seg.m : 1.0;
        for (int l = 0; l < seg.batch; ++l) {
          double* m = va.data() + static_cast<std::size_t>(l * seg.m * seg.m);
          for (int j = 0; j < seg.m; ++j) {
            for (int i = 0; i < seg.m; ++i) {
              m[j * seg.m + i] = i == j ? diag(rng) : m[j * seg.m + i] * scale;
            }
          }
        }
      }
      a.back().push_back(std::move(va));
      b.back().push_back(std::move(vb));
    }
  }
}

GroupedCalls::GroupedCalls(const GroupedInputs& in) : in_(in) {
  for (std::size_t c = 0; c < in.specs.size(); ++c) {
    const CallSpec& call = in.specs[c];
    segs_.emplace_back(call.segs.size());
    double flops = 0;
    for (std::size_t j = 0; j < call.segs.size(); ++j) {
      const SegSpec& sp = call.segs[j];
      Seg& s = segs_[c][j];
      const iatf::index_t m = sp.m, mm = sp.m * sp.m;
      s.a = iatf::to_compact<double>(in.a[c][j].data(), m, m, m, mm, sp.batch);
      s.b = iatf::to_compact<double>(in.b[c][j].data(), m, m, m, mm, sp.batch);
      if (call.trsm) {
        s.a.pad_identity();
        s.pristine = clone(s.b);
        flops += trsm_flops(true, m, m, sp.batch);
      } else {
        s.c = iatf::CompactBuffer<double>(m, m, sp.batch);
        flops += gemm_flops(m, m, m, sp.batch);
      }
      bytes_ += (s.a.size() + s.b.size() + s.c.size() + s.pristine.size()) *
                sizeof(double);
    }
    flops_.push_back(flops);
    gemm_.emplace_back();
    trsm_.emplace_back();
    for (std::size_t j = 0; j < call.segs.size(); ++j) {
      Seg& s = segs_[c][j];
      if (call.trsm) {
        iatf::sched::TrsmSegment<double> t;
        t.a = &s.a;
        t.b = &s.b;
        trsm_.back().push_back(t);
      } else {
        iatf::sched::GemmSegment<double> g;
        g.op_a = op_of(call.segs[j].mode & 2);
        g.op_b = op_of(call.segs[j].mode & 1);
        g.a = &s.a;
        g.b = &s.b;
        g.c = &s.c;
        gemm_.back().push_back(g);
      }
    }
  }
}

void GroupedCalls::restore(std::size_t c) {
  if (!in_.specs[c].trsm) {
    return;
  }
  for (Seg& s : segs_[c]) {
    copy_into(s.b, s.pristine);
  }
}

void GroupedCalls::run(iatf::Engine& engine, std::size_t c) {
  if (in_.specs[c].trsm) {
    engine.trsm_grouped<double>(trsm_[c]);
  } else {
    engine.gemm_grouped<double>(gemm_[c]);
  }
}

bool GroupedCalls::check(std::size_t c, std::mt19937_64& rng) const {
  bool ok = true;
  for (std::size_t j = 0; j < segs_[c].size(); ++j) {
    const SegSpec& sp = in_.specs[c].segs[j];
    const Seg& s = segs_[c][j];
    const auto l =
        std::uniform_int_distribution<iatf::index_t>(0, sp.batch - 1)(rng);
    const auto la = lane_of(s.a, l);
    if (in_.specs[c].trsm) {
      auto want = lane_of(s.pristine, l);
      iatf::ref::trsm<double>(iatf::Side::Left, iatf::Uplo::Lower,
                              Op::NoTrans, iatf::Diag::NonUnit, sp.m, sp.m,
                              1.0, la.data(), sp.m, want.data(), sp.m);
      const auto got = lane_of(s.b, l);
      ok = within_ulps<double>(want.data(), got.data(), want.size(), sp.m) &&
           ok;
    } else {
      const auto lb = lane_of(s.b, l), got = lane_of(s.c, l);
      std::vector<double> want(got.size());
      iatf::ref::gemm<double>(op_of(sp.mode & 2), op_of(sp.mode & 1), sp.m,
                              sp.m, sp.m, 1.0, la.data(), sp.m, lb.data(),
                              sp.m, 0.0, want.data(), sp.m);
      ok = within_ulps<double>(want.data(), got.data(), want.size(), sp.m) &&
           ok;
    }
  }
  return ok;
}

double GroupedCalls::segments_per_call() const {
  double total = 0;
  for (const CallSpec& c : in_.specs) {
    total += static_cast<double>(c.segs.size());
  }
  return total / static_cast<double>(in_.specs.size());
}

} // namespace perfbench
