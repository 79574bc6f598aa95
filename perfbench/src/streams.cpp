#include "streams.hpp"

#include <algorithm>
#include <numeric>

#include "common.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace perfbench {

namespace {

/// Shapes are fixed across seeds; only this constant seeds them.
constexpr std::uint64_t kShapeSeed = 0x1a7f5eedull;
/// Largest SubmitGemm payload the pool aims for (batch is capped so the
/// A+B+C bytes of a d request stay under it).
constexpr std::size_t kMaxPayload = 128u << 10;

struct Shape {
  int m, n, k, batch;
};

std::vector<Shape> pool_shapes() {
  std::mt19937_64 rng(kShapeSeed);
  const auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(std::uniform_int_distribution<int>(lo, hi)(rng));
  };
  // 60% of the shapes at <= 8, 25% at 9..16, 15% at 17..33.
  const int counts[3] = {77, 32, 19};
  const int lo[3] = {1, 9, 17};
  const int hi[3] = {8, 16, 33};
  std::vector<Shape> out;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < counts[c]; ++i) {
      Shape s{pick(lo[c], hi[c]), pick(lo[c], hi[c]), pick(lo[c], hi[c]), 1};
      const std::size_t per =
          static_cast<std::size_t>(s.m * s.k + s.k * s.n + s.m * s.n) * 8;
      const int cap = static_cast<int>(
          std::clamp<std::size_t>(kMaxPayload / per, 1, 32));
      s.batch = pick(1, cap);
      out.push_back(s);
    }
  }
  return out;
}

template <class T>
void fill(std::vector<T>& v, std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<T> dist(T(-1), T(1));
  v.resize(n);
  for (T& x : v) {
    x = dist(rng);
  }
}

} // namespace

iatf::net::GemmSubmit GemmOperands::submit(std::uint32_t tenant) const {
  iatf::net::GemmSubmit s;
  s.dtype = desc.dtype;
  s.op_a = static_cast<std::uint8_t>(desc.op_a);
  s.op_b = static_cast<std::uint8_t>(desc.op_b);
  s.m = static_cast<std::uint32_t>(desc.m);
  s.n = static_cast<std::uint32_t>(desc.n);
  s.k = static_cast<std::uint32_t>(desc.k);
  s.batch = static_cast<std::uint32_t>(desc.batch);
  s.tenant = tenant;
  s.alpha = desc.alpha;
  s.beta = desc.beta;
  const auto bytes = [](const auto& v) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.data()),
        v.size() * sizeof(v[0]));
  };
  if (desc.dtype == 's') {
    s.a = bytes(fa);
    s.b = bytes(fb);
    s.c = bytes(fc);
  } else {
    s.a = bytes(da);
    s.b = bytes(db);
    s.c = bytes(dc);
  }
  return s;
}

RequestStream::RequestStream(std::uint64_t seed)
    : order_rng_(seed * 0x2545F4914F6CDD1Dull + 7) {
  std::mt19937_64 rng(seed);
  const std::vector<Shape> shapes = pool_shapes();
  // Balanced seeded assignment: each of the 4 modes and 4 scalar pairs
  // lands on exactly a quarter of the pool.
  std::vector<int> modes(kPoolSize), scalars(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    modes[i] = static_cast<int>(i % 4);
    scalars[i] = static_cast<int>((i / 4) % 4);
  }
  std::shuffle(modes.begin(), modes.end(), rng);
  std::shuffle(scalars.begin(), scalars.end(), rng);
  const double alphas[4] = {1.0, 1.0, -1.0, 0.5};
  const double betas[4] = {0.0, 1.0, 0.5, -1.0};
  pool_.resize(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const Shape& s = shapes[i / 2];
    GemmOperands& op = pool_[i];
    GemmDesc& d = op.desc;
    d.dtype = i % 2 == 0 ? 's' : 'd';
    d.m = s.m;
    d.n = s.n;
    d.k = s.k;
    d.batch = s.batch;
    d.op_a = modes[i] & 2 ? iatf::Op::Trans : iatf::Op::NoTrans;
    d.op_b = modes[i] & 1 ? iatf::Op::Trans : iatf::Op::NoTrans;
    d.alpha = alphas[scalars[i]];
    d.beta = betas[scalars[i]];
    const auto na = static_cast<std::size_t>(d.m * d.k * d.batch);
    const auto nb = static_cast<std::size_t>(d.k * d.n * d.batch);
    const auto nc = static_cast<std::size_t>(d.m * d.n * d.batch);
    if (d.dtype == 's') {
      fill(op.fa, na, rng);
      fill(op.fb, nb, rng);
      fill(op.fc, nc, rng);
    } else {
      fill(op.da, na, rng);
      fill(op.db, nb, rng);
      fill(op.dc, nc, rng);
    }
  }
  drawn_.assign(kPoolSize, 0);
  perm_.resize(kPoolSize);
  std::iota(perm_.begin(), perm_.end(), 0u);
  pos_ = kPoolSize; // shuffle on first draw
}

std::uint32_t RequestStream::next() {
  if (pos_ == perm_.size()) {
    std::shuffle(perm_.begin(), perm_.end(), order_rng_);
    pos_ = 0;
  }
  ++drawn_[perm_[pos_]];
  return perm_[pos_++];
}

std::size_t RequestStream::working_set_bytes() const {
  std::size_t total = 0;
  for (const GemmOperands& op : pool_) {
    total += op.desc.elems() * op.desc.elem_bytes();
  }
  return total;
}

Census RequestStream::census() const {
  std::vector<CensusItem> items;
  for (std::uint32_t d = 0; d < pool_.size(); ++d) {
    const GemmDesc& g = pool_[d].desc;
    items.push_back(
        {d, g.dtype, g.mode(), g.size(), g.frame_bytes(), drawn_[d]});
  }
  return take_census(items);
}

template <class T>
bool check_gemm(const GemmOperands& op, std::span<const T> got) {
  const GemmDesc& d = op.desc;
  std::vector<T> want(op.c<T>().begin(), op.c<T>().end());
  if (got.size() != want.size()) {
    return false;
  }
  const auto a = op.a<T>();
  const auto b = op.b<T>();
  const std::size_t sa = static_cast<std::size_t>(d.m * d.k);
  const std::size_t sb = static_cast<std::size_t>(d.k * d.n);
  const std::size_t sc = static_cast<std::size_t>(d.m * d.n);
  for (int l = 0; l < d.batch; ++l) {
    iatf::ref::gemm<T>(d.op_a, d.op_b, d.m, d.n, d.k, T(d.alpha),
                       a.data() + l * sa, d.rows_a(), b.data() + l * sb,
                       d.rows_b(), T(d.beta), want.data() + l * sc, d.m);
  }
  return within_ulps<T>(want.data(), got.data(), want.size(), d.k);
}

std::uint64_t check_samples(const RequestStream& stream,
                            const std::vector<Sample>& samples) {
  std::uint64_t wrong = 0;
  for (const Sample& s : samples) {
    const GemmOperands& op = stream.pool()[s.desc];
    const bool ok = op.desc.dtype == 's' ? check_gemm<float>(op, s.f)
                                         : check_gemm<double>(op, s.d);
    wrong += ok ? 0 : 1;
  }
  return wrong;
}

template bool check_gemm<float>(const GemmOperands&, std::span<const float>);
template bool check_gemm<double>(const GemmOperands&,
                                 std::span<const double>);

} // namespace perfbench
