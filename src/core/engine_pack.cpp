// Persistent packed layouts (DESIGN.md section 13): converting strided
// column-major batches into PackedHandles and back. The compute overloads
// that consume handles are thin wrappers in engine.cpp over the same
// drivers as the raw-buffer calls, so a chain of handle calls touches
// interleaved storage end-to-end with exactly one pack at the front and
// one unpack at the back. The engine counts both sides (packed_reuse_hits
// / packed_repacks) so the payoff is observable.
#include <complex>

#include "iatf/common/error.hpp"
#include "iatf/core/engine.hpp"

namespace iatf {

template <class T>
factor::PackedHandle<T> Engine::pack(const T* src, index_t rows,
                                     index_t cols, index_t ld,
                                     index_t matrix_stride, index_t batch,
                                     index_t pack_width) {
  IATF_CHECK(src != nullptr || batch == 0, "pack: null source");
  IATF_CHECK(matrix_stride >= 0, "pack: negative matrix stride");
  CompactBuffer<T> buf =
      to_compact(src, rows, cols, ld, matrix_stride, batch, pack_width);
  packed_repacks_.fetch_add(1, std::memory_order_relaxed);
  return factor::PackedHandle<T>(std::move(buf));
}

template <class T>
factor::PackedHandle<T> Engine::adopt_packed(CompactBuffer<T> buf) {
  return factor::PackedHandle<T>(std::move(buf));
}

template <class T>
void Engine::repack(factor::PackedHandle<T>& handle, const T* src,
                    index_t ld, index_t matrix_stride) {
  IATF_CHECK(handle.valid(), "repack: invalid packed handle");
  IATF_CHECK(src != nullptr || handle.batch() == 0, "repack: null source");
  IATF_CHECK(matrix_stride >= 0, "repack: negative matrix stride");
  CompactBuffer<T>& buf = handle.buffer();
  for (index_t b = 0; b < buf.batch(); ++b) {
    buf.import_colmajor(b, src + b * matrix_stride, ld);
  }
  packed_repacks_.fetch_add(1, std::memory_order_relaxed);
  handle.bump_epoch();
}

template <class T>
void Engine::unpack(const factor::PackedHandle<T>& handle, T* dst,
                    index_t ld, index_t matrix_stride) {
  IATF_CHECK(handle.valid(), "unpack: invalid packed handle");
  IATF_CHECK(dst != nullptr || handle.batch() == 0,
             "unpack: null destination");
  IATF_CHECK(matrix_stride >= 0, "unpack: negative matrix stride");
  from_compact(handle.buffer(), dst, ld, matrix_stride);
}

// --- Explicit instantiations ---------------------------------------------

#define IATF_INSTANTIATE_ENGINE_PACK(T)                                       \
  template factor::PackedHandle<T> Engine::pack<T>(                           \
      const T*, index_t, index_t, index_t, index_t, index_t, index_t);        \
  template factor::PackedHandle<T> Engine::adopt_packed<T>(CompactBuffer<T>); \
  template void Engine::repack<T>(factor::PackedHandle<T>&, const T*,         \
                                  index_t, index_t);                          \
  template void Engine::unpack<T>(const factor::PackedHandle<T>&, T*,         \
                                  index_t, index_t);

IATF_INSTANTIATE_ENGINE_PACK(float)
IATF_INSTANTIATE_ENGINE_PACK(double)
IATF_INSTANTIATE_ENGINE_PACK(std::complex<float>)
IATF_INSTANTIATE_ENGINE_PACK(std::complex<double>)

#undef IATF_INSTANTIATE_ENGINE_PACK

} // namespace iatf
