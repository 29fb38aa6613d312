#include "hash/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ftc::hash {
namespace {

// Bytewise table for the reflected polynomial 0xEDB88320, built at
// compile time.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

// Advances the raw (pre-inverted) CRC register over [p, p + len), one
// table lookup per byte.
std::uint32_t update_portable(std::uint32_t c, const unsigned char* p,
                              std::size_t len) {
  for (; len > 0; ++p, --len) {
    c = kTable[(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

constexpr std::size_t kFoldBlock = 64;
using detail::kPrefetchDistance;

__m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: x times K (low and high 64-bit halves), plus next.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Folds a whole number of 16-byte blocks (len >= 64, len % 16 == 0) into
// the raw CRC register with carry-less multiplies: four 128-bit lanes fold
// 64 bytes per round, collapse to one lane, fold the remaining 16-byte
// blocks, then reduce 128 -> 64 -> 32 bits with a Barrett reduction.  The
// constants are the bit-reflected fold distances (powers of x mod P) and
// Barrett pair published in "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Gopal et al., Intel, 2009); zlib-ng and
// Chromium's crc32_simd use the same ones.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_clmul(
    std::uint32_t crc, const unsigned char* p, std::size_t len) {
  alignas(16) static constexpr std::uint64_t k1k2[] = {0x0154442bd4,
                                                       0x01c6e41596};
  alignas(16) static constexpr std::uint64_t k3k4[] = {0x01751997d0,
                                                       0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t k5k0[] = {0x0163cd6124, 0};
  alignas(16) static constexpr std::uint64_t poly[] = {0x01db710641,
                                                       0x01f7011641};
  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += kFoldBlock;
  len -= kFoldBlock;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  // Prefetch only while the line kPrefetchDistance ahead still lies inside
  // the input; the plain loop folds the last kPrefetchDistance bytes (and
  // all of a shorter input).
  for (; len >= kPrefetchDistance + kFoldBlock;
       p += kFoldBlock, len -= kFoldBlock) {
    _mm_prefetch(reinterpret_cast<const char*>(p + kPrefetchDistance),
                 _MM_HINT_T0);
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }
  for (; len >= kFoldBlock; p += kFoldBlock, len -= kFoldBlock) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; len >= 16; p += 16, len -= 16) {
    x1 = fold(x1, k, load(p));
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x00), x2);

  // Barrett reduction 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, k, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // __x86_64__

const unsigned char* bytes_of(std::string_view data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::string_view data, std::uint32_t initial) {
  return update_portable(initial ^ 0xFFFFFFFFU, bytes_of(data), data.size()) ^
         0xFFFFFFFFU;
}

#if defined(__x86_64__)

bool clmul_supported() {
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
}

// The folding kernel takes the 16-byte multiple of a long input, the table
// loop the rest (all of a short input).
std::uint32_t crc32_clmul(std::string_view data, std::uint32_t initial) {
  std::uint32_t c = initial ^ 0xFFFFFFFFU;
  const unsigned char* p = bytes_of(data);
  std::size_t len = data.size();
  if (len >= kFoldBlock) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = fold_clmul(c, p, bulk);
    p += bulk;
    len -= bulk;
  }
  return update_portable(c, p, len) ^ 0xFFFFFFFFU;
}

#endif  // __x86_64__

}  // namespace detail

std::uint32_t crc32(std::string_view data, std::uint32_t initial) {
#if defined(__x86_64__)
  if (detail::clmul_supported()) {
    return detail::crc32_clmul(data, initial);
  }
#endif
  return detail::crc32_portable(data, initial);
}

}  // namespace ftc::hash
