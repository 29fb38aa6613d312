#include "hash/crc32.hpp"

#include <array>
#include <atomic>
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

// Multiplication mod P on reflected 32-bit polynomials, the CRC register's
// own representation: bit 31 is x^0 and bit 0 is x^31.  clmul32 is the
// carry-less product; bit k of it is x^(62 - k).
constexpr std::uint64_t clmul32(std::uint32_t a, std::uint32_t b) {
  std::uint64_t product = 0;
  for (int i = 0; i < 32; ++i) {
    product ^= (std::uint64_t{b} << i) & (0 - std::uint64_t{(a >> i) & 1U});
  }
  return product;
}

// A carry-less product reduced mod P.  Shifted up one bit, the product
// holds x^0..x^31 in its high word and x^32..x^63 in its low word; four
// zero-byte table steps multiply the low word by x^32 mod P.
constexpr std::uint32_t reduce_product(std::uint64_t product) {
  product <<= 1;
  auto low = static_cast<std::uint32_t>(product);
  for (int i = 0; i < 4; ++i) {
    low = kTable[low & 0xFFU] ^ (low >> 8);
  }
  return static_cast<std::uint32_t>(product >> 32) ^ low;
}

constexpr std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) {
  return reduce_product(clmul32(a, b));
}

constexpr std::uint32_t kXPow0 = 0x80000000U;

// kXPow2k[k] = x^(2^k) mod P.
constexpr std::array<std::uint32_t, 32> make_x_pow_2k() {
  std::array<std::uint32_t, 32> t{};
  t[0] = kXPow0 >> 1;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k) {
    t[k] = multiply_mod_p(t[k - 1], t[k - 1]);
  }
  return t;
}

constexpr std::array<std::uint32_t, 32> kXPow2k = make_x_pow_2k();

// x^(2^32) = x mod P, so x^(2^k) = kXPow2k[k mod 32] for every k.
static_assert(multiply_mod_p(kXPow2k[31], kXPow2k[31]) == kXPow2k[0]);

// crc32_combine's math with a given multiply mod P: crc_a times
// x^(8 * len_b), which runs a register over len_b zero bytes, plus crc_b.
// x^(8 * len_b) takes one product per set bit of len_b.
template <std::uint32_t (*Multiply)(std::uint32_t, std::uint32_t)>
constexpr std::uint32_t combine_with(std::uint32_t crc_a, std::uint32_t crc_b,
                                     std::size_t len_b) {
  std::uint32_t power = kXPow0;
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1U) != 0) power = Multiply(power, kXPow2k[k % 32]);
  }
  return Multiply(crc_a, power) ^ crc_b;
}

// zlib: crc32("12345"), crc32("6789") and crc32("123456789").
static_assert(combine_with<multiply_mod_p>(0xCBF53A1CU, 0x9DBABF87U, 4) ==
              0xCBF43926U);

#if defined(__x86_64__)

// multiply_mod_p with the carry-less multiply in one instruction.  The
// two-stream fold joins its halves with it: the portable product's 32
// shift-and-xor steps cost ~110 ns a join, ~10% of a hot 64 KiB fold.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t multiply_mod_p_clmul(
    std::uint32_t a, std::uint32_t b) {
  const __m128i product =
      _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(a)),
                           _mm_cvtsi32_si128(static_cast<int>(b)), 0x00);
  return reduce_product(
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(product)));
}

// Fold constant k(e) = reflect32(x^e mod P) << 1, P the CRC-32 polynomial
// (0x04C11DB7 unreflected).  Folding a register a distance of D bits
// multiplies its low and high 64-bit halves by k(D + 32) and k(D - 32).
constexpr std::uint64_t fold_constant(unsigned e) {
  std::uint32_t r = 1;  // x^0
  for (unsigned i = 0; i < e; ++i) {
    r = (r & 0x80000000U) ? (r << 1) ^ 0x04C11DB7U : r << 1;
  }
  std::uint32_t reflected = 0;
  for (int bit = 0; bit < 32; ++bit) {
    reflected |= ((r >> bit) & 1U) << (31 - bit);
  }
  return std::uint64_t{reflected} << 1;
}

struct FoldPair {
  std::uint64_t lo;
  std::uint64_t hi;
};

constexpr FoldPair fold_pair(unsigned distance_bits) {
  return {fold_constant(distance_bits + 32), fold_constant(distance_bits - 32)};
}

// The published constants (Gopal et al.; zlib-ng, Chromium) are these.
static_assert(fold_pair(512).lo == 0x0154442bd4 &&
              fold_pair(512).hi == 0x01c6e41596);  // k1k2: 64-byte fold
static_assert(fold_pair(128).lo == 0x01751997d0 &&
              fold_pair(128).hi == 0x00ccaa009e);  // k3k4: 16-byte fold
static_assert(fold_constant(64) == 0x0163cd6124);  // k5: 128 -> 64 bits

constexpr FoldPair kFold64B = fold_pair(512);
constexpr FoldPair kFold16B = fold_pair(128);
constexpr FoldPair kFold256B = fold_pair(2048);

constexpr std::size_t kFoldBlock = 64;
constexpr std::size_t kWideFoldBlock = 256;
using detail::kPrefetchDistance;
using detail::kTwoStreamMin;
// How far ahead each stream of fold_vpclmul_2x also prefetches into L2.
constexpr std::size_t kFarPrefetchDistance = 16 * 1024;

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

// Shared by both folding kernels: collapses four 128-bit lanes (x1 the
// lowest address) into one, folds the remaining whole 16-byte blocks of
// [p, p + len), then reduces 128 -> 64 -> 32 bits with a Barrett
// reduction.  The Barrett pair is P' and the reflected quotient
// floor(x^64 / P), as published.  Always inlined, so the wide kernel's
// copy is VEX-encoded like the rest of it and no call sits between them.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline std::uint32_t
fold_tail(__m128i x1, __m128i x2, __m128i x3, __m128i x4,
          const unsigned char* p, std::size_t len) {
  alignas(16) static constexpr std::uint64_t k3k4[] = {kFold16B.lo,
                                                       kFold16B.hi};
  alignas(16) static constexpr std::uint64_t k5k0[] = {fold_constant(64), 0};
  alignas(16) static constexpr std::uint64_t poly[] = {0x01db710641,
                                                       0x01f7011641};
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
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

// Folds a whole number of 16-byte blocks (len >= 64, len % 16 == 0) into
// the raw CRC register with carry-less multiplies: four 128-bit lanes fold
// 64 bytes per round, then fold_tail finishes.  The scheme and constants
// are those of "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Gopal et al., Intel, 2009), as in zlib-ng and
// Chromium's crc32_simd.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_clmul(
    std::uint32_t crc, const unsigned char* p, std::size_t len) {
  alignas(16) static constexpr std::uint64_t k1k2[] = {kFold64B.lo,
                                                       kFold64B.hi};
  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += kFoldBlock;
  len -= kFoldBlock;

  const __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
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
  return fold_tail(x1, x2, x3, x4, p, len);
}

#define FTC_CRC32_WIDE_TARGET "avx512f,avx512vl,vpclmulqdq,pclmul,sse4.1"

__attribute__((target(FTC_CRC32_WIDE_TARGET))) inline __m512i load512(
    const unsigned char* p) {
  return _mm512_loadu_si512(p);
}

// A fold pair in each of a 512-bit register's four 128-bit lanes.
__attribute__((target(FTC_CRC32_WIDE_TARGET))) inline __m512i broadcast(
    FoldPair k) {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

// fold() on four 128-bit lanes at once; the three-way XOR is one
// ternary-logic op (0x96 = a ^ b ^ c).
__attribute__((target(FTC_CRC32_WIDE_TARGET))) inline __m512i fold512(
    __m512i x, __m512i k, __m512i next) {
  const __m512i lo = _mm512_clmulepi64_epi128(x, k, 0x00);
  const __m512i hi = _mm512_clmulepi64_epi128(x, k, 0x11);
  return _mm512_ternarylogic_epi64(hi, lo, next, 0x96);
}

// Four 512-bit registers: sixteen 128-bit lanes, 256 bytes a round.
struct WideLanes {
  __m512i x1, x2, x3, x4;
};

// The first round's registers, with the CRC register in the lowest lane.
__attribute__((target(FTC_CRC32_WIDE_TARGET), always_inline)) inline WideLanes
load_first_round(const unsigned char* p, std::uint32_t crc) {
  const __m512i crc_lane =
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc)));
  return {_mm512_xor_si512(load512(p), crc_lane), load512(p + 64),
          load512(p + 128), load512(p + 192)};
}

// One 256-byte round: each of the sixteen lanes folds its next 16 bytes.
__attribute__((target(FTC_CRC32_WIDE_TARGET), always_inline)) inline void
fold_round(WideLanes& x, __m512i k, const unsigned char* p) {
  x.x1 = fold512(x.x1, k, load512(p));
  x.x2 = fold512(x.x2, k, load512(p + 64));
  x.x3 = fold512(x.x3, k, load512(p + 128));
  x.x4 = fold512(x.x4, k, load512(p + 192));
}

// Prefetches the four lines of one 256-byte round.
template <int Hint>
__attribute__((always_inline)) inline void prefetch_round(
    const unsigned char* p) {
  const char* line = reinterpret_cast<const char*>(p);
  _mm_prefetch(line, static_cast<_mm_hint>(Hint));
  _mm_prefetch(line + 64, static_cast<_mm_hint>(Hint));
  _mm_prefetch(line + 128, static_cast<_mm_hint>(Hint));
  _mm_prefetch(line + 192, static_cast<_mm_hint>(Hint));
}

// The end of both wide folds: plain 256-byte rounds over the rest of
// [p, p + len), then the four registers collapse into one at a 512-bit
// distance, fold any remaining 64-byte blocks, and hand that register's
// four lanes to fold_tail.  The constants are built with _mm512_set_epi64
// and the lanes leave through one aligned store rather than through the
// broadcast/extract intrinsics, whose _mm512_undefined_* operands trip
// GCC 12's -Wuninitialized.
__attribute__((target(FTC_CRC32_WIDE_TARGET),
               always_inline)) inline std::uint32_t
finish_wide(WideLanes x, const unsigned char* p, std::size_t len) {
  __m512i k = broadcast(kFold256B);
  for (; len >= kWideFoldBlock; p += kWideFoldBlock, len -= kWideFoldBlock) {
    fold_round(x, k, p);
  }

  k = broadcast(kFold64B);
  __m512i x1 = fold512(x.x1, k, x.x2);
  x1 = fold512(x1, k, x.x3);
  x1 = fold512(x1, k, x.x4);
  for (; len >= kFoldBlock; p += kFoldBlock, len -= kFoldBlock) {
    x1 = fold512(x1, k, load512(p));
  }

  alignas(64) __m128i lanes[4] = {};
  _mm512_store_si512(lanes, x1);
  return fold_tail(lanes[0], lanes[1], lanes[2], lanes[3], p, len);
}

// fold_clmul's scheme with 512-bit registers (len >= 256, len % 16 == 0):
// four registers hold sixteen 128-bit lanes and fold 256 bytes per round
// (a distance of 2048 bits), then finish_wide.
__attribute__((target(FTC_CRC32_WIDE_TARGET))) std::uint32_t fold_vpclmul(
    std::uint32_t crc, const unsigned char* p, std::size_t len) {
  WideLanes x = load_first_round(p, crc);
  p += kWideFoldBlock;
  len -= kWideFoldBlock;

  const __m512i k = broadcast(kFold256B);
  // The same 4 KiB prefetch as fold_clmul: one line per 64 bytes folded.
  for (; len >= kPrefetchDistance + kWideFoldBlock;
       p += kWideFoldBlock, len -= kWideFoldBlock) {
    prefetch_round<_MM_HINT_T0>(p + kPrefetchDistance);
    fold_round(x, k, p);
  }
  return finish_wide(x, p, len);
}

// fold_vpclmul for a bulk of kTwoStreamMin or more: folds the two halves
// A = [p, p + len_a) and B = [p + len_a, p + len) at once, each in its own
// four registers, so two independent streams of loads are in flight.
// Beside the 4 KiB T0 prefetch, each stream prefetches kFarPrefetchDistance
// ahead into L2 (T2) while that line is inside its half.  len_a is a whole
// number of rounds, so A ends with the joint loop and B folds its last
// len - 2 * len_a (< 512) bytes alone.  The halves then join as
// crc32_combine does: register(A, crc) * x^(8 * (len - len_a)) mod P
// ^ register(B, 0).
__attribute__((target(FTC_CRC32_WIDE_TARGET))) std::uint32_t fold_vpclmul_2x(
    std::uint32_t crc, const unsigned char* p, std::size_t len) {
  const std::size_t len_a = (len / 2) & ~(kWideFoldBlock - 1);
  const unsigned char* q = p + len_a;
  WideLanes a = load_first_round(p, crc);
  WideLanes b = load_first_round(q, 0);
  p += kWideFoldBlock;
  q += kWideFoldBlock;
  std::size_t left = len_a - kWideFoldBlock;  // of A; B has as much or more

  const __m512i k = broadcast(kFold256B);
  for (; left >= kFarPrefetchDistance + kWideFoldBlock;
       p += kWideFoldBlock, q += kWideFoldBlock, left -= kWideFoldBlock) {
    prefetch_round<_MM_HINT_T2>(p + kFarPrefetchDistance);
    prefetch_round<_MM_HINT_T2>(q + kFarPrefetchDistance);
    prefetch_round<_MM_HINT_T0>(p + kPrefetchDistance);
    prefetch_round<_MM_HINT_T0>(q + kPrefetchDistance);
    fold_round(a, k, p);
    fold_round(b, k, q);
  }
  for (; left >= kPrefetchDistance + kWideFoldBlock;
       p += kWideFoldBlock, q += kWideFoldBlock, left -= kWideFoldBlock) {
    prefetch_round<_MM_HINT_T0>(p + kPrefetchDistance);
    prefetch_round<_MM_HINT_T0>(q + kPrefetchDistance);
    fold_round(a, k, p);
    fold_round(b, k, q);
  }
  for (; left > 0;
       p += kWideFoldBlock, q += kWideFoldBlock, left -= kWideFoldBlock) {
    fold_round(a, k, p);
    fold_round(b, k, q);
  }

  const std::uint32_t crc_a = finish_wide(a, p, 0);
  const std::uint32_t crc_b = finish_wide(b, q, len - 2 * len_a);
  return combine_with<multiply_mod_p_clmul>(crc_a, crc_b, len - len_a);
}

#undef FTC_CRC32_WIDE_TARGET

#endif  // __x86_64__

const unsigned char* bytes_of(std::string_view data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

#if defined(__x86_64__)

// A folding kernel takes the 16-byte multiple of an input of 64 bytes or
// more, the table loop the rest (all of a short input).
template <typename Fold>
std::uint32_t fold_then_table(std::string_view data, std::uint32_t initial,
                              Fold fold) {
  std::uint32_t c = initial ^ 0xFFFFFFFFU;
  const unsigned char* p = bytes_of(data);
  std::size_t len = data.size();
  if (len >= kFoldBlock) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = fold(c, p, bulk);
    p += bulk;
    len -= bulk;
  }
  return update_portable(c, p, len) ^ 0xFFFFFFFFU;
}

#endif  // __x86_64__

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

bool vpclmul_supported() {
  static const bool supported = clmul_supported() &&
                                __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512vl") &&
                                __builtin_cpu_supports("vpclmulqdq");
  return supported;
}

std::uint32_t crc32_clmul(std::string_view data, std::uint32_t initial) {
  return fold_then_table(data, initial, fold_clmul);
}

std::uint32_t crc32_vpclmul(std::string_view data, std::uint32_t initial) {
  return fold_then_table(
      data, initial,
      [](std::uint32_t crc, const unsigned char* p, std::size_t len) {
        if (len >= kTwoStreamMin) return fold_vpclmul_2x(crc, p, len);
        return len >= kWideFoldBlock ? fold_vpclmul(crc, p, len)
                                     : fold_clmul(crc, p, len);
      });
}

#endif  // __x86_64__

Kernel active_kernel() {
  static const Kernel kernel = []() -> Kernel {
#if defined(__x86_64__)
    if (vpclmul_supported()) return crc32_vpclmul;
    if (clmul_supported()) return crc32_clmul;
#endif
    return crc32_portable;
  }();
  return kernel;
}

}  // namespace detail

namespace {

std::uint32_t resolve_then_run(std::string_view data, std::uint32_t initial);

// crc32() calls through this pointer.  It starts at resolve_then_run,
// which swaps in the CPU's kernel on the first call; after that a call
// costs one relaxed load and an indirect call, with no static-guard check.
std::atomic<detail::Kernel> g_kernel{resolve_then_run};

std::uint32_t resolve_then_run(std::string_view data, std::uint32_t initial) {
  const detail::Kernel kernel = detail::active_kernel();
  g_kernel.store(kernel, std::memory_order_relaxed);
  return kernel(data, initial);
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t initial) {
  return g_kernel.load(std::memory_order_relaxed)(data, initial);
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  return combine_with<multiply_mod_p>(crc_a, crc_b, len_b);
}

}  // namespace ftc::hash
