// crc32.hpp - CRC-32 (IEEE 802.3 / zlib polynomial, reflected 0xEDB88320).
//
// The cluster's payload integrity check: the server memoizes a CRC per
// cached buffer (`payload_crc`) and stamps it on every response, and the
// client verifies it before handing bytes to training (`accept_response`,
// `peer_rescue`, prefetch completions).
//
// Three kernels compute identical values.  On x86-64 CPUs with AVX-512F,
// AVX-512VL and VPCLMULQDQ, a 16-byte-multiple bulk of 256 bytes or more
// is folded 256 bytes a round in four 512-bit registers (sixteen 128-bit
// lanes).  On CPUs with PCLMULQDQ (and, on the wide CPUs, for a bulk of
// 64-255 bytes) the bulk is folded 64 bytes a round in four 128-bit
// registers.  Both finish with the same 16-byte folds and Barrett
// reduction.  Everything else (other CPUs and architectures, inputs under
// 64 bytes, the last 0-15 bytes) runs a bytewise table loop.  crc32()
// calls through a function pointer that is set to the CPU's kernel on the
// first call; no option or build flag selects it.
//
// A client verifies bytes it has not touched yet, so both folding loops
// prefetch kPrefetchDistance (4 KiB) ahead while that line is still inside
// the input (one line per 64 bytes folded); inputs under 4 KiB + 128 B
// (128-bit) or 4 KiB + 512 B (512-bit) never prefetch.  A bulk of
// kTwoStreamMin (32 KiB) or more takes a two-stream 512-bit fold: the two
// halves fold at once, each in its own four registers and each also
// prefetching 16 KiB ahead into L2, and the halves join with
// crc32_combine's math.  That keeps a verify fast on a core that has just
// woken from a sleep, where the single stream ran at less than half its
// busy-loop speed (DESIGN.md §6).  Smaller inputs run the
// single-stream code unchanged.  Release build, 4-vCPU Xeon VM with
// AVX-512 VPCLMULQDQ (bench_micro_hashring, medians of five repetitions):
// on a cache-resident buffer (BM_Crc32) the 128-bit fold runs at
// 17.7-18.8 GiB/s and the 512-bit fold at 56-74 GiB/s (the far prefetch
// costs ~15-25% there from 32 KiB up); on 1 MiB slices of a 64 MiB buffer
// (BM_Crc32Cold), which is memory-bound, at 16.0 and 20.8 GiB/s; after a
// 200 us sleep (BM_Crc32AfterIdle, 1 MiB) at 7.8 and 10.8 GiB/s.  hash_test
// places inputs flush against a PROT_NONE page to show that no kernel
// loads past the end of its input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ftc::hash {

/// Standard zlib-compatible CRC-32.  `initial` chains calls:
/// crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(std::string_view data, std::uint32_t initial = 0);

/// zlib's crc32_combine: given crc_a = crc32(a) (any `initial`) and
/// crc_b = crc32(b), returns the CRC of a followed by b, where
/// len_b = b.size().  That is crc_b ^ (crc_a * x^(8 * len_b) mod P): a's
/// CRC run on over len_b zero bytes, plus b's own.  Portable code: one
/// 32-step product per set bit of len_b, plus one.  The two-stream fold
/// joins its halves with the same math on PCLMULQDQ.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b);

namespace detail {

// The individual kernels behind crc32(), exposed for tests.
std::uint32_t crc32_portable(std::string_view data, std::uint32_t initial);

#if defined(__x86_64__)
/// True when the CPU has PCLMULQDQ and SSE4.1; crc32_clmul needs both.
bool clmul_supported();
std::uint32_t crc32_clmul(std::string_view data, std::uint32_t initial);

/// True when the CPU (and OS) support AVX-512F, AVX-512VL and VPCLMULQDQ
/// as well as what crc32_clmul needs; crc32_vpclmul needs all of them.
bool vpclmul_supported();
std::uint32_t crc32_vpclmul(std::string_view data, std::uint32_t initial);

/// How far ahead of the fold both folding kernels prefetch, in bytes.
/// Inputs shorter than this plus two rounds (128 bytes for crc32_clmul,
/// 512 for crc32_vpclmul) are folded without prefetches.
inline constexpr std::size_t kPrefetchDistance = 4096;

/// crc32_vpclmul folds a bulk (the input's 16-byte multiple) of this many
/// bytes or more in two streams joined by crc32_combine's math.
inline constexpr std::size_t kTwoStreamMin = 32 * 1024;
#endif

using Kernel = std::uint32_t (*)(std::string_view, std::uint32_t);

/// The kernel crc32() runs on this CPU.
Kernel active_kernel();

}  // namespace detail

}  // namespace ftc::hash
