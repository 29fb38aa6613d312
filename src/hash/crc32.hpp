// crc32.hpp - CRC-32 (IEEE 802.3 / zlib polynomial, reflected 0xEDB88320).
//
// The cluster's payload integrity check: the server memoizes a CRC per
// cached buffer (`payload_crc`) and stamps it on every response, and the
// client verifies it before handing bytes to training (`accept_response`,
// `peer_rescue`, prefetch completions).
//
// Two kernels compute identical values.  On x86-64 CPUs with PCLMULQDQ,
// inputs of 64 bytes or more are folded 64 bytes at a time with carry-less
// multiplies and a Barrett reduction; everything else (other CPUs and
// architectures, short inputs, the last 0-15 bytes) runs a bytewise table
// loop.  The CPU is probed once, on first use.
//
// A client verifies bytes it has not touched yet, so the folding loop
// prefetches kPrefetchDistance (4 KiB) ahead while that line is still
// inside the input.  Release build, 4-vCPU x86-64 VM: 14-18 GiB/s on a
// cache-resident buffer (bench_micro_hashring BM_Crc32), and on 1 MiB
// slices of a 64 MiB buffer (BM_Crc32Cold) 5-5.5 GiB/s without the
// prefetch, 9.5-11 GiB/s with it.  Inputs under 4 KiB + 128 B never prefetch.
// hash_test places inputs flush against a PROT_NONE page to show that no
// kernel loads past the end of its input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ftc::hash {

/// Standard zlib-compatible CRC-32.  `initial` chains calls:
/// crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(std::string_view data, std::uint32_t initial = 0);

namespace detail {

// The individual kernels behind crc32(), exposed for tests.
std::uint32_t crc32_portable(std::string_view data, std::uint32_t initial);

#if defined(__x86_64__)
/// True when the CPU has PCLMULQDQ and SSE4.1; crc32_clmul needs both.
bool clmul_supported();
std::uint32_t crc32_clmul(std::string_view data, std::uint32_t initial);

/// How far ahead of the 64-byte fold crc32_clmul prefetches, in bytes.
/// Inputs shorter than this plus 128 bytes are folded without prefetches.
inline constexpr std::size_t kPrefetchDistance = 4096;
#endif

}  // namespace detail

}  // namespace ftc::hash
