#include "hash/crc32.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace ftc::hash {
namespace {

// Bit-at-a-time reference: the definition the fast kernels must match.
std::uint32_t reference_crc32(std::string_view data, std::uint32_t initial) {
  std::uint32_t c = initial ^ 0xFFFFFFFFU;
  for (char ch : data) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

// Deterministic pseudo-random bytes (xorshift), so failures reproduce.
std::string random_bytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (auto& ch : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ch = static_cast<char>(x >> 56);
  }
  return out;
}

// Standard CRC-32 (zlib) test vectors.
TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000U);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43U);
  EXPECT_EQ(crc32("abc"), 0x352441C2U);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339U);
}

TEST(Crc32, Deterministic) {
  EXPECT_EQ(crc32("payload"), crc32("payload"));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "cached file contents";
  const auto original = crc32(data);
  data[5] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc32, IncrementalMatchesWhole) {
  // crc32(a+b) == crc32(b, initial=crc32(a)) with our initial-chaining API.
  const std::string a = "first half / ";
  const std::string b = "second half";
  const auto whole = crc32(a + b);
  const auto chained = crc32(b, crc32(a));
  EXPECT_EQ(chained, whole);
}

using detail::Kernel;

#if defined(__x86_64__)
// One prefetch distance plus two 256-byte rounds plus one 64-byte block:
// the longest inputs run one prefetching round of either folding loop
// before handing over to the plain loop.
constexpr std::size_t kSweepLen = detail::kPrefetchDistance + 2 * 256 + 64;
#else
constexpr std::size_t kSweepLen = 4672;
#endif

#if defined(__x86_64__)
constexpr std::size_t kTwoStreamMin = detail::kTwoStreamMin;
#else
constexpr std::size_t kTwoStreamMin = 32 * 1024;
#endif

// Input lengths that reach crc32_vpclmul's two-stream fold (a bulk of
// kTwoStreamMin or more) or sit just under it, ascending: the threshold
// -16 B, -1 B, exact, +1 B, +15 B, +16 B and +255 B; bulks that are not a
// multiple of 512 B (so the second half is longer than the first and
// folds its last bytes alone); 64 KiB, whose halves also run the far
// prefetch; 1 MiB + 13 B; and ~3 MB.
const std::vector<std::size_t>& two_stream_lengths() {
  static const std::vector<std::size_t> lens = {
      kTwoStreamMin - 16,  kTwoStreamMin - 1,      kTwoStreamMin,
      kTwoStreamMin + 1,   kTwoStreamMin + 15,     kTwoStreamMin + 16,
      kTwoStreamMin + 255, kTwoStreamMin + 272,    kTwoStreamMin + 496 + 9,
      64 * 1024,           3 * kTwoStreamMin + 400, (1U << 20) + 13,
      3'000'017};
  return lens;
}

// Each two_stream_lengths() input at start offsets 0..15, with zero and
// non-zero `initial`.  Expected values come from the table kernel, which
// the byte sweep checks against the reference, advanced over the bytes
// between consecutive lengths.
void expect_long_inputs_match(Kernel kernel) {
  constexpr std::size_t kMaxOffset = 15;
  const auto& lens = two_stream_lengths();
  const std::string buf = random_bytes(lens.back() + kMaxOffset, 19);
  for (const std::uint32_t initial : {0U, 0x12345678U}) {
    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      std::uint32_t expected = initial;
      std::size_t done = 0;
      for (const std::size_t len : lens) {
        expected = detail::crc32_portable(
            std::string_view(buf.data() + offset + done, len - done),
            expected);
        done = len;
        const std::string_view view(buf.data() + offset, len);
        ASSERT_EQ(kernel(view, initial), expected)
            << "len=" << len << " offset=" << offset
            << " initial=" << initial;
      }
    }
  }
}

// Every length 0..kSweepLen (the 256-byte and 64-byte rounds with and
// without prefetches, the 64-byte and 16-byte single folds and every
// 0-15-byte tail) at start offsets 0..15, with zero and non-zero
// `initial`.  Expected values come from the reference, advanced one byte
// per length, so the sweep stays O(n) per offset.
void expect_matches_reference(Kernel kernel) {
  constexpr std::size_t kMaxOffset = 15;
  const std::string buf = random_bytes(kSweepLen + kMaxOffset, 7);
  for (const std::uint32_t initial : {0U, 0x12345678U}) {
    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      std::uint32_t expected = initial;
      for (std::size_t len = 0; len <= kSweepLen; ++len) {
        const std::string_view view(buf.data() + offset, len);
        ASSERT_EQ(kernel(view, initial), expected)
            << "len=" << len << " offset=" << offset
            << " initial=" << initial;
        if (len < kSweepLen) {
          expected = reference_crc32(
              std::string_view(buf.data() + offset + len, 1), expected);
        }
      }
    }
  }
  const std::string big = random_bytes((1U << 20) + 13, 11);
  EXPECT_EQ(kernel(big, 0), reference_crc32(big, 0));
  EXPECT_EQ(kernel(big, 0xDEADBEEFU), reference_crc32(big, 0xDEADBEEFU));
  expect_long_inputs_match(kernel);
}

TEST(Crc32, PortableKernelMatchesReference) {
  expect_matches_reference(detail::crc32_portable);
}

#if defined(__x86_64__)
TEST(Crc32, ClmulKernelMatchesReference) {
  if (!detail::clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  }
  expect_matches_reference(detail::crc32_clmul);
}

TEST(Crc32, WideKernelMatchesReference) {
  if (!detail::vpclmul_supported()) {
    GTEST_SKIP() << "CPU lacks AVX-512F/AVX-512VL/VPCLMULQDQ";
  }
  expect_matches_reference(detail::crc32_vpclmul);
  const std::string zeros(1U << 20, '\0');
  EXPECT_EQ(detail::crc32_vpclmul(zeros, 0), 0xA738EA1CU);
}

TEST(Crc32, DispatchMatchesTheCpusKernel) {
  const Kernel expected_kernel = detail::vpclmul_supported()
                                     ? detail::crc32_vpclmul
                                 : detail::clmul_supported()
                                     ? detail::crc32_clmul
                                     : detail::crc32_portable;
  // Lengths either side of the 64-byte fold threshold and its 16-byte
  // steps, and of the 256-byte wide fold threshold and its 64-byte steps.
  constexpr std::size_t kLens[] = {0,   15,  63,  64,  65,  79,  80,
                                   127, 128, 130, 255, 256, 257, 271,
                                   272, 320, 511, 512};
  const std::string buf = random_bytes(512, 9);
  for (const std::size_t len : kLens) {
    const std::string_view view(buf.data(), len);
    EXPECT_EQ(crc32(view, 0x12345678U), expected_kernel(view, 0x12345678U))
        << "len=" << len;
  }
}

TEST(Crc32, DispatchSelectsWideKernelWhenTheCpuHasIt) {
  const bool wide = __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512vl") &&
                    __builtin_cpu_supports("vpclmulqdq") &&
                    detail::clmul_supported();
  EXPECT_EQ(detail::vpclmul_supported(), wide);
  if (wide) {
    EXPECT_EQ(detail::active_kernel(), &detail::crc32_vpclmul);
  } else {
    EXPECT_NE(detail::active_kernel(), &detail::crc32_vpclmul);
  }
}

TEST(Crc32, ClmulKernelKnownVectors) {
  if (!detail::clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  }
  // 1 MiB of zeros: a well-known zlib value that reaches the 64-byte fold.
  const std::string zeros(1U << 20, '\0');
  EXPECT_EQ(detail::crc32_clmul(zeros, 0), 0xA738EA1CU);
  EXPECT_EQ(detail::crc32_portable(zeros, 0), 0xA738EA1CU);
}
#endif

// Readable pages followed by one PROT_NONE page: an input copied so that
// it ends flush against the guard faults on any load past its last byte.
class GuardedRegion {
 public:
  explicit GuardedRegion(std::size_t capacity)
      : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        readable_((capacity + page_ - 1) / page_ * page_) {
    void* base = mmap(nullptr, readable_ + page_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return;
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + readable_, page_, PROT_NONE) != 0) {
      munmap(base_, readable_ + page_);
      base_ = nullptr;
    }
  }
  ~GuardedRegion() {
    if (base_ != nullptr) munmap(base_, readable_ + page_);
  }
  GuardedRegion(const GuardedRegion&) = delete;
  GuardedRegion& operator=(const GuardedRegion&) = delete;

  bool ok() const { return base_ != nullptr; }

  /// Copies `data` to end at the guard page and returns the copy.
  std::string_view place_at_end(std::string_view data) {
    char* start = base_ + readable_ - data.size();
    std::memcpy(start, data.data(), data.size());
    return {start, data.size()};
  }

 private:
  std::size_t page_;
  std::size_t readable_;
  char* base_ = nullptr;
};

#if defined(__x86_64__)
constexpr std::size_t kGuardSweepLen = 2 * detail::kPrefetchDistance + 64;
#else
constexpr std::size_t kGuardSweepLen = 4160;
#endif

// No kernel loads a byte past the end of its input.  Every length up to
// two prefetch distances plus one 64-byte block (so the prefetching and
// the plain 256-byte and 64-byte loops, their boundaries, the single
// 64-byte and 16-byte folds and the table tail all run) ends flush against
// a guard page; the page boundary is 16-byte aligned, so consecutive
// lengths start at all 16 alignments.
void expect_no_overread(Kernel kernel) {
  constexpr std::size_t kBig = (1U << 20) + 13;
  const std::size_t longest = two_stream_lengths().back() + 16;
  GuardedRegion region(longest);
  ASSERT_TRUE(region.ok()) << "mmap/mprotect failed";
  const std::string src = random_bytes(kGuardSweepLen, 13);
  const std::string_view source(src);
  std::uint32_t expected = 0;
  for (std::size_t len = 0; len <= kGuardSweepLen; ++len) {
    const auto view = region.place_at_end(source.substr(0, len));
    ASSERT_EQ(kernel(view, 0), expected) << "len=" << len;
    if (len < kGuardSweepLen) {
      expected = reference_crc32(source.substr(len, 1), expected);
    }
  }
  const std::string big = random_bytes(kBig, 17);
  EXPECT_EQ(kernel(region.place_at_end(big), 0), reference_crc32(big, 0));

  // The two-stream lengths, each with the fifteen lengths after it, so
  // every one ends flush at the guard from all 16 start alignments.
  const std::string long_src = random_bytes(longest, 23);
  const std::string_view long_source(long_src);
  for (const std::size_t first : two_stream_lengths()) {
    std::uint32_t expected =
        detail::crc32_portable(long_source.substr(0, first), 0);
    for (std::size_t len = first; len < first + 16; ++len) {
      const auto view = region.place_at_end(long_source.substr(0, len));
      ASSERT_EQ(kernel(view, 0), expected) << "len=" << len;
      expected = reference_crc32(long_source.substr(len, 1), expected);
    }
  }
}

TEST(Crc32, DispatchNeverReadsPastTheEnd) {
  expect_no_overread(crc32);
}

#if defined(__x86_64__)
TEST(Crc32, ClmulKernelNeverReadsPastTheEnd) {
  if (!detail::clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  }
  expect_no_overread(detail::crc32_clmul);
}

TEST(Crc32, WideKernelNeverReadsPastTheEnd) {
  if (!detail::vpclmul_supported()) {
    GTEST_SKIP() << "CPU lacks AVX-512F/AVX-512VL/VPCLMULQDQ";
  }
  expect_no_overread(detail::crc32_vpclmul);
}
#endif

TEST(Crc32, CombineMatchesWhole) {
  EXPECT_EQ(crc32_combine(crc32("12345"), crc32("6789"), 4), 0xCBF43926U);

  const std::string buf = random_bytes(70'000, 29);
  const std::string_view view(buf);
  const std::uint32_t whole = crc32(view);
  std::mt19937_64 rng(31);
  std::vector<std::size_t> splits = {0, 1, 15, 16, view.size() - 1,
                                     view.size()};  // view.size(): len_b = 0
  for (int i = 0; i < 40; ++i) splits.push_back(rng() % (view.size() + 1));
  for (const std::size_t split : splits) {
    const std::string_view a = view.substr(0, split);
    const std::string_view b = view.substr(split);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), whole)
        << "split=" << split;
    // An `initial` on the first part carries through, as with chaining.
    EXPECT_EQ(crc32_combine(crc32(a, 0xDEADBEEFU), crc32(b), b.size()),
              crc32(b, crc32(a, 0xDEADBEEFU)))
        << "split=" << split;
  }

  // crc32_combine(c, 0, n) runs c over n zero bytes (c * x^(8n) mod P);
  // n1 bytes then n2 bytes must equal n1 + n2 bytes.  These lengths need
  // x^(2^k) for k >= 32, which the table serves through x^(2^32) = x.
  const std::uint32_t c = crc32(view);
  const std::size_t n1 = (std::size_t{1} << 33) + 5;
  const std::size_t n2 = (std::size_t{1} << 40) + 12345;
  EXPECT_EQ(crc32_combine(crc32_combine(c, 0, n1), 0, n2),
            crc32_combine(c, 0, n1 + n2));
  EXPECT_NE(crc32_combine(c, 0, n1), c);
}

TEST(Crc32, ChainingMatchesWholeAtEverySplit) {
  const std::string buf = random_bytes(300, 3);
  const auto whole = crc32(buf);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::string_view view(buf);
    EXPECT_EQ(crc32(view.substr(split), crc32(view.substr(0, split))), whole)
        << "split=" << split;
  }
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  // 4 KiB folded in bulk plus a 15-byte tail that the table loop
  // finishes, so flips in both parts are covered.
  std::string buf = random_bytes(4096 + 15, 5);
  const auto original = crc32(buf);
  for (std::size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<char>(buf[byte] ^ (1 << bit));
      ASSERT_NE(crc32(buf), original) << "byte=" << byte << " bit=" << bit;
      buf[byte] = static_cast<char>(buf[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(crc32(buf), original);
}

}  // namespace
}  // namespace ftc::hash
