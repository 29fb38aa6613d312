// The cache manifest wire format: round trips, and loud failure on
// anything truncated or malformed (a half-restored node is worse than a
// cold one).
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "store/manifest.hpp"

namespace ftc::store {
namespace {

Manifest sample() {
  Manifest manifest;
  manifest.entries.push_back({"/lustre/a.tfrecord", "nvme", 4096, 7});
  manifest.entries.push_back({"/lustre/b.tfrecord", "nvme", 128, 0});
  manifest.entries.push_back({"/lustre/c.tfrecord", "ram", 1 << 20, 42});
  return manifest;
}

TEST(Manifest, SerializeParseRoundTrip) {
  const Manifest original = sample();
  const auto parsed = Manifest::parse(original.serialize());
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed.value().entries.size(), original.entries.size());
  for (std::size_t i = 0; i < original.entries.size(); ++i) {
    EXPECT_EQ(parsed.value().entries[i].path, original.entries[i].path);
    EXPECT_EQ(parsed.value().entries[i].tier, original.entries[i].tier);
    EXPECT_EQ(parsed.value().entries[i].bytes, original.entries[i].bytes);
    EXPECT_EQ(parsed.value().entries[i].generation,
              original.entries[i].generation);
  }
  EXPECT_EQ(parsed.value().total_bytes(), original.total_bytes());
}

TEST(Manifest, EmptyRoundTrip) {
  const auto parsed = Manifest::parse(Manifest{}.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  EXPECT_EQ(parsed.value().total_bytes(), 0u);
}

TEST(Manifest, TruncationFailsLoudly) {
  std::string text = sample().serialize();
  // Drop the footer entirely — a partially written manifest.
  const auto footer = text.rfind("end ");
  ASSERT_NE(footer, std::string::npos);
  EXPECT_FALSE(Manifest::parse(text.substr(0, footer)).is_ok());
  // Drop one row but keep the footer — the count disagrees.
  std::string missing_row = sample().serialize();
  const auto row = missing_row.find("/lustre/b.tfrecord");
  const auto row_end = missing_row.find('\n', row);
  missing_row.erase(row, row_end - row + 1);
  EXPECT_FALSE(Manifest::parse(missing_row).is_ok());
}

TEST(Manifest, GarbageRejected) {
  EXPECT_FALSE(Manifest::parse("").is_ok());
  EXPECT_FALSE(Manifest::parse("not a manifest\n").is_ok());
  EXPECT_FALSE(Manifest::parse("ftc-manifest v2\nend 0\n").is_ok());
  EXPECT_FALSE(
      Manifest::parse("ftc-manifest v1\n/p\tnvme\tNaN\t0\nend 1\n").is_ok());
}

TEST(Manifest, FuzzedMutationsNeverCrash) {
  // Seeded byte flips, truncations and insertions of a valid manifest must
  // each parse or fail cleanly — never crash or read out of bounds (ASan
  // runs this through store_test).  Whatever parses must be a manifest the
  // store could replay: known tiers, non-empty paths, and a row set that
  // survives its own round trip.
  Manifest source = sample();
  for (std::uint64_t i = 0; i < 8; ++i) {
    source.entries.push_back(
        {"/lustre/file_" + std::to_string(i), "nvme", i * 4096, 100 + i});
  }
  const std::string valid = source.serialize();
  Rng rng(0x3A41F);
  std::size_t parsed_ok = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.below(6));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(mutated.size() + 1);
      switch (rng.below(3)) {
        case 0:  // flip one byte
          if (pos < mutated.size()) {
            mutated[pos] = static_cast<char>(rng.below(256));
          }
          break;
        case 1:  // truncate
          mutated.resize(pos);
          break;
        default: {  // insert a short run, biased toward the format's syntax
          static constexpr char kSyntax[] = "\t\n0123456789 endnvmram";
          const std::size_t run = 1 + rng.below(4);
          std::string insert;
          for (std::size_t k = 0; k < run; ++k) {
            insert += rng.chance(0.5)
                          ? kSyntax[rng.below(sizeof(kSyntax) - 1)]
                          : static_cast<char>(rng.below(256));
          }
          mutated.insert(pos, insert);
          break;
        }
      }
    }
    const auto result = Manifest::parse(mutated);
    if (!result.is_ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++parsed_ok;
    const Manifest& manifest = result.value();
    for (const auto& entry : manifest.entries) {
      EXPECT_FALSE(entry.path.empty());
      EXPECT_TRUE(entry.tier == "ram" || entry.tier == "nvme") << entry.tier;
    }
    const auto again = Manifest::parse(manifest.serialize());
    ASSERT_TRUE(again.is_ok()) << mutated;
    ASSERT_EQ(again.value().entries.size(), manifest.entries.size());
    for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
      EXPECT_EQ(again.value().entries[i].path, manifest.entries[i].path);
      EXPECT_EQ(again.value().entries[i].bytes, manifest.entries[i].bytes);
      EXPECT_EQ(again.value().entries[i].generation,
                manifest.entries[i].generation);
    }
  }
  // Some mutations (e.g. a digit flipped inside a byte count, or bytes
  // past the footer) still parse; the loop must exercise both outcomes.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_LT(parsed_ok, 2000u);
}

}  // namespace
}  // namespace ftc::store
