// bench_common.hpp - The one bench harness every experiment binary uses.
//
// Every bench binary reproduces one paper table/figure or drives one
// threaded-cluster scenario.  This header provides the common pieces:
// strict key=value argument parsing (Args), the artifact JSON writer
// (Json, artifact(), write_json()) that stamps every BENCH_*.json with
// the commit, build type and core count, the pass/fail gate printer
// (Gate), the calibrated paper-scale DES configuration, and uniform
// result printing (pretty table + CSV so EXPERIMENTS.md entries are
// copy-pasteable).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "destim/experiment.hpp"

namespace ftc::bench {

/// Seeded Zipf(alpha) sampler over ids [0, n): rank 0 is the hottest id,
/// alpha = 0 degenerates to uniform.  Inverse-CDF over a precomputed
/// prefix-sum table of 1/(i+1)^alpha, so draws are O(log n) and the same
/// seed always yields the same access stream — shared by bench_skew and
/// the workload ablation so their skew axes mean the same thing.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double alpha, std::uint64_t seed);

  /// Draws the next id; ids with lower rank are (exponentially) hotter.
  std::uint64_t next();

  /// Probability mass of rank `i` (diagnostics / expected-share math).
  [[nodiscard]] double probability(std::uint64_t rank) const;

  [[nodiscard]] std::uint64_t size() const { return cdf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double alpha_;
  std::vector<double> cdf_;  ///< normalized prefix sums of 1/(i+1)^alpha
  Rng rng_;
};

/// ZipfGenerator composed with a seeded random permutation of the id
/// space: popularity ranks are Zipf but which *id* is hot is scrambled,
/// so hot ids do not cluster at the low end of the namespace (hash-ring
/// placement then sees a realistic scattered hot set).
class ScrambledZipfGenerator {
 public:
  /// `seed` fixes the permutation (WHICH ids are hot); `stream`
  /// differentiates the draw sequence.  Concurrent sources sharing a
  /// dataset use one seed + distinct streams, so they agree on the hot
  /// set but do not draw in lockstep.
  ScrambledZipfGenerator(std::uint64_t n, double alpha, std::uint64_t seed,
                         std::uint64_t stream = 0);

  std::uint64_t next() { return perm_[zipf_.next()]; }

  /// The id holding popularity rank `rank` under the scramble.
  [[nodiscard]] std::uint64_t id_for_rank(std::uint64_t rank) const {
    return perm_[rank];
  }
  [[nodiscard]] double probability(std::uint64_t rank) const {
    return zipf_.probability(rank);
  }
  [[nodiscard]] std::uint64_t size() const { return zipf_.size(); }

 private:
  ZipfGenerator zipf_;
  std::vector<std::uint64_t> perm_;
};

/// A JSON value built in memory and written once: what every bench
/// artifact is made of.  Objects keep their insertion order.  A double
/// is written with 6 significant digits (integral magnitudes up to 1e15
/// in full), a non-finite double as null.
class Json {
 public:
  Json() = default;  ///< null
  Json(bool value) : text_(value ? "true" : "false") {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T value) : text_(std::to_string(value)) {}
  Json(double value);
  Json(const char* value) : Json(std::string(value)) {}
  Json(std::string_view value) : Json(std::string(value)) {}
  Json(const std::string& value);
  /// An object: `Json{{"ops", 12}, {"p99_us", 40.5}}`.
  Json(std::initializer_list<std::pair<std::string, Json>> members);

  /// An array of `items`.
  static Json array(std::vector<Json> items);
  /// Already-serialised JSON (an exporter's output), embedded verbatim.
  static Json raw(std::string text);

  /// Adds `key` to an object (a null becomes an empty object first), or
  /// replaces its value.  Returns *this.
  Json& set(std::string_view key, Json value);
  /// The value under `key` in an object, or nullptr.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Indented text: a container of scalars on one line, a container
  /// holding containers one member or item per line.
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind { kScalar, kObject, kArray };
  void dump_to(std::string& out, int depth) const;

  Kind kind_ = Kind::kScalar;
  std::string text_ = "null";  ///< a scalar's JSON token
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// Strict key=value arguments: the one parser every bench binary uses
/// (bench_micro_hashring aside, whose flags belong to google-benchmark).
/// A getter returns its fallback when the key is absent; a value that is
/// not wholly of the wanted type is an error.  Every getter records its
/// key, so finish() can reject a key no getter asked for: read every
/// option first, then call finish() before any work starts.  finish()
/// (or a getter called after it) exits 2 with the usage line, which
/// lists every option with its default.
class Args {
 public:
  Args(int argc, char** argv);

  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  /// A non-negative integer that fits 32 bits (counts, sizes, ms).
  [[nodiscard]] std::uint32_t get_u32(std::string_view key,
                                      std::uint32_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback) const;
  /// 1/0, true/false, yes/no or on/off.
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;
  /// Comma-separated, e.g. scales=64,128,256.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      std::string_view key, std::vector<std::int64_t> fallback) const;
  [[nodiscard]] std::vector<double> get_double_list(
      std::string_view key, std::vector<double> fallback) const;

  /// Exits 2 with the usage line if any value was malformed or any key
  /// was never read.
  void finish() const;
  /// Prints `why` and the usage line, then exits 2.
  [[noreturn]] void fail(const std::string& why) const;

  /// Every option read so far with the value in effect: an artifact's
  /// "config" section.
  [[nodiscard]] const Json& options() const { return options_; }

 private:
  /// Parses `key`'s value as a T (or returns `fallback`), recording the
  /// option for options() and the usage line and any error for finish().
  template <typename T>
  T read(std::string_view key, T fallback) const;

  std::string program_;
  Config given_;
  mutable Json options_;
  mutable std::string usage_;  ///< " [key=default]" per option read
  mutable std::vector<std::string> errors_;
  mutable bool finished_ = false;
};

/// A new artifact for `bench`: its name, the provenance stamp (git_sha,
/// or "none" outside a git checkout; build_type; nproc), and the options
/// in effect as "config".  Callers add their results with set().
Json artifact(std::string_view bench, const Args& args);

/// Writes `doc` to `path` and prints "wrote <path>"; exits 1 if the file
/// cannot be written.
void write_json(const std::string& path, const Json& doc);

/// The contents of a recorded JSON file (a pre-change baseline) for
/// embedding in an artifact, or null when the file is absent or empty.
Json inline_file(const std::string& path);

/// The `pct`-th percentile (nearest rank below) of ascending `sorted`;
/// 0 when empty.
double percentile(const std::vector<double>& sorted, double pct);

/// Pass/fail criteria: each check prints "ok: ..." on stdout or
/// "FAIL: ..." on stderr; exit_code() is 1 once any check failed.
class Gate {
 public:
  /// Returns `pass`.  `fmt` and the rest describe the measurement.
  bool check(bool pass, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  [[nodiscard]] bool passed() const { return !failed_; }
  [[nodiscard]] int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// The scaled-down Frontier/CosmoFlow configuration (DESIGN.md Sec 2):
/// dataset shrunk ~8x, device/network rates from Table II, PFS job-share
/// and fixed overheads scaled to preserve the paper's cache-vs-PFS cost
/// ratios, with the standard overrides (files=, file_mb=, epochs=,
/// compute_ms=, timeout_ms=, limit=, vnodes=, restart_ms=, pfs_gbps=,
/// pfs_client_mbps=, ...) read once from `args` at construction.
/// `node_count` and `mode` are the experiment axes of each call.
class PaperConfig {
 public:
  explicit PaperConfig(const Args& args);
  destim::ExperimentConfig operator()(std::uint32_t node_count,
                                      cluster::FtMode mode) const;

 private:
  destim::ExperimentConfig base_;
};

/// Node-count sweep for the scaling figures; override with scales=64,128.
std::vector<std::uint32_t> scales_from(const Args& args);

/// Prints a titled table followed by its CSV form.
void print_table(const std::string& title, const TextTable& table);

/// "64, 128, ..." label helper.
std::string minutes_label(double simulated_minutes);

}  // namespace ftc::bench
