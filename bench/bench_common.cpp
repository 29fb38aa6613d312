#include "bench_common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/string_util.hpp"

namespace ftc::bench {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double alpha,
                             std::uint64_t seed)
    : alpha_(alpha < 0.0 ? 0.0 : alpha), rng_(seed) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -alpha_);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

std::uint64_t ZipfGenerator::next() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

double ZipfGenerator::probability(std::uint64_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

ScrambledZipfGenerator::ScrambledZipfGenerator(std::uint64_t n, double alpha,
                                               std::uint64_t seed,
                                               std::uint64_t stream)
    : zipf_(n, alpha, seed ^ (stream * 0x9E3779B97F4A7C15ULL + stream)),
      perm_(zipf_.size()) {
  std::iota(perm_.begin(), perm_.end(), 0);
  // The permutation depends on the seed alone — never on the stream — so
  // every source agrees on which ids are hot.
  Rng perm_rng(seed ^ 0x5C7A3B1EDC0FFEE5ULL);
  perm_rng.shuffle(perm_);
}

// --- Json -------------------------------------------------------------

namespace {

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Json::Json(double value) {
  if (!std::isfinite(value)) return;
  char buf[64];
  const double magnitude = std::fabs(value);
  std::snprintf(buf, sizeof(buf),
                magnitude >= 1e6 && magnitude < 1e15 ? "%.0f" : "%.6g",
                value);
  text_ = buf;
}

Json::Json(const std::string& value) : text_() {
  append_quoted(text_, value);
}

Json::Json(std::initializer_list<std::pair<std::string, Json>> members)
    : kind_(Kind::kObject), members_(members) {}

Json Json::array(std::vector<Json> items) {
  Json json;
  json.kind_ = Kind::kArray;
  json.items_ = std::move(items);
  return json;
}

Json Json::raw(std::string text) {
  Json json;
  json.text_ = std::move(text);
  return json;
}

Json& Json::set(std::string_view key, Json value) {
  if (kind_ == Kind::kScalar) kind_ = Kind::kObject;
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

void Json::dump_to(std::string& out, int depth) const {
  if (kind_ == Kind::kScalar) {
    out += text_;
    return;
  }
  const bool object = kind_ == Kind::kObject;
  const std::size_t size = object ? members_.size() : items_.size();
  const auto child = [&](std::size_t i) -> const Json& {
    return object ? members_[i].second : items_[i];
  };
  // A container of scalars fits on one line; anything nested gets one
  // member per line.
  bool flat = true;
  for (std::size_t i = 0; i < size; ++i) {
    flat = flat && child(i).kind_ == Kind::kScalar;
  }
  const std::string indent(2 * static_cast<std::size_t>(depth) + 2, ' ');
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) out += ',';
    if (flat) {
      if (i > 0) out += ' ';
    } else {
      out += '\n';
      out += indent;
    }
    if (object) {
      append_quoted(out, members_[i].first);
      out += ": ";
    }
    child(i).dump_to(out, depth + 1);
  }
  if (!flat && size > 0) {
    out += '\n';
    out.append(indent.size() - 2, ' ');
  }
  out += object ? '}' : ']';
}

// --- Args -------------------------------------------------------------

namespace {

// A number: the whole value, in range (an unsigned type rejects '-').
template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
bool parse_value(std::string_view raw, T& out) {
  const auto [end, ec] = std::from_chars(raw.begin(), raw.end(), out);
  return ec == std::errc() && end == raw.end() && !raw.empty() &&
         std::isfinite(static_cast<double>(out));
}

bool parse_value(std::string_view raw, bool& out) {
  if (raw == "1" || raw == "true" || raw == "yes" || raw == "on") {
    out = true;
    return true;
  }
  if (raw == "0" || raw == "false" || raw == "no" || raw == "off") {
    out = false;
    return true;
  }
  return false;
}

bool parse_value(std::string_view raw, std::string& out) {
  out = std::string(raw);
  return !raw.empty();
}

template <typename T>
bool parse_value(std::string_view raw, std::vector<T>& out) {
  out.clear();
  for (const std::string& part : split(raw, ',')) {
    T item{};
    if (!parse_value(trim(part), item)) return false;
    out.push_back(item);
  }
  return true;
}

template <typename T>
Json to_json(const T& value) {
  return Json(value);
}

template <typename T>
Json to_json(const std::vector<T>& values) {
  return Json::array(std::vector<Json>(values.begin(), values.end()));
}

// How a default reads on the usage line.
std::string usage_text(const std::string& value) { return value; }
std::string usage_text(bool value) { return value ? "1" : "0"; }
template <typename T>
std::string usage_text(const T& value) {
  return to_json(value).dump();
}
template <typename T>
std::string usage_text(const std::vector<T>& values) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ',';
    out += usage_text(v);
  }
  return out;
}

// What a malformed value should have been, for the error message.
const char* wanted(std::int64_t) { return "an integer"; }
const char* wanted(std::uint32_t) { return "a non-negative 32-bit integer"; }
const char* wanted(double) { return "a number"; }
const char* wanted(bool) { return "0 or 1"; }
const char* wanted(const std::string&) { return "a non-empty value"; }
template <typename T>
const char* wanted(const std::vector<T>&) {
  return "a comma-separated list of numbers";
}

}  // namespace

Args::Args(int argc, char** argv)
    : program_(std::filesystem::path(argv[0]).filename().string()) {
  auto parsed = Config::from_args(argc - 1, argv + 1);
  if (parsed.is_ok()) {
    given_ = std::move(parsed).value();
  } else {
    errors_.push_back(parsed.status().message());
  }
}

template <typename T>
T Args::read(std::string_view key, T fallback) const {
  const bool first = options_.find(key) == nullptr;
  if (first) {
    usage_ += " [";
    usage_ += key;
    usage_ += '=';
    usage_ += usage_text(fallback);
    usage_ += ']';
  }
  T value = fallback;
  const auto it = given_.entries().find(key);
  if (it != given_.entries().end() && !parse_value(it->second, value)) {
    errors_.push_back(std::string(key) + " wants " + wanted(fallback) +
                      ", got '" + it->second + "'");
    value = fallback;
    if (finished_) finish();
  }
  if (first) options_.set(key, to_json(value));
  return value;
}

std::int64_t Args::get_int(std::string_view key, std::int64_t fallback) const {
  return read(key, fallback);
}

std::uint32_t Args::get_u32(std::string_view key,
                            std::uint32_t fallback) const {
  return read(key, fallback);
}

double Args::get_double(std::string_view key, double fallback) const {
  return read(key, fallback);
}

bool Args::get_bool(std::string_view key, bool fallback) const {
  return read(key, fallback);
}

std::string Args::get_string(std::string_view key,
                             std::string fallback) const {
  return read(key, std::move(fallback));
}

std::vector<std::int64_t> Args::get_int_list(
    std::string_view key, std::vector<std::int64_t> fallback) const {
  return read(key, std::move(fallback));
}

std::vector<double> Args::get_double_list(
    std::string_view key, std::vector<double> fallback) const {
  return read(key, std::move(fallback));
}

void Args::finish() const {
  finished_ = true;
  for (const auto& [key, value] : given_.entries()) {
    if (options_.find(key) == nullptr) {
      errors_.push_back("unknown key '" + key + "'");
    }
  }
  if (errors_.empty()) return;
  std::string why;
  for (const std::string& error : errors_) {
    if (!why.empty()) why += "; ";
    why += error;
  }
  fail(why);
}

void Args::fail(const std::string& why) const {
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n", program_.c_str(), why.c_str(),
               program_.c_str(), usage_.c_str());
  std::exit(2);
}

// --- artifacts and gates -----------------------------------------------

namespace {

// The first line `command` prints, or "" when it cannot run.
std::string first_line_of(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char buf[128] = {};
  const bool read = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  pclose(pipe);
  return read ? std::string(trim(buf)) : "";
}

// The checkout's HEAD, read when the artifact is written (a sha captured
// at configure time would go stale after the next commit), with a
// "-dirty" suffix when tracked files differ from it.
std::string git_sha() {
  if (!std::filesystem::exists(FTC_SOURCE_DIR "/.git")) return "none";
  const std::string git = "git -C '" FTC_SOURCE_DIR "' ";
  const std::string sha = first_line_of(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "none";
  const std::string changed =
      first_line_of(git + "status --porcelain --untracked-files=no 2>&1");
  return changed.empty() ? sha : sha + "-dirty";
}

}  // namespace

Json artifact(std::string_view bench, const Args& args) {
  return Json{{"bench", bench},
              {"git_sha", git_sha()},
              {"build_type", FTC_BUILD_TYPE},
              {"nproc", std::max(1U, std::thread::hardware_concurrency())},
              {"config", args.options()}};
}

void write_json(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  out << doc.dump() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

Json inline_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Json{};
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text(trim(ss.str()));
  return text.empty() ? Json{} : Json::raw(text);
}

double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

bool Gate::check(bool pass, const char* fmt, ...) {
  std::fflush(stdout);
  std::FILE* out = pass ? stdout : stderr;
  std::fputs(pass ? "ok: " : "FAIL: ", out);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(out, fmt, ap);
  va_end(ap);
  std::fputc('\n', out);
  if (!pass) failed_ = true;
  return pass;
}

// --- the paper-scale DES configuration ----------------------------------

namespace {

destim::ExperimentConfig paper_defaults() {
  destim::ExperimentConfig config;

  // Dataset: cosmoUniverse scaled ~8x down (DESIGN.md substitution table):
  // 10,240 TFRecords x 16 MiB = 160 GiB.
  config.file_count = 10240;
  // cosmoUniverse's 8:1 train:validation split.
  config.validation_file_count = 1280;
  config.file_bytes = 16ULL << 20;
  // Sample-level shuffling: 4 samples/TFRecord, so each lost file is
  // touched by ~4 distinct clients per epoch (CosmoFlow packs 64; 4 keeps
  // the amplification while bounding simulated events).
  config.samples_per_file = 4;
  config.epochs = 5;
  config.files_per_step_per_node = 4;  // samples per node per step
  config.compute_time_per_step = 40 * simtime::kMillisecond;

  // Devices: Frontier Table II numbers.
  config.nvme.read_bytes_per_second = 8.0e9;
  config.nvme.write_bytes_per_second = 4.0e9;
  config.nic_bytes_per_second = 25.0e9;  // Slingshot 200 Gb/s

  // Orion: huge aggregate pool (a job rarely saturates it), but each
  // client stream is capped and every access pays a bursty contention
  // tail — the tail's per-step maximum is what amplifies stragglers as
  // concurrency grows (Sec V-B1).
  config.pfs.read_bytes_per_second = 200.0e9;
  config.pfs.background_load_fraction = 0.3;
  config.pfs.per_client_bytes_per_second = 400.0e6;
  config.pfs.access_latency = 20 * simtime::kMillisecond;
  config.pfs.access_latency_tail_mean = 30 * simtime::kMillisecond;

  // FT knobs (TIMEOUT_SECONDS / TIMEOUT_LIMIT): the paper sets the TTL
  // just above the longest healthy-path latency, so detection is cheap
  // relative to one PFS access.
  config.rpc_timeout = 5 * simtime::kMillisecond;
  config.timeout_limit = 2;
  config.vnodes_per_node = 100;
  config.elastic_restart_overhead = 300 * simtime::kMillisecond;
  return config;
}

void apply_overrides(destim::ExperimentConfig& config, const Args& args) {
  config.file_count = static_cast<std::uint32_t>(
      args.get_int("files", config.file_count));
  config.validation_file_count = static_cast<std::uint32_t>(
      args.get_int("val_files", config.validation_file_count));
  config.file_bytes = static_cast<std::uint64_t>(
      args.get_double("file_mb",
                      static_cast<double>(config.file_bytes) / (1 << 20)) *
      (1 << 20));
  config.epochs =
      static_cast<std::uint32_t>(args.get_int("epochs", config.epochs));
  config.samples_per_file = static_cast<std::uint32_t>(
      args.get_int("samples_per_file", config.samples_per_file));
  config.files_per_step_per_node = static_cast<std::uint32_t>(
      args.get_int("files_per_step", config.files_per_step_per_node));
  config.compute_time_per_step = simtime::from_ms(args.get_double(
      "compute_ms", simtime::to_ms(config.compute_time_per_step)));
  config.rpc_timeout = simtime::from_ms(
      args.get_double("timeout_ms", simtime::to_ms(config.rpc_timeout)));
  config.timeout_limit = static_cast<std::uint32_t>(
      args.get_int("limit", config.timeout_limit));
  config.vnodes_per_node = static_cast<std::uint32_t>(
      args.get_int("vnodes", config.vnodes_per_node));
  config.elastic_restart_overhead = simtime::from_ms(args.get_double(
      "restart_ms", simtime::to_ms(config.elastic_restart_overhead)));
  config.pfs.read_bytes_per_second =
      args.get_double("pfs_gbps",
                      config.pfs.read_bytes_per_second / 1e9) *
      1e9;
  config.pfs.per_client_bytes_per_second =
      args.get_double("pfs_client_mbps",
                      config.pfs.per_client_bytes_per_second / 1e6) *
      1e6;
  config.pfs.access_latency = simtime::from_ms(
      args.get_double("pfs_lat_ms", simtime::to_ms(config.pfs.access_latency)));
  config.pfs.access_latency_tail_mean = simtime::from_ms(args.get_double(
      "pfs_tail_ms", simtime::to_ms(config.pfs.access_latency_tail_mean)));
  config.shuffle_seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.shuffle_seed)));
}

}  // namespace

PaperConfig::PaperConfig(const Args& args) : base_(paper_defaults()) {
  apply_overrides(base_, args);
}

destim::ExperimentConfig PaperConfig::operator()(std::uint32_t node_count,
                                                 cluster::FtMode mode) const {
  destim::ExperimentConfig config = base_;
  config.node_count = node_count;
  config.mode = mode;
  return config;
}

std::vector<std::uint32_t> scales_from(const Args& args) {
  const auto values = args.get_int_list("scales", {64, 128, 256, 512, 1024});
  std::vector<std::uint32_t> scales;
  scales.reserve(values.size());
  for (std::int64_t v : values) {
    if (v > 0) scales.push_back(static_cast<std::uint32_t>(v));
  }
  return scales;
}

void print_table(const std::string& title, const TextTable& table) {
  std::printf("\n=== %s ===\n%s\n--- csv ---\n%s", title.c_str(),
              table.to_string().c_str(), table.to_csv().c_str());
}

std::string minutes_label(double simulated_minutes) {
  return format_double(simulated_minutes, 2);
}

}  // namespace ftc::bench
