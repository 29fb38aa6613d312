// metrics.hpp - Process-wide metrics registry with Prometheus/JSON export.
//
// One registry snapshots the whole cluster: components either own
// first-class instruments (Counter / Gauge / Histogram, handed out by the
// registry as stable references backed by relaxed atomics) or — for the
// pre-existing stats structs (`EndpointStats`, `HvacClient::Stats`,
// `PfsFetchGuard::Stats`, SWIM agent, `store::StoreStats`) — register a
// *collector* callback that emits samples at export time from the same
// counters the legacy `stats_snapshot()` accessors read.  The collector
// pattern is what keeps migration free: the component's counters stay the
// single source of truth, the legacy accessors stay byte-identical thin
// views, and the hot path gains zero new writes.
//
// Label cardinality rules (enforced): at most kMaxLabels labels per
// series, and values are expected to come from small fixed sets (`node`,
// `op`, `outcome`).  Never label by path/key — a per-file series turns
// the registry into a second cache.
//
// Export is deterministic: series sort by (name, labels), so golden tests
// can compare full exporter output.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ftc::obs {

/// Label set for one series, e.g. {{"node","3"},{"op","read"}}.
/// Canonicalized (sorted by key) on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter (relaxed atomic; safe from any thread).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (relaxed atomic double; safe from any thread).
class Gauge {
 public:
  void set(double v) {
    bits_.store(to_bits(v), std::memory_order_relaxed);
  }
  void add(double delta);
  [[nodiscard]] double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: cumulative `le` buckets
/// plus an implicit +Inf bucket, a count, and a sum).  Buckets are
/// relaxed atomics; observe() is wait-free.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; the +Inf bucket is
  /// implicit.  Throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  struct Snapshot {
    /// Cumulative counts per configured bound (observations <= bound),
    /// same order as upper_bounds(); the +Inf count equals `count`.
    std::vector<std::uint64_t> cumulative;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }

 private:
  std::vector<double> bounds_;
  /// Per-bucket (non-cumulative) counts; index bounds_.size() = overflow.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

class MetricsRegistry {
 public:
  /// Hard cap on labels per series (cardinality rule; see header intro).
  static constexpr std::size_t kMaxLabels = 4;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument for (name, labels), creating it on first use.
  /// References stay valid for the registry's lifetime.  Throws
  /// std::invalid_argument on a malformed name, too many labels, or a
  /// type clash with an existing series.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// For histograms, `upper_bounds` applies on first creation; later
  /// lookups return the existing instrument regardless.
  Histogram& histogram(const std::string& name, const Labels& labels,
                       std::vector<double> upper_bounds);

  /// Sink a collector writes into at export time.
  class Collection {
   public:
    void counter(const std::string& name, const Labels& labels,
                 std::uint64_t value);
    void gauge(const std::string& name, const Labels& labels, double value);
    void histogram(const std::string& name, const Labels& labels,
                   const std::vector<double>& upper_bounds,
                   const std::vector<std::uint64_t>& cumulative,
                   std::uint64_t count, double sum);

   private:
    friend class MetricsRegistry;
    struct Sample;
    explicit Collection(std::vector<Sample>& out) : out_(out) {}
    std::vector<Sample>& out_;
  };

  /// Export-time callback: reads the owning component's counters and
  /// emits them as samples.  Must be thread-safe against the component's
  /// writers (components expose atomic / mutex-guarded snapshots).
  using Collector = std::function<void(Collection&)>;
  void register_collector(Collector collector);

  /// Prometheus text exposition format (text/plain version 0.0.4):
  /// `# TYPE` lines plus one sample line per series, sorted.
  [[nodiscard]] std::string export_prometheus_text() const;

  /// The same samples as a JSON document: {"metrics":[{name,type,labels,
  /// value|buckets+count+sum}, ...]}, sorted like the Prometheus export.
  [[nodiscard]] std::string export_json() const;

 private:
  struct Instrument {
    enum class Type { kCounter, kGauge, kHistogram } type;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<Instrument>> series;
  };

  Instrument& find_or_create(const std::string& name, const Labels& labels,
                             Instrument::Type type,
                             const std::vector<double>* bounds);
  void gather(std::vector<Collection::Sample>& out) const;

  mutable std::array<Stripe, kStripes> stripes_;
  mutable std::mutex collectors_mutex_;
  std::vector<Collector> collectors_;
};

}  // namespace ftc::obs
