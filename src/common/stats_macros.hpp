// stats_macros.hpp - Generators for a component's X-macro counter list.
//
// Each stats-bearing component declares its counters once, as a list
// macro that applies a generator to every entry (the stats-macro idiom of
// Envoy's ALL_..._STATS(COUNTER)):
//
//   #define FTC_FOO_STATS(X) X(reads, "ftc_foo_reads_total")
//                            X(hits, "ftc_foo_lookups_total", "outcome", "hit")
//
// (one entry per line, each line ending in a backslash).
//
// An entry is the Stats field, the exported metric name and, where the
// series carries one next to `node`, one extra label key and value.
// Expanding the list with the generators below yields the public Stats
// POD, the private atomic twin, the snapshot body and the exporter block,
// so adding a counter is one list entry.  Every field is a std::uint64_t:
// a generated struct has no padding, and the snapshots' memcmp compares
// value bits only.
//
// Lists whose snapshot is also sent as key=value text (the server's kStats
// reply) put the key second: X(field, key, metric).  Use the KEYED
// generators for those.
#pragma once

// For the generated code.
#include <atomic>
#include <cstdint>
#include <string>

/// `std::uint64_t field = 0;` — the public POD.
#define FTC_STATS_FIELD(field, ...) std::uint64_t field = 0;
/// `std::atomic<std::uint64_t> field{0};` — the writer-side twin.
#define FTC_STATS_ATOMIC(field, ...) std::atomic<std::uint64_t> field{0};
/// Snapshot body: copies the atomic twin `stats_` into the POD `s`.
#define FTC_STATS_LOAD(field, ...) \
  s.field = stats_.field.load(std::memory_order_relaxed);
/// Exporter line: one counter series of snapshot `s` into the metrics
/// collection `out`, labelled `node` (a std::string) plus the entry's
/// optional label.
#define FTC_STATS_COUNTER(field, metric, ...) \
  out.counter(metric, {{"node", node} __VA_OPT__(, {__VA_ARGS__})}, s.field);
/// FTC_STATS_COUNTER for an X(field, key, metric) list.
#define FTC_STATS_KEYED_COUNTER(field, key, metric) \
  FTC_STATS_COUNTER(field, metric)
/// One `key=value ` token of snapshot `s`, appended to std::string `text`.
#define FTC_STATS_KEYED_TEXT(field, key, metric) \
  text += #key "=" + std::to_string(s.field) + " ";
