// cluster.hpp - Wires servers, clients, transport and PFS into a test
// cluster.
//
// The threaded equivalent of one Frontier allocation running FT-Cache:
// every node hosts an HVAC server endpoint and an HVAC client (clients and
// servers are co-located in the real deployment).  Integration tests and
// the quickstart example drive this directly; scale experiments use the
// DES substrate instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hvac_client.hpp"
#include "cluster/hvac_server.hpp"
#include "cluster/pfs_store.hpp"
#include "membership/scheduler.hpp"
#include "membership/swim.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "rpc/transport.hpp"

namespace ftc::cluster {

struct ClusterConfig {
  std::uint32_t node_count = 4;
  HvacClientConfig client;
  HvacServerConfig server;
  /// Simulated PFS read latency (models the NVMe-vs-Lustre gap).
  std::chrono::microseconds pfs_read_latency{0};
  /// Concurrent latency-modelled PFS reads serviced at full speed; excess
  /// queues and stretches (a job's Lustre OST share is finite).  0 =
  /// unlimited, the legacy behaviour.
  std::uint32_t pfs_service_slots = 0;
  /// SWIM membership service (default OFF: the seed's client-local
  /// detection, bit-for-bit).  When enabled, every node gets a
  /// MembershipAgent wired into its server and (hash-ring mode) client,
  /// and a GossipScheduler drives the protocol periods.
  membership::SwimConfig membership;
  /// Observability (default OFF: no recorders, no sampling, the request
  /// path is bit-for-bit the untraced one).  The metrics registry always
  /// exists — collectors read the components' own counters at export
  /// time, so it costs nothing per request either way.
  obs::ObsConfig obs;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t node_count() const {
    return config_.node_count;
  }
  [[nodiscard]] HvacClient& client(NodeId node) { return *clients_[node]; }
  [[nodiscard]] HvacServer& server(NodeId node) { return *servers_[node]; }
  [[nodiscard]] PfsStore& pfs() { return pfs_; }
  [[nodiscard]] rpc::Transport& transport() { return transport_; }

  /// Stages `count` synthetic files of `bytes` each on the PFS; returns
  /// their paths (the dataset the job will train on).
  std::vector<std::string> stage_dataset(std::uint32_t count,
                                         std::uint32_t bytes);

  /// Reads every file once through round-robin clients so all caches are
  /// populated (the paper's epoch-1 warm-up) and waits for every
  /// write-behind recache to land.
  void warm_caches(const std::vector<std::string>& paths);

  /// Crash-stop failure injection: the node's endpoint discards requests
  /// from now on (SLURM drain equivalent).
  void fail_node(NodeId node);

  /// Undoes fail_node: the endpoint serves again (a drained node handed
  /// back to the job).  When `lose_cache` is true the node's NVMe state
  /// is wiped first, so after reinstatement its keys recache from the PFS
  /// on first touch — the gray-failure recovery experiment.
  void restore_node(NodeId node, bool lose_cache = false);

  /// Kill-and-warm-restart (server.store.nvme_bytes > 0): destroys the
  /// node's server process — RAM tier, counters, freshness ledger all
  /// lost — and boots a fresh incarnation against the node's surviving
  /// NVMe device.  The new server rebuilds its cold tier from the
  /// device's manifest, validating each entry's generation against the
  /// ledgers of the other alive nodes (the in-process stand-in for a
  /// metadata query on rejoin).  Returns the number of entries restored.
  /// Without a cold tier this degrades to restore_node(node, /*lose=*/true).
  std::size_t restart_node_warm(NodeId node);

  /// Elastic scale-up: provisions a new node (server + client) and
  /// announces it to every existing client.  Returns the new node's id.
  /// In ring mode only ~1/(N+1) of keys migrate to it, each recached from
  /// the PFS on first touch.
  NodeId add_node();

  [[nodiscard]] bool node_is_failed(NodeId node) const {
    return transport_.is_killed(node);
  }

  /// Sum of cached files across all (alive) servers.
  [[nodiscard]] std::size_t total_cached_files() const;

  // --- membership service (only when config.membership.enabled) --------
  [[nodiscard]] bool membership_enabled() const { return !agents_.empty(); }
  /// The node's membership agent; only valid when membership_enabled().
  [[nodiscard]] membership::MembershipAgent& membership(NodeId node) {
    return *agents_[node];
  }
  /// One synchronous protocol round over every agent (manual-clock mode;
  /// with `membership.background` the scheduler thread does this).
  void tick_membership();

  // --- observability ---------------------------------------------------
  /// Unified metrics over every component's counters (always available;
  /// export_prometheus_text() / export_json() snapshot them on demand).
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() { return metrics_; }
  /// The node's flight recorder; nullptr unless config.obs.tracing.
  [[nodiscard]] obs::FlightRecorder* flight_recorder(NodeId node) {
    return node < recorders_.size() ? recorders_[node].get() : nullptr;
  }
  /// Every node's trace records merged into one timeline (sorted by
  /// start time).  Empty unless config.obs.tracing.
  [[nodiscard]] std::vector<obs::Record> dump_traces() const;

 private:
  /// Constructs node `n`'s server, handing it the node's NVMe device
  /// (created on first use) when the store has a cold tier, and
  /// registers its endpoint with admission/load-report knobs applied.
  void boot_server(NodeId node);
  /// Attaches node `n`'s recorder to its server, client, transport
  /// endpoint, PFS guard and (if present) membership agent.
  void wire_node_observability(NodeId node);
  /// The registry collector: walks every node's stats snapshot.
  void collect_metrics(obs::MetricsRegistry::Collection& out) const;

  ClusterConfig config_;
  PfsStore pfs_;
  obs::MetricsRegistry metrics_;
  /// Declared before transport_ (so destroyed after it): transport
  /// teardown drains async completions that still record spans.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  rpc::Transport transport_;
  /// Per-node NVMe volumes (cold tier only; empty otherwise).
  /// Owned here, NOT by the servers, because the device outlives a server
  /// crash — that lifetime split is what makes warm restarts possible.
  std::vector<std::shared_ptr<ftc::store::NvmeDevice>> devices_;
  std::vector<std::unique_ptr<HvacServer>> servers_;
  std::vector<std::unique_ptr<HvacClient>> clients_;
  std::vector<std::unique_ptr<membership::MembershipAgent>> agents_;
  std::unique_ptr<membership::GossipScheduler> scheduler_;
};

}  // namespace ftc::cluster
