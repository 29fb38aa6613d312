#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/string_util.hpp"

namespace ftc::cluster {

namespace {

ring::RingConfig membership_ring_config(const HvacClientConfig& client) {
  // The agents' epoch-0 views must be fingerprint-identical to the ring
  // a client builds for itself, so they share the same ring parameters.
  ring::RingConfig ring_config;
  ring_config.vnodes_per_node = client.vnodes_per_node;
  ring_config.seed = client.ring_seed;
  return ring_config;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), pfs_(config.pfs_read_latency) {
  pfs_.set_service_concurrency(config_.pfs_service_slots);
  if (config_.membership.enabled) {
    const Status valid = config_.membership.validate();
    if (!valid.is_ok()) {
      throw std::invalid_argument("SwimConfig: " + valid.to_string());
    }
  }
  {
    const Status valid = config_.obs.validate();
    if (!valid.is_ok()) {
      throw std::invalid_argument("ObsConfig: " + valid.to_string());
    }
  }

  std::vector<NodeId> members;
  members.reserve(config_.node_count);
  for (NodeId n = 0; n < config_.node_count; ++n) members.push_back(n);

  servers_.reserve(config_.node_count);
  clients_.reserve(config_.node_count);
  for (NodeId n = 0; n < config_.node_count; ++n) {
    boot_server(n);
    clients_.push_back(std::make_unique<HvacClient>(
        n, transport_, pfs_, members, config_.client));
  }

  if (config_.membership.enabled) {
    scheduler_ = std::make_unique<membership::GossipScheduler>(
        config_.membership.probe_period);
    agents_.reserve(config_.node_count);
    for (NodeId n = 0; n < config_.node_count; ++n) {
      agents_.push_back(std::make_unique<membership::MembershipAgent>(
          n, transport_, config_.membership,
          membership_ring_config(config_.client), members));
      servers_[n]->attach_membership(agents_.back().get());
      // The static placement modes keep their paper semantics; only the
      // hash-ring client routes through the epoch'd view.
      if (config_.client.mode == FtMode::kHashRingRecache) {
        clients_[n]->attach_membership(agents_.back().get());
      }
      scheduler_->add(agents_.back().get());
    }
    if (config_.membership.background) scheduler_->start();
  }

  for (NodeId n = 0; n < config_.node_count; ++n) wire_node_observability(n);
  metrics_.register_collector(
      [this](obs::MetricsRegistry::Collection& out) { collect_metrics(out); });
}

Cluster::~Cluster() {
  // Teardown order matters: stop the gossip scheduler first so no new
  // probes launch, then stop and join every endpoint worker before the
  // servers/agents their handlers point at are destroyed, then drain the
  // async completion pool (hedge legs, SWIM probes) so no callback
  // outlives the cluster.
  if (scheduler_) scheduler_->stop();
  for (NodeId n = 0; n < servers_.size(); ++n) {
    (void)transport_.unregister_endpoint(n);
  }
  transport_.drain_async();
}

void Cluster::tick_membership() {
  if (scheduler_) scheduler_->tick_all();
}

std::vector<std::string> Cluster::stage_dataset(std::uint32_t count,
                                                std::uint32_t bytes) {
  const std::string prefix = "/lustre/orion/cosmoUniverse";
  pfs_.populate_synthetic(prefix, count, bytes);
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    paths.push_back(prefix + "/file_" + zero_pad(i, 7) + ".tfrecord");
  }
  return paths;
}

void Cluster::warm_caches(const std::vector<std::string>& paths) {
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const NodeId reader = static_cast<NodeId>(i % config_.node_count);
    (void)clients_[reader]->read_file(paths[i]);
  }
  for (auto& server : servers_) server->flush_data_mover();
}

void Cluster::boot_server(NodeId node) {
  const ftc::store::StoreConfig& store = config_.server.store;
  if (store.has_cold_tier()) {
    if (devices_.size() <= node) devices_.resize(node + 1);
    // The device is created ONCE per node and reused across server
    // incarnations — it is the state that survives a crash.
    if (!devices_[node]) {
      devices_[node] = std::make_shared<ftc::store::NvmeDevice>(
          store.nvme_bytes, store.model_nvme_latency, store.nvme);
    }
  }
  auto server = std::make_unique<HvacServer>(
      node, pfs_, config_.server,
      store.has_cold_tier() ? devices_[node] : nullptr);
  if (servers_.size() <= node) servers_.resize(node + 1);
  servers_[node] = std::move(server);
  HvacServer* raw = servers_[node].get();
  transport_.register_endpoint(
      node,
      [raw](const rpc::RpcRequest& request) { return raw->handle(request); },
      config_.server.endpoint_workers);
  if (config_.server.admission_control) {
    transport_.set_admission(node, {config_.server.admission_queue_limit,
                                    config_.server.admission_retry_after_ms});
  }
  if (config_.server.report_load) {
    transport_.set_load_reporting(node,
                                  {true, config_.server.load_report_alpha});
  }
}

void Cluster::fail_node(NodeId node) { transport_.kill(node); }

void Cluster::restore_node(NodeId node, bool lose_cache) {
  if (lose_cache && node < servers_.size()) servers_[node]->clear_cache();
  transport_.revive(node);
}

std::size_t Cluster::restart_node_warm(NodeId node) {
  if (!config_.server.store.has_cold_tier()) {
    // No cold tier = no surviving device; this IS the lost-cache path.
    restore_node(node, /*lose_cache=*/true);
    return 0;
  }
  // Crash the incumbent: stop its endpoint workers, then destroy the
  // server object.  RAM tier, counters and freshness ledger die with it;
  // devices_[node] — the NVMe volume and its manifest — survives.
  (void)transport_.unregister_endpoint(node);
  servers_[node].reset();
  boot_server(node);
  transport_.revive(node);  // clears any fail_node() preceding the restart
  if (node < agents_.size()) {
    servers_[node]->attach_membership(agents_[node].get());
  }
  if (config_.obs.tracing && node < recorders_.size()) {
    servers_[node]->attach_observability(recorders_[node].get());
  }
  // Generation authority for manifest validation: the max generation any
  // other alive node's freshness ledger has accepted for the path — the
  // in-process stand-in for the rejoin metadata query a real deployment
  // would make.  Entries below the floor were superseded while this node
  // was down and are dropped instead of served.
  const auto authority = [this, node](const std::string& path) {
    std::uint64_t floor = 0;
    for (NodeId peer = 0; peer < servers_.size(); ++peer) {
      if (peer == node || !servers_[peer] || transport_.is_killed(peer)) {
        continue;
      }
      floor = std::max(floor, servers_[peer]->replica_generation_of(path));
    }
    return floor;
  };
  return servers_[node]->warm_restore(authority);
}

NodeId Cluster::add_node() {
  const auto node = static_cast<NodeId>(servers_.size());
  boot_server(node);
  HvacServer* server = servers_.back().get();
  std::vector<NodeId> members;
  members.reserve(servers_.size());
  for (NodeId n = 0; n <= node; ++n) members.push_back(n);
  clients_.push_back(std::make_unique<HvacClient>(node, transport_, pfs_,
                                                  members, config_.client));
  if (config_.membership.enabled) {
    agents_.push_back(std::make_unique<membership::MembershipAgent>(
        node, transport_, config_.membership,
        membership_ring_config(config_.client), members));
    membership::MembershipAgent* agent = agents_.back().get();
    server->attach_membership(agent);
    if (config_.client.mode == FtMode::kHashRingRecache) {
      clients_.back()->attach_membership(agent);
    }
    // The new agent's seeded view may be stale (it assumes every earlier
    // node is serving).  Pull the authoritative state from the first
    // responsive sitting member before taking traffic.
    for (NodeId peer = 0; peer < node; ++peer) {
      if (transport_.is_killed(peer)) continue;
      rpc::RpcRequest sync;
      sync.op = rpc::Op::kMembershipSync;
      sync.client_node = node;
      agent->stamp_request(sync);
      auto result = transport_.call(peer, std::move(sync),
                                    config_.client.rpc_timeout);
      if (result.is_ok() && result.value().code == StatusCode::kOk) {
        (void)agent->ingest(result.value());
        break;
      }
    }
    scheduler_->add(agent);
  }
  // Attached clients read their agent's ring: the agent admits the joiner.
  for (NodeId n = 0; n < node; ++n) {
    if (n < agents_.size()) agents_[n]->join(node);
    clients_[n]->add_server(node);
  }
  config_.node_count = static_cast<std::uint32_t>(servers_.size());
  wire_node_observability(node);
  return node;
}

void Cluster::wire_node_observability(NodeId node) {
  if (!config_.obs.tracing) return;
  recorders_.push_back(
      std::make_unique<obs::FlightRecorder>(config_.obs.recorder_capacity));
  obs::FlightRecorder* recorder = recorders_.back().get();
  servers_[node]->attach_observability(recorder);
  clients_[node]->attach_observability(recorder, config_.obs.sample_every);
  transport_.set_flight_recorder(node, recorder);
  if (node < agents_.size()) agents_[node]->set_flight_recorder(recorder);
}

std::vector<obs::Record> Cluster::dump_traces() const {
  std::vector<obs::Record> all;
  for (const auto& recorder : recorders_) {
    std::vector<obs::Record> records = recorder->dump();
    all.insert(all.end(), records.begin(), records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const obs::Record& a, const obs::Record& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

void Cluster::collect_metrics(obs::MetricsRegistry::Collection& out) const {
  // Latency histogram bounds in microseconds; chosen to straddle the
  // NVMe-hit / PFS-fetch / storm-retry regimes.
  static const std::vector<double> kLatencyBoundsUs = {
      50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000};
  // Each component's counters come from its X-macro list; the series
  // written out by hand below are the values its list leaves out.
  for (NodeId n = 0; n < static_cast<NodeId>(clients_.size()); ++n) {
    const std::string node = std::to_string(n);
    const obs::Labels node_label = {{"node", node}};
    {
      const HvacClient::Stats s = clients_[n]->stats_snapshot();
      FTC_HVAC_CLIENT_STATS(FTC_STATS_COUNTER)
      const LatencyRecorder::BucketSnapshot lat =
          clients_[n]->latency().cumulative_buckets(kLatencyBoundsUs);
      out.histogram("ftc_client_read_latency_us", node_label,
                    kLatencyBoundsUs, lat.cumulative, lat.count, lat.sum);
    }
    {
      const HvacServer::Stats s = servers_[n]->stats_snapshot();
      FTC_HVAC_SERVER_STATS(FTC_STATS_KEYED_COUNTER)
      out.counter("ftc_server_evictions_total", node_label, s.evictions);
      out.gauge("ftc_server_cache_used_bytes", node_label,
                static_cast<double>(s.used_bytes));
      out.gauge("ftc_server_cache_capacity_bytes", node_label,
                static_cast<double>(servers_[n]->cache_capacity_bytes()));
    }
    {
      // Every node has a store; the nvme rows read 0 without a cold tier.
      const ftc::store::StoreStats s = servers_[n]->store_stats();
      const char* policy =
          ftc::store::policy_kind_name(servers_[n]->config().store.policy);
      FTC_STORE_STATS(FTC_STATS_COUNTER)
      out.gauge("ftc_store_tier_used_bytes", {{"node", node}, {"tier", "ram"}},
                static_cast<double>(s.ram_used_bytes));
      out.gauge("ftc_store_tier_used_bytes",
                {{"node", node}, {"tier", "nvme"}},
                static_cast<double>(s.nvme_used_bytes));
      out.counter("ftc_store_hits_total", {{"node", node}, {"tier", "ram"}},
                  s.hot_hits);
      out.gauge("ftc_store_hit_ratio", node_label, s.hit_ratio());
    }
    if (const PfsFetchGuard* guard = servers_[n]->pfs_guard()) {
      const PfsFetchGuard::Stats s = guard->stats_snapshot();
      FTC_PFS_GUARD_STATS(FTC_STATS_COUNTER)
      out.gauge("ftc_pfs_guard_breaker_open", node_label,
                guard->breaker_open() ? 1.0 : 0.0);
    }
    {
      const rpc::Transport::EndpointStats s = transport_.stats(n);
      FTC_TRANSPORT_STATS(FTC_STATS_COUNTER)
    }
    if (n < static_cast<NodeId>(agents_.size())) {
      const membership::MembershipAgent::Stats s = agents_[n]->stats_snapshot();
      FTC_SWIM_STATS(FTC_STATS_COUNTER)
      out.gauge("ftc_swim_epoch", node_label, static_cast<double>(s.epoch));
      out.gauge("ftc_swim_members_alive", node_label,
                static_cast<double>(s.members_alive));
      out.gauge("ftc_swim_members_suspect", node_label,
                static_cast<double>(s.members_suspect));
      out.gauge("ftc_swim_members_failed", node_label,
                static_cast<double>(s.members_failed));
    }
    if (n < static_cast<NodeId>(recorders_.size())) {
      out.counter("ftc_obs_records_written_total", node_label,
                  recorders_[n]->records_written());
    }
  }
}

std::size_t Cluster::total_cached_files() const {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server->cached_file_count();
  return total;
}

}  // namespace ftc::cluster
