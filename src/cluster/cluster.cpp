#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/string_util.hpp"

namespace ftc::cluster {

namespace {

ring::RingConfig membership_ring_config(const HvacClientConfig& client) {
  // The agents' epoch-0 views must be fingerprint-identical to the
  // clients' private rings, so they share the same ring parameters.
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
  for (NodeId n = 0; n < node; ++n) clients_[n]->add_server(node);
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
  for (NodeId n = 0; n < static_cast<NodeId>(clients_.size()); ++n) {
    const obs::Labels node_label = {{"node", std::to_string(n)}};
    const auto with_outcome = [&](const char* outcome) {
      obs::Labels labels = node_label;
      labels.emplace_back("outcome", outcome);
      return labels;
    };

    const HvacClient::Stats c = clients_[n]->stats_snapshot();
    out.counter("ftc_client_reads_total", node_label, c.reads);
    out.counter("ftc_client_served_total", with_outcome("remote_cache"),
                c.served_remote_cache);
    out.counter("ftc_client_served_total", with_outcome("remote_fetch"),
                c.served_remote_fetch);
    out.counter("ftc_client_served_total", with_outcome("pfs_direct"),
                c.served_pfs_direct);
    out.counter("ftc_client_timeouts_total", node_label, c.timeouts);
    out.counter("ftc_client_nodes_flagged_total", node_label, c.nodes_flagged);
    out.counter("ftc_client_ring_updates_total", node_label, c.ring_updates);
    out.counter("ftc_client_checksum_failures_total", node_label,
                c.checksum_failures);
    out.counter("ftc_client_replicas_pushed_total", node_label,
                c.replicas_pushed);
    out.counter("ftc_client_hedges_total", with_outcome("launched"),
                c.hedges_launched);
    out.counter("ftc_client_hedges_total", with_outcome("hedge_win"),
                c.hedge_wins);
    out.counter("ftc_client_hedges_total", with_outcome("primary_win"),
                c.primary_wins_after_hedge);
    out.counter("ftc_client_hedges_total", with_outcome("to_pfs"),
                c.hedges_to_pfs);
    out.counter("ftc_client_probes_sent_total", node_label, c.probes_sent);
    out.counter("ftc_client_nodes_reinstated_total", node_label,
                c.nodes_reinstated);
    out.counter("ftc_client_suspicions_reported_total", node_label,
                c.suspicions_reported);
    out.counter("ftc_client_stale_view_hints_total", node_label,
                c.stale_view_hints);
    out.counter("ftc_client_epoch_fast_forwards_total", node_label,
                c.epoch_fast_forwards);
    out.counter("ftc_client_busy_rejections_total", node_label,
                c.busy_rejections);
    out.counter("ftc_client_retries_denied_total", node_label,
                c.retries_denied_by_budget);
    out.counter("ftc_client_deadline_give_ups_total", node_label,
                c.deadline_give_ups);
    // Skew-tolerant placement (all zero with the knobs off):
    out.counter("ftc_ring_load_hints_total", node_label,
                c.load_hints_observed);
    out.counter("ftc_ring_spilled_reads_total", node_label, c.spilled_reads);
    out.counter("ftc_ring_load_spread_reads_total", node_label,
                c.load_spread_reads);
    out.counter("ftc_ring_hot_promotions_total", node_label,
                c.hot_promotions);
    out.counter("ftc_ring_hot_demotions_total", node_label, c.hot_demotions);
    out.counter("ftc_ring_hot_invalidations_total", node_label,
                c.hot_invalidations);
    // Warm failover (all zero with warm_standby off):
    out.counter("ftc_client_warm_pushes_total", node_label, c.warm_pushes);
    out.counter("ftc_client_warm_restores_total", node_label, c.warm_restores);
    out.counter("ftc_client_warm_deferred_total", node_label, c.warm_deferred);
    out.counter("ftc_client_warm_invalidations_total", node_label,
                c.warm_invalidations);
    // Epoch-ahead prefetch / p2p recache (all zero with prefetch.* off):
    out.counter("ftc_prefetch_planned_total", node_label, c.prefetch_planned);
    out.counter("ftc_prefetch_pulls_total", node_label, c.prefetch_pulls);
    out.counter("ftc_prefetch_pulls_outcome_total", with_outcome("hit"),
                c.prefetch_hits);
    out.counter("ftc_prefetch_pulls_outcome_total", with_outcome("miss"),
                c.prefetch_misses);
    out.counter("ftc_prefetch_pulls_outcome_total", with_outcome("deferred"),
                c.prefetch_deferred);
    out.counter("ftc_prefetch_local_hits_total", node_label,
                c.prefetch_local_hits);
    out.counter("ftc_p2p_rescues_total", node_label, c.p2p_rescues);
    out.counter("ftc_p2p_bytes_total", node_label, c.p2p_bytes);
    // Partition tolerance (all zero with fencing off / no partitions):
    out.counter("ftc_client_fenced_puts_total", node_label, c.fenced_puts);
    out.counter("ftc_client_reconcile_repushes_total", node_label,
                c.reconcile_repushes);
    const LatencyRecorder::BucketSnapshot lat =
        clients_[n]->latency().cumulative_buckets(kLatencyBoundsUs);
    out.histogram("ftc_client_read_latency_us", node_label, kLatencyBoundsUs,
                  lat.cumulative, lat.count, lat.sum);

    const HvacServer::Stats s = servers_[n]->stats_snapshot();
    out.counter("ftc_server_reads_total", node_label, s.reads);
    out.counter("ftc_server_cache_hits_total", node_label, s.cache_hits);
    out.counter("ftc_server_cache_misses_total", node_label, s.cache_misses);
    out.counter("ftc_server_pfs_fetches_total", node_label, s.pfs_fetches);
    out.counter("ftc_server_recache_enqueued_total", node_label,
                s.recache_enqueued);
    out.counter("ftc_server_recache_completed_total", node_label,
                s.recache_completed);
    out.counter("ftc_server_replicas_stored_total", node_label,
                s.replicas_stored);
    out.counter("ftc_server_warm_replicas_stored_total", node_label,
                s.warm_replicas_stored);
    out.counter("ftc_server_stale_replica_puts_total", node_label,
                s.stale_replica_puts);
    out.counter("ftc_server_warm_replica_bytes_total", node_label,
                s.warm_replica_bytes);
    out.counter("ftc_server_payload_bytes_copied_total", node_label,
                s.payload_bytes_copied);
    out.counter("ftc_server_evictions_total", node_label, s.evictions);
    out.counter("ftc_server_expired_on_arrival_total", node_label,
                s.expired_on_arrival);
    out.counter("ftc_server_peer_gets_total", node_label, s.peer_gets);
    out.counter("ftc_server_peer_get_hits_total", node_label,
                s.peer_get_hits);
    out.counter("ftc_server_peer_get_bytes_total", node_label,
                s.peer_get_bytes);
    out.counter("ftc_server_fenced_writes_total", node_label,
                s.fenced_writes);
    out.counter("ftc_server_stale_epoch_puts_total", node_label,
                s.stale_epoch_puts_accepted);
    out.gauge("ftc_server_cache_used_bytes", node_label,
              static_cast<double>(s.used_bytes));
    out.gauge("ftc_server_cache_capacity_bytes", node_label,
              static_cast<double>(servers_[n]->cache_capacity_bytes()));

    {
      // Store series (one family per concept, dimensions as labels).  Every node has a store; the nvme rows read 0 when
      // it has no cold tier.
      const ftc::store::StoreStats st = servers_[n]->store_stats();
      const auto with_tier = [&](const char* tier) {
        obs::Labels labels = node_label;
        labels.emplace_back("tier", tier);
        return labels;
      };
      obs::Labels policy_label = node_label;
      policy_label.emplace_back("policy",
                                ftc::store::policy_kind_name(
                                    servers_[n]->config().store.policy));
      out.gauge("ftc_store_tier_used_bytes", with_tier("ram"),
                static_cast<double>(st.ram_used_bytes));
      out.gauge("ftc_store_tier_used_bytes", with_tier("nvme"),
                static_cast<double>(st.nvme_used_bytes));
      out.counter("ftc_store_hits_total", with_tier("ram"), st.hot_hits);
      out.counter("ftc_store_hits_total", with_tier("nvme"), st.cold_hits);
      out.counter("ftc_store_misses_total", node_label, st.misses);
      out.counter("ftc_store_demotions_total", node_label, st.demotions);
      out.counter("ftc_store_promotions_total", node_label, st.promotions);
      out.counter("ftc_store_evictions_total", policy_label, st.evictions);
      out.counter("ftc_store_reclaim_runs_total", node_label,
                  st.reclaim_runs);
      out.counter("ftc_store_overflow_writes_total", node_label,
                  st.overflow_writes);
      out.counter("ftc_store_manifest_restored_total", node_label,
                  st.manifest_restored);
      out.counter("ftc_store_manifest_rejected_stale_total", node_label,
                  st.manifest_rejected_stale);
      out.gauge("ftc_store_hit_ratio", node_label, st.hit_ratio());
    }

    if (const PfsFetchGuard* guard = servers_[n]->pfs_guard()) {
      const PfsFetchGuard::Stats g = guard->stats_snapshot();
      out.counter("ftc_pfs_guard_fetches_total", node_label, g.fetches);
      out.counter("ftc_pfs_guard_coalesced_total", node_label, g.coalesced);
      out.counter("ftc_pfs_guard_rejections_total", with_outcome("slots"),
                  g.slot_rejections);
      out.counter("ftc_pfs_guard_rejections_total", with_outcome("breaker"),
                  g.breaker_rejections);
      out.counter("ftc_pfs_guard_breaker_trips_total", node_label,
                  g.breaker_trips);
      out.gauge("ftc_pfs_guard_breaker_open", node_label,
                guard->breaker_open() ? 1.0 : 0.0);
    }

    const rpc::Transport::EndpointStats t = transport_.stats(n);
    out.counter("ftc_transport_received_total", node_label, t.received);
    out.counter("ftc_transport_received_data_total", node_label,
                t.received_data);
    out.counter("ftc_transport_handled_total", node_label, t.handled);
    out.counter("ftc_transport_dropped_total", node_label, t.dropped);
    out.counter("ftc_transport_requests_shed_total", node_label,
                t.requests_shed);
    out.counter("ftc_transport_partition_dropped_total", node_label,
                t.partition_dropped);
    out.counter("ftc_transport_duplicated_total", node_label, t.duplicated);
    out.counter("ftc_transport_reordered_total", node_label, t.reordered);

    if (n < static_cast<NodeId>(agents_.size())) {
      const membership::MembershipAgent::Stats m =
          agents_[n]->stats_snapshot();
      out.gauge("ftc_swim_epoch", node_label, static_cast<double>(m.epoch));
      out.gauge("ftc_swim_members_alive", node_label,
                static_cast<double>(m.members_alive));
      out.gauge("ftc_swim_members_suspect", node_label,
                static_cast<double>(m.members_suspect));
      out.gauge("ftc_swim_members_failed", node_label,
                static_cast<double>(m.members_failed));
      out.counter("ftc_swim_probes_sent_total", node_label, m.probes_sent);
      out.counter("ftc_swim_indirect_probes_total", node_label,
                  m.indirect_probes_sent);
      out.counter("ftc_swim_acks_received_total", node_label, m.acks_received);
      out.counter("ftc_swim_suspicions_total", node_label, m.suspicions);
      out.counter("ftc_swim_confirms_total", node_label, m.confirms);
      out.counter("ftc_swim_refutations_total", node_label, m.refutations);
      out.counter("ftc_swim_reinstatements_total", node_label,
                  m.reinstatements);
      out.counter("ftc_swim_joins_total", node_label, m.joins);
      out.counter("ftc_swim_gossip_claims_sent_total", node_label,
                  m.gossip_claims_sent);
      out.counter("ftc_swim_claims_applied_total", node_label,
                  m.claims_applied);
      out.counter("ftc_swim_fast_forwards_total", node_label, m.fast_forwards);
      out.counter("ftc_swim_false_suspicions_total", node_label,
                  m.false_suspicions);
      out.counter("ftc_swim_confirms_deferred_total", node_label,
                  m.confirms_deferred);
      out.counter("ftc_swim_duplicate_verdicts_total", node_label,
                  m.duplicate_verdicts);
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
