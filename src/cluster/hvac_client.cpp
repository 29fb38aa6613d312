#include "cluster/hvac_client.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "hash/crc32.hpp"
#include "membership/event.hpp"
#include "membership/swim.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/static_modulo.hpp"

namespace ftc::cluster {

namespace {

/// Race state for one hedged read: the reading thread waits on `cv` while
/// the legs' completions (transport pool threads) fill their slot —
/// primary, hedge.  Once the read stops waiting (`abandoned`) a late leg
/// posts to the mailbox instead, so each leg is settled exactly once: by
/// the read or by the mailbox.  shared_ptr-owned so a late leg writes
/// into live memory.
struct HedgeWait {
  std::mutex mutex;
  std::condition_variable cv;
  std::array<std::optional<StatusOr<rpc::RpcResponse>>, 2> legs;
  bool abandoned = false;
};

/// The first backoff step after a kBusy shed; it doubles per attempt up
/// to busy_backoff_cap.
constexpr std::chrono::milliseconds kBusyBackoffBase{1};
/// Distinct spill candidates past the primary a bounded-load lookup may
/// inspect.
constexpr std::uint32_t kBoundedLoadMaxSpill = 2;

bool timeout_like(const Status& status) {
  // All three look identical from the application's viewpoint: the node
  // did not serve the request.
  return status.code() == StatusCode::kTimeout ||
         status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kCancelled;
}

double micros_since(rpc::Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(rpc::Clock::now() - start)
      .count();
}

}  // namespace

const char* ft_mode_name(FtMode mode) {
  switch (mode) {
    case FtMode::kNone: return "NoFT";
    case FtMode::kPfsRedirect: return "FT w/ PFS";
    case FtMode::kHashRingRecache: return "FT w/ NVMe";
  }
  return "?";
}

Status HvacClientConfig::validate(std::size_t cluster_size) const {
  if (rpc_timeout <= std::chrono::milliseconds::zero()) {
    return Status::invalid_argument("rpc_timeout must be > 0");
  }
  if (timeout_limit == 0) {
    return Status::invalid_argument("timeout_limit must be >= 1");
  }
  if (mode == FtMode::kHashRingRecache && vnodes_per_node == 0) {
    return Status::invalid_argument(
        "vnodes_per_node must be >= 1 in hash-ring mode");
  }
  const Status replication_valid = replication.validate(cluster_size);
  if (!replication_valid.is_ok()) return replication_valid;
  if (replication.warm_standby && mode != FtMode::kHashRingRecache) {
    return Status::invalid_argument(
        "replication.warm_standby requires hash-ring mode (standbys are "
        "the ring's clockwise successors)");
  }
  if (reinstatement) {
    if (probe_backoff <= std::chrono::milliseconds::zero()) {
      return Status::invalid_argument("probe_backoff must be > 0");
    }
    if (probe_backoff_cap < probe_backoff) {
      return Status::invalid_argument(
          "probe_backoff_cap must be >= probe_backoff");
    }
  }
  if (hedge_reads) {
    if (!(hedge_quantile > 0.0 && hedge_quantile <= 100.0)) {
      return Status::invalid_argument("hedge_quantile must be in (0, 100]");
    }
    if (hedge_delay_multiplier < 1.0) {
      return Status::invalid_argument(
          "hedge_delay_multiplier must be >= 1.0");
    }
    if (hedge_min_delay > rpc_timeout) {
      return Status::invalid_argument(
          "hedge_min_delay must not exceed rpc_timeout");
    }
  }
  if (total_deadline < std::chrono::milliseconds::zero()) {
    return Status::invalid_argument("total_deadline must be >= 0");
  }
  if (total_deadline.count() > 0 && total_deadline <= rpc_timeout) {
    return Status::invalid_argument(
        "total_deadline must exceed rpc_timeout (a first attempt could "
        "never use its full per-RPC deadline otherwise)");
  }
  if (retry_budget_ratio < 0.0 || retry_budget_ratio > 1.0) {
    return Status::invalid_argument(
        "retry_budget_ratio must be 0 (off) or in (0, 1]");
  }
  if (retry_budget_ratio > 0.0 && retry_budget_cap < 1.0) {
    return Status::invalid_argument(
        "retry_budget_cap must be >= 1 when the budget is enabled");
  }
  if (busy_backoff_cap < kBusyBackoffBase) {
    return Status::invalid_argument("busy_backoff_cap must be >= 1ms");
  }
  if (bounded_load) {
    if (mode != FtMode::kHashRingRecache) {
      return Status::invalid_argument(
          "bounded_load requires hash-ring mode (spill follows the ring's "
          "clockwise successor order)");
    }
    if (bounded_load_c <= 1.0) {
      return Status::invalid_argument(
          "bounded_load_c must be > 1 (c <= 1 marks nodes at or below the "
          "mean overloaded and thrashes placement)");
    }
  }
  if (hot_fanout) {
    if (mode != FtMode::kHashRingRecache) {
      return Status::invalid_argument(
          "hot_fanout requires hash-ring mode (replica sets are ring owner "
          "chains)");
    }
    if (hot_replica_fanout < 2) {
      return Status::invalid_argument(
          "hot_replica_fanout must be >= 2 (1 is the plain single owner)");
    }
    if (cluster_size > 0 && hot_replica_fanout > cluster_size) {
      return Status::invalid_argument(
          "hot_replica_fanout (" + std::to_string(hot_replica_fanout) +
          ") exceeds cluster size (" + std::to_string(cluster_size) + ")");
    }
    if (hot_promote_threshold <= 0.0) {
      return Status::invalid_argument("hot_promote_threshold must be > 0");
    }
    if (hot_demote_threshold < 0.0 ||
        hot_demote_threshold >= hot_promote_threshold) {
      return Status::invalid_argument(
          "hot_demote_threshold must be in [0, hot_promote_threshold) — "
          "the gap is the hysteresis band");
    }
  }
  const Status prefetch_valid = prefetch.validate();
  if (!prefetch_valid.is_ok()) return prefetch_valid;
  if (prefetch.enabled && mode != FtMode::kHashRingRecache) {
    return Status::invalid_argument(
        "prefetch.enabled requires hash-ring mode (the planner diffs the "
        "epoch's sample set against ring placement)");
  }
  return Status::ok();
}

/// Raw replies of async calls, posted from transport pool threads and
/// settled by the owning thread (drain_mailbox).  See the header.
struct HvacClient::Mailbox {
  /// What the call was for: picks the handler drain_mailbox runs.
  enum class Purpose : std::uint8_t {
    kReadLeg,  ///< a hedge leg the read stopped waiting for
    kEvict,
    kPut,
    kPrefetch,
    kProbe,
  };
  struct Reply {
    Purpose purpose;
    NodeId node;
    StatusOr<rpc::RpcResponse> result;
    std::string path{};         ///< kPut, kPrefetch
    std::uint32_t hop = 0;      ///< kPrefetch: chain hop (0 = ring owner)
    bool warm = false;          ///< kPut: a warm-standby placement ...
    bool warm_restore = false;  ///< ... re-targeting a marked file
    bool corrupt = false;       ///< kPrefetch: payload failed its CRC
  };

  void post(Reply reply) {
    std::lock_guard lock(mutex);
    replies.push_back(std::move(reply));
  }

  std::vector<Reply> drain() {
    std::lock_guard lock(mutex);
    return std::exchange(replies, {});
  }

  std::mutex mutex;
  std::vector<Reply> replies;
};

HvacClient::HvacClient(NodeId self, rpc::Transport& transport, PfsStore& pfs,
                       const std::vector<NodeId>& servers,
                       const HvacClientConfig& config)
    : self_(self), transport_(transport), pfs_(pfs), config_(config),
      detector_(FaultDetector::Options{
          .timeout_limit = config.timeout_limit,
          .allow_reinstatement = config.reinstatement &&
                                 config.mode == FtMode::kHashRingRecache,
          .probe_backoff = config.probe_backoff,
          .probe_backoff_cap = config.probe_backoff_cap}),
      mailbox_(std::make_shared<Mailbox>()),
      retry_budget_(config.retry_budget_ratio, config.retry_budget_cap),
      backoff_rng_(config.ring_seed ^ (0x9E3779B97F4A7C15ULL * (self + 1))),
      spread_rng_(config.ring_seed ^ (0xD1B54A32D192ED03ULL * (self + 1))) {
  const Status valid = config_.validate(servers.size());
  if (!valid.is_ok()) {
    throw std::invalid_argument("HvacClientConfig: " + valid.to_string());
  }
  if (config_.hot_fanout) {
    hot_files_ = std::make_unique<HotFilePromoter>(HotFilePromoter::Options{
        .promote_threshold = config_.hot_promote_threshold,
        .demote_threshold = config_.hot_demote_threshold});
    hot_policy_ = std::make_unique<placement::HotFanoutPolicy>(
        config_.hot_replica_fanout);
  }
  // Policy wiring: warm standby subsumes the synchronous miss-recache
  // push (it fires on every authoritative fill, targets the same
  // successors, and does it write-behind), so the two are mutually
  // exclusive executors of the same factor.
  if (config_.replication.warm_standby) {
    warm_policy_ = std::make_unique<placement::WarmStandbyPolicy>(
        config_.replication.factor);
  } else if (config_.replication.factor > 1) {
    miss_policy_ = std::make_unique<placement::MissRecachePolicy>(
        config_.replication.factor);
  }
  warm_inflight_ = std::make_shared<std::atomic<std::uint32_t>>(0);
  prefetch_inflight_ = std::make_shared<std::atomic<std::uint32_t>>(0);
  prefetch_epoch_inflight_ = std::make_shared<std::atomic<std::uint32_t>>(0);
  if (config_.prefetch.enabled) {
    // Pulls ride the transport's async pool.  Created lazily by the first
    // epoch's pulls, its fresh threads were measured, on a CPU-saturated
    // machine, to complete no pull for several short epochs in a row;
    // created here, ahead of the first epoch, they were not.
    transport_.start_async_pool();
  }
  if (config_.prefetch.p2p) {
    peer_policy_ = std::make_unique<placement::PeerRecachePolicy>();
  }
  if (config_.mode == FtMode::kHashRingRecache) {
    ring::RingConfig ring_config;
    ring_config.vnodes_per_node = config_.vnodes_per_node;
    ring_config.seed = config_.ring_seed;
    // The event log answers peers' deltas; this ring has no peers.
    local_ring_ = std::make_unique<membership::VersionedRing>(
        ring_config, servers, /*event_log_capacity=*/1);
    ring_ = local_ring_.get();
  } else {
    modulo_ = std::make_unique<ring::StaticModuloPlacement>();
    for (NodeId node : servers) modulo_->add_node(node);
  }
}

void HvacClient::attach_membership(membership::MembershipAgent* agent) {
  membership_ = agent;
  ring_ = &agent->ring();
  local_ring_.reset();
  // The hot set's generation source just changed (own ring's epoch ->
  // the agent's); re-anchor so the first read does not see a spurious
  // "epoch bump" and tear down nothing for no reason.
  hot_generation_ = placement_generation();
  // Same for the warm standbys: the attach does not move the ring, so
  // re-stamp existing markings instead of re-pushing every file.
  for (auto& entry : warm_pushed_) entry.second.generation = hot_generation_;
}

void HvacClient::attach_observability(obs::FlightRecorder* recorder,
                                      std::uint32_t sample_every) {
  recorder_ = recorder;
  trace_sample_every_ = sample_every;
  trace_seq_ = 0;
}

HvacClient::Stats HvacClient::stats_snapshot() const {
  const auto load_all = [this] {
    Stats s;
    FTC_HVAC_CLIENT_STATS(FTC_STATS_LOAD)
    return s;
  };
  // Torn-snapshot guard: per-field loads are individually atomic but the
  // struct is multi-field; re-read until two consecutive passes agree
  // (bounded — under a write-heavy race the last pass is still field-
  // atomic, only cross-field skew remains).
  Stats before = load_all();
  for (int i = 0; i < 3; ++i) {
    const Stats after = load_all();
    if (std::memcmp(&before, &after, sizeof(Stats)) == 0) return after;
    before = after;
  }
  return before;
}

bool HvacClient::excluded_for_data(NodeId node) const {
  if (membership_ != nullptr) {
    // The cluster's verdict outranks local history.  A flagged node was
    // reported as a suspicion (on_timeout), so while the rumor is open
    // the agent says suspect and we skip it; once the cluster refutes or
    // reinstates, the node must be routable again even though this
    // client's own counter once tripped — otherwise every client that
    // ever flagged it would shun a healthy node forever.
    return membership_->is_suspect(node);
  }
  // Legacy mode: local evidence is all there is.
  return detector_.is_out_of_service(node);
}

std::shared_ptr<const membership::RingView> HvacClient::ring_view() const {
  return ring_ != nullptr ? ring_->view() : nullptr;
}

NodeId HvacClient::resolve_owner(const membership::RingView* view,
                                 const std::string& path) const {
  if (view == nullptr) return modulo_->owner(path);
  return view->owner_excluding(
      path, [this](NodeId node) { return excluded_for_data(node); });
}

void HvacClient::ingest_membership(const rpc::RpcResponse& response) {
  if (membership_ == nullptr) return;
  if (response.view_hint == rpc::ViewHint::kStaleView) {
    ++stats_.stale_view_hints;
  }
  const std::uint64_t epoch_before = membership_->epoch();
  const auto events = membership_->ingest(response);
  if (membership_->epoch() > epoch_before) ++stats_.epoch_fast_forwards;
  for (const membership::RingEvent& event : events) {
    if (event.type == membership::RingEventType::kReinstate) {
      // Cluster-wide reinstatement outranks local history: forget the
      // timeouts/flags this client accumulated against the node so it is
      // immediately routable again.
      detector_.reset_node(event.node);
      distrust_warm_markings(event.node);
    }
    // Post-heal reconciliation scope: a stale-view fast-forward is how a
    // minority-side client learns the transitions it missed during a
    // partition.  Remember which nodes those transitions named; warm
    // re-targets that cross them are the divergent suffix being walked
    // back onto the healed ring (counted in push_replicas).
    if (response.view_hint == rpc::ViewHint::kStaleView) {
      reconcile_touched_.insert(event.node);
    }
  }
}

NodeId HvacClient::current_owner(const std::string& path) const {
  return resolve_owner(ring_view().get(), path);
}

void HvacClient::add_server(NodeId node) {
  if (modulo_ != nullptr) {
    modulo_->add_node(node);
    return;
  }
  // The join moves ~1/(N+1) of the keyspace and bumps the ring's epoch,
  // so replica sets derived from the old ring re-target on next access.
  // With an agent attached the node joins through the agent instead
  // (Cluster::add_node tells every sitting agent).
  publish(membership::RingEventType::kJoin, node);
  distrust_warm_markings(node);
}

Status HvacClient::ping(NodeId node) {
  drain_mailbox();
  const auto start = rpc::Clock::now();
  const auto result = transport_.call(node, make_request(rpc::Op::kPing, {}),
                                      config_.rpc_timeout);
  const double latency_us = micros_since(start);
  settle(node, result);
  if (!result.is_ok()) return result.status();
  if (result.value().code != StatusCode::kOk) {
    return Status(result.value().code, "ping error");
  }
  latency_.record(latency_us);
  return Status::ok();
}

rpc::RpcRequest HvacClient::make_request(rpc::Op op, const std::string& path,
                                         rpc::DeadlineNs deadline) const {
  rpc::RpcRequest request;
  request.op = op;
  request.path = path;
  request.client_node = self_;
  request.deadline_ns = deadline;
  if (membership_ != nullptr) membership_->stamp_request(request);
  return request;
}

HvacClient::ReplyClass HvacClient::settle(
    NodeId node, const StatusOr<rpc::RpcResponse>& result) {
  if (!result.is_ok()) {
    if (!timeout_like(result.status())) return ReplyClass::kError;
    on_timeout(node);
    return ReplyClass::kLost;
  }
  const rpc::RpcResponse& response = result.value();
  // Fold piggybacked gossip / stale-view delta FIRST: anything the caller
  // places next (replicas) must use the freshest view this reply affords.
  ingest_membership(response);
  observe_load_hint(node, response);
  // Any answer — served, shed, fenced or refused — proves the node alive.
  // A shed is deliberately not a timeout: a node shedding load must never
  // accrue suspicion for answering honestly.
  detector_.record_success(node);
  switch (response.code) {
    case StatusCode::kBusy: return ReplyClass::kShed;
    case StatusCode::kFencedEpoch: return ReplyClass::kFenced;
    default: return ReplyClass::kAnswered;
  }
}

std::chrono::milliseconds HvacClient::recommended_timeout(
    double margin) const {
  const double fallback_us =
      std::chrono::duration<double, std::micro>(config_.rpc_timeout).count();
  const double us =
      latency_.recommended_timeout(margin, kMinLatencySamples, fallback_us);
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(us / 1000.0)));
}

std::chrono::microseconds HvacClient::current_hedge_delay() const {
  const auto timeout_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          config_.rpc_timeout);
  std::chrono::microseconds delay;
  if (latency_.count() < kMinLatencySamples) {
    // No trustworthy quantile yet: hedge late enough that only an
    // egregiously slow primary triggers it.
    delay = timeout_us / 4;
  } else {
    delay = std::chrono::microseconds(static_cast<std::int64_t>(
        latency_.percentile(config_.hedge_quantile) *
        config_.hedge_delay_multiplier));
  }
  delay = std::max({delay, config_.hedge_min_delay,
                    std::chrono::microseconds{1}});
  return std::min(delay, timeout_us);
}

StatusOr<common::Buffer> HvacClient::read_from_pfs(
    const std::string& path, const obs::TraceContext& trace) {
  ++stats_.served_pfs_direct;
  if (recorder_ != nullptr && trace.sampled) {
    const std::int64_t start = obs::now_ns();
    auto result = pfs_.read(path);
    recorder_->record_span(
        obs::RecordKind::kPfsDirect, trace.child(), self_, start,
        obs::now_ns(),
        static_cast<std::uint32_t>(result.is_ok() ? StatusCode::kOk
                                                  : result.status().code()),
        0, "pfs_direct");
    return result;
  }
  return pfs_.read(path);
}

void HvacClient::push_replicas(const std::string& path,
                               const common::Buffer& contents, NodeId primary,
                               bool cache_fill,
                               const placement::ReplicaPlan* extra) {
  // Which policies fire on this read?  Miss-recache only on an
  // authoritative fill; hot fanout only on the first read after a
  // promotion; warm standby whenever the file's standbys are missing or
  // stamped with a dead ring's generation.
  const bool miss_fires = cache_fill && miss_policy_ != nullptr;
  const bool hot_fires = hot_policy_ != nullptr && hot_files_ != nullptr &&
                         pending_hot_fanout_.erase(path) > 0;
  if (!miss_fires && !hot_fires && warm_policy_ == nullptr &&
      extra == nullptr) {
    return;
  }
  // One snapshot serves the generation, the staleness check and the chain.
  const auto view = ring_view();
  if (view == nullptr) return;
  const std::uint64_t generation = view->epoch();
  bool warm_restore = false;
  bool warm_stale = false;
  if (warm_policy_ != nullptr) {
    const auto it = warm_pushed_.find(path);
    warm_restore = it != warm_pushed_.end();
    warm_stale = !warm_restore || it->second.generation != generation;
  }
  if (!miss_fires && !hot_fires && !warm_stale && extra == nullptr) return;

  std::vector<const placement::ReplicationPolicy*> policies;
  if (miss_fires) policies.push_back(miss_policy_.get());
  if (hot_fires) policies.push_back(hot_policy_.get());
  if (warm_stale) policies.push_back(warm_policy_.get());

  // One owner-chain walk serves every firing policy.  With an agent
  // attached, settle() ingests the primary's response *before* the read
  // calls here, so a client that was stale going into the read places
  // replicas against the fast-forwarded view, never to a confirmed-failed
  // node.
  std::size_t chain_need = 0;
  for (const auto* policy : policies) {
    chain_need = std::max(chain_need, policy->chain_length());
  }
  const auto chain = view->owner_chain(path, chain_need);
  const std::function<bool(NodeId)> excluded = [this](NodeId node) {
    return excluded_for_data(node);
  };
  placement::PlanContext ctx;
  ctx.path = path;
  ctx.primary = primary;
  ctx.generation = generation;
  ctx.chain = &chain;
  ctx.excluded = &excluded;

  std::vector<placement::ReplicaPlan> plans;
  plans.reserve(policies.size() + 1);
  if (miss_fires) plans.push_back(miss_policy_->plan(ctx));
  if (hot_fires) plans.push_back(hot_policy_->plan(ctx));
  // A peer-recache heal plan (already stamped with the serving peer's
  // ledger generation) merges here so the owner repair and any standby
  // placement for the same file collapse into one kPut per node.
  if (extra != nullptr) plans.push_back(*extra);

  bool warm_fires = false;
  if (warm_stale) {
    placement::ReplicaPlan warm_plan = warm_policy_->plan(ctx);
    std::vector<NodeId> targets;
    targets.reserve(warm_plan.targets.size());
    for (const auto& target : warm_plan.targets) {
      targets.push_back(target.node);
    }
    const auto it = warm_pushed_.find(path);
    if (it != warm_pushed_.end() && it->second.targets == targets) {
      // The ring moved, but this file's standbys did not (most files on
      // most epoch bumps): the bytes are already in place, so adopt the
      // new generation without touching the network.  The standby keeps
      // its older stamp — harmless, since stamps only guard against
      // rollback and the next real move will stamp higher.
      it->second.generation = generation;
    } else {
      // A genuine (re-)placement.  Repairs get the tighter
      // restore_concurrency cap so a storm-wide re-target cannot
      // monopolize the async pool; deferral leaves the marking stale and
      // queues the bytes, retried as soon as a completion frees a slot.
      if (warm_inflight_->load(std::memory_order_relaxed) >=
          warm_cap(warm_restore)) {
        ++stats_.warm_deferred;
        warm_deferred_.insert_or_assign(path, DeferredWarm{contents, primary});
      } else {
        warm_deferred_.erase(path);
        if (warm_restore) {
          ++stats_.warm_invalidations;
          // Post-heal reconciliation: this re-target is partition repair
          // (not ordinary churn) when its old or new standby set touches
          // a node named by a stale-view heal delta — the minority's
          // divergent suffix being re-pushed through the ordinary lazy
          // re-target machinery.
          if (!reconcile_touched_.empty()) {
            const auto crosses = [this](const std::vector<NodeId>& nodes) {
              return std::any_of(nodes.begin(), nodes.end(),
                                 [this](NodeId node) {
                                   return reconcile_touched_.contains(node);
                                 });
            };
            if (crosses(it->second.targets) || crosses(targets)) {
              ++stats_.reconcile_repushes;
              if (recorder_ != nullptr) {
                recorder_->record_event(obs::RecordKind::kPartitionReconcile,
                                        obs::TraceContext{}, self_,
                                        static_cast<std::uint32_t>(
                                            StatusCode::kOk),
                                        generation, path);
              }
            }
          }
        }
        warm_fires = true;
        // Mark at issue time, before any put executes: the sync path
        // below may erase the marking on failure, and ordering the other
        // way would lose that erasure.
        warm_pushed_[path] = {generation, std::move(targets)};
        plans.push_back(std::move(warm_plan));
      }
    }
  }
  if (plans.empty()) return;

  bool warm_issued = false;
  for (const auto& target : placement::merge_plans(plans)) {
    execute_put(target, path, contents, warm_restore);
    if (target.has_trigger(placement::ReplicationTrigger::kWarmStandby)) {
      warm_issued = true;
    }
  }
  if (warm_fires && warm_issued && recorder_ != nullptr) {
    recorder_->record_event(
        obs::RecordKind::kWarmPush, obs::TraceContext{}, self_,
        static_cast<std::uint32_t>(warm_restore ? StatusCode::kUnavailable
                                                : StatusCode::kOk),
        generation, path);
  }
}

void HvacClient::execute_put(const placement::MergedTarget& target,
                             const std::string& path,
                             const common::Buffer& contents,
                             bool warm_restore) {
  const NodeId backup = target.node;
  const bool warm =
      target.has_trigger(placement::ReplicationTrigger::kWarmStandby);
  rpc::RpcRequest put = make_request(rpc::Op::kPut, path);
  put.payload = contents;  // refcounted share across the fanout
  put.replica_generation = target.generation;

  if (target.write_class == placement::WriteClass::kSyncInline) {
    // Best effort: a slow/dead backup only costs durability, not
    // correctness, so a lost put feeds the detector but is not retried.
    on_put_reply(backup, path, warm, warm_restore,
                 transport_.call(backup, std::move(put), config_.rpc_timeout));
    return;
  }

  // Write-behind: hot fanouts and warm standbys must not serialize the
  // read path behind fanout-1 synchronous puts.  The completion only
  // touches the refcounted mailbox/counter — never the client, which may
  // be gone by the time a put against a dead standby times out.
  if (warm) warm_inflight_->fetch_add(1, std::memory_order_relaxed);
  transport_.call_async(
      backup, std::move(put), config_.rpc_timeout,
      [mailbox = mailbox_, inflight = warm_inflight_, backup, warm,
       warm_restore, path](StatusOr<rpc::RpcResponse> result) {
        if (warm) inflight->fetch_sub(1, std::memory_order_relaxed);
        mailbox->post({.purpose = Mailbox::Purpose::kPut,
                       .node = backup,
                       .result = std::move(result),
                       .path = path,
                       .warm = warm,
                       .warm_restore = warm_restore});
      });
}

void HvacClient::on_put_reply(NodeId node, const std::string& path,
                              bool warm, bool warm_restore,
                              const StatusOr<rpc::RpcResponse>& result) {
  const ReplyClass reply = settle(node, result);
  if (reply == ReplyClass::kAnswered &&
      result.value().code == StatusCode::kOk) {
    ++stats_.replicas_pushed;
    if (warm) {
      ++stats_.warm_pushes;
      if (warm_restore) ++stats_.warm_restores;
    }
    return;
  }
  // Write fence: our epoch lagged the server's, and the stamped reply just
  // fast-forwarded us (settle).  No replica was placed.
  if (reply == ReplyClass::kFenced) ++stats_.fenced_puts;
  // kCancelled from a live node means a FRESHER standby already sits
  // there: the marking stands.  Any other outcome placed nothing: unmark
  // so the next read re-plans the standby against the current ring.
  const bool fresher = reply == ReplyClass::kAnswered &&
                       result.value().code == StatusCode::kCancelled;
  if (warm && !fresher) warm_pushed_.erase(path);
}

std::uint32_t HvacClient::warm_cap(bool warm_restore) const {
  return warm_restore ? config_.replication.restore_concurrency
                      : config_.replication.write_behind_depth;
}

void HvacClient::retry_deferred_warm() {
  while (!warm_deferred_.empty()) {
    const auto first = warm_deferred_.begin();
    if (warm_inflight_->load(std::memory_order_relaxed) >=
        warm_cap(warm_pushed_.contains(first->first))) {
      return;
    }
    // The same placement a read of the file runs: it re-plans against the
    // current ring, so a deferral that outlived a ring change goes where
    // the file's standbys belong now.
    auto entry = warm_deferred_.extract(first);
    push_replicas(entry.key(), entry.mapped().contents, entry.mapped().primary,
                  /*cache_fill=*/false);
  }
}

void HvacClient::observe_load_hint(NodeId server,
                                   const rpc::RpcResponse& response) {
  // Gated on the client knobs, not just hint presence: a legacy-config
  // client talking to load-reporting servers must not grow an estimator
  // (its stats_snapshot must stay bit-identical to the seed's).
  if (!config_.bounded_load && hot_files_ == nullptr) return;
  if (!rpc::has_load_hint(response)) return;
  ++stats_.load_hints_observed;
  load_estimator_.observe(server, rpc::decode_load_hint(response.load_hint));
}

std::uint64_t HvacClient::placement_generation() const {
  const auto view = ring_view();
  return view != nullptr ? view->epoch() : 0;
}

void HvacClient::maybe_invalidate_hot() {
  if (hot_files_ == nullptr) return;
  const std::uint64_t generation = placement_generation();
  if (generation == hot_generation_) return;
  hot_generation_ = generation;
  // The promotions' replica sets were owner chains of a ring that no
  // longer exists — a spread read could land on a node that never got
  // the kPut.  Drop them all; still-hot files re-promote against the new
  // ring within one decay interval.  Heat survives, so this is cheap.
  for (const std::string& path : hot_files_->invalidate_all()) {
    ++stats_.hot_invalidations;
    retire_hot_replicas(path, /*epoch_bump=*/true);
  }
}

void HvacClient::note_hot_access(const std::string& path) {
  if (hot_files_ == nullptr) return;
  maybe_invalidate_hot();
  if (hot_files_->record(path) == HotFilePromoter::Transition::kPromoted) {
    ++stats_.hot_promotions;
    // The kPut fanout needs the file's bytes, so it rides the next
    // successful read (on_read_reply) instead of fetching here.
    pending_hot_fanout_.insert(path);
    if (recorder_ != nullptr) {
      // Promotions are rare and explain every later spread/evict —
      // recorded unconditionally, like suspicions.
      recorder_->record_event(
          obs::RecordKind::kHotPromotion, obs::TraceContext{}, self_,
          static_cast<std::uint32_t>(StatusCode::kOk),
          hot_files_->promoted_count(), path);
    }
  }
  for (const std::string& cooled : hot_files_->take_demotions()) {
    ++stats_.hot_demotions;
    retire_hot_replicas(cooled, /*epoch_bump=*/false);
  }
}

void HvacClient::retire_hot_replicas(const std::string& path,
                                     bool epoch_bump) {
  pending_hot_fanout_.erase(path);
  if (recorder_ != nullptr) {
    recorder_->record_event(
        obs::RecordKind::kHotDemotion, obs::TraceContext{}, self_,
        static_cast<std::uint32_t>(epoch_bump ? StatusCode::kUnavailable
                                              : StatusCode::kOk),
        0, path);
  }
  // Best-effort teardown of the backups (the primary keeps its copy — it
  // owns the file either way).  Stale replicas only waste NVMe: reads
  // stop spreading the moment the promotion is gone, so eviction is
  // async and never retried.  After an epoch bump this aims at the NEW
  // chain; old members that left the ring took their cache with them.
  const auto chain = ring_view()->owner_chain(path, config_.hot_replica_fanout);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const NodeId backup = chain[i];
    if (excluded_for_data(backup)) continue;
    transport_.call_async(
        backup, make_request(rpc::Op::kEvict, path), config_.rpc_timeout,
        [mailbox = mailbox_, backup](StatusOr<rpc::RpcResponse> result) {
          mailbox->post({.purpose = Mailbox::Purpose::kEvict,
                         .node = backup,
                         .result = std::move(result)});
        });
  }
}

NodeId HvacClient::pick_read_target(const std::string& path,
                                    const obs::TraceContext& trace) {
  // One snapshot serves owner, replica set and spill walk.  It is released
  // before the read's RPC, so a removal the RPC's timeout publishes finds
  // no reader pinning the ring.
  const auto view = ring_view();
  const NodeId plain = resolve_owner(view.get(), path);
  if (plain == ring::kInvalidNode || view == nullptr) return plain;
  // Hot file: power-of-two-choices over its replica set — two random
  // distinct members, route to the lower load estimate.  P2C (not
  // full-argmin) so co-located clients with near-identical load views
  // do not herd onto the same momentarily-coolest replica.
  if (hot_files_ != nullptr && hot_files_->is_promoted(path)) {
    std::vector<NodeId> set =
        view->owner_chain(path, config_.hot_replica_fanout);
    set.erase(std::remove_if(set.begin(), set.end(),
                             [this, plain](NodeId node) {
                               return node != plain &&
                                      excluded_for_data(node);
                             }),
              set.end());
    if (set.size() >= 2) {
      std::size_t a = spread_rng_.below(set.size());
      std::size_t b = spread_rng_.below(set.size() - 1);
      if (b >= a) ++b;
      ++stats_.load_spread_reads;
      return load_estimator_.load(set[a]) <= load_estimator_.load(set[b])
                 ? set[a]
                 : set[b];
    }
  }
  if (!config_.bounded_load) return plain;
  const auto excluded = [this](NodeId node) {
    return excluded_for_data(node);
  };
  const auto overloaded = [this](NodeId node) {
    return load_estimator_.overloaded(node, config_.bounded_load_c);
  };
  // Primary + up to max_spill spill candidates, walked in the epoch'd
  // view so clients sharing an epoch walk identical candidate chains.
  const ring::ConsistentHashRing& ring = view->ring();
  const auto lookup = ring.owner_of_hash_bounded(
      ring.key_position(path), 1 + kBoundedLoadMaxSpill, excluded,
      overloaded);
  if (lookup.chosen == ring::kInvalidNode) return plain;
  if (lookup.spilled()) {
    ++stats_.spilled_reads;
    if (recorder_ != nullptr && trace.sampled) {
      recorder_->record_event(
          obs::RecordKind::kLoadSpill, trace.child(), lookup.primary,
          static_cast<std::uint32_t>(StatusCode::kOk), lookup.chosen, path);
    }
  }
  return lookup.chosen;
}

void HvacClient::on_timeout(NodeId owner) {
  ++stats_.timeouts;
  if (!detector_.record_timeout(owner)) return;
  ++stats_.nodes_flagged;
  FTC_LOG(kInfo, "hvac_client")
      << "client " << self_ << " takes node " << owner
      << " out of service: " << node_health_name(detector_.health(owner))
      << " (" << ft_mode_name(config_.mode) << ")";
  const bool report = membership_ != nullptr;
  if (recorder_ != nullptr) {
    // Timeline marker, not a span: suspicions are rare and load-bearing
    // for the storm postmortem, so they are recorded regardless of
    // per-read sampling.
    recorder_->record_event(obs::RecordKind::kSuspicion, obs::TraceContext{},
                            owner,
                            static_cast<std::uint32_t>(StatusCode::kTimeout),
                            self_, report ? "report" : "flag");
  }
  if (report) {
    // The detector's verdict is local *evidence*, not a placement
    // decision: report the node suspect and let the cluster confirm or
    // refute.  Routing skips it meanwhile via excluded_for_data; the
    // shared ring changes only when an epoch event confirms.
    ++stats_.suspicions_reported;
    membership_->suspect(owner);
    return;
  }
  // Elastic recaching: drop the node's virtual nodes; its keys fall to
  // the clockwise successors from the next lookup on.  If the node is
  // merely in probation a successful probe adds them back.
  publish(membership::RingEventType::kProbation, owner);
}

void HvacClient::publish(membership::RingEventType type, NodeId node) {
  if (local_ring_ == nullptr) return;
  const auto event = local_ring_->apply(type, node, /*incarnation=*/0);
  if (!event.has_value()) return;
  ++stats_.ring_updates;
  if (recorder_ != nullptr) {
    recorder_->record_event(obs::RecordKind::kRingUpdate, obs::TraceContext{},
                            node, static_cast<std::uint32_t>(type),
                            event->epoch,
                            membership::ring_event_type_name(type));
  }
}

std::chrono::milliseconds HvacClient::attempt_timeout(
    rpc::DeadlineNs deadline) const {
  if (deadline == rpc::kNoDeadline) return config_.rpc_timeout;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      rpc::deadline_remaining(deadline));
  return std::clamp(remaining, std::chrono::milliseconds{1},
                    config_.rpc_timeout);
}

bool HvacClient::spend_retry_token() {
  if (retry_budget_.try_spend()) return true;
  ++stats_.retries_denied_by_budget;
  return false;
}

void HvacClient::busy_backoff(std::uint32_t retry_after_ms,
                              std::size_t attempt,
                              rpc::DeadlineNs deadline) {
  // Jittered exponential: base * 2^attempt in [cap/2, cap], jitter drawn
  // in [0.5, 1) so synchronized clients spread out instead of re-bursting.
  const std::size_t shift = std::min<std::size_t>(attempt, 20);
  const std::int64_t scaled_ms = std::min<std::int64_t>(
      kBusyBackoffBase.count() << shift,
      config_.busy_backoff_cap.count());
  auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(
          static_cast<double>(scaled_ms) * backoff_rng_.uniform(0.5, 1.0)));
  // The server's hint is a floor: it knows its backlog, we do not.
  wait = std::max(wait, std::chrono::nanoseconds(
                            std::chrono::milliseconds(retry_after_ms)));
  if (deadline != rpc::kNoDeadline) {
    // Never sleep past the point where the read would give up anyway.
    wait = std::min(wait, rpc::deadline_remaining(deadline));
  }
  if (wait > std::chrono::nanoseconds::zero()) {
    std::this_thread::sleep_for(wait);
  }
}

void HvacClient::drain_mailbox() {
  for (Mailbox::Reply& reply : mailbox_->drain()) {
    switch (reply.purpose) {
      case Mailbox::Purpose::kReadLeg:
      case Mailbox::Purpose::kEvict:
        settle(reply.node, reply.result);
        break;
      case Mailbox::Purpose::kPut:
        on_put_reply(reply.node, reply.path, reply.warm, reply.warm_restore,
                     reply.result);
        break;
      case Mailbox::Purpose::kPrefetch:
        on_prefetch_reply(reply.node, std::move(reply.path), reply.hop,
                          reply.corrupt, std::move(reply.result));
        break;
      case Mailbox::Purpose::kProbe:
        on_probe_reply(reply.node, reply.result);
        break;
    }
  }
  // Completions just folded may have freed write-behind slots.
  retry_deferred_warm();
}

void HvacClient::maybe_probe() {
  // Reinstatement publishes on the client's own ring.  With an agent
  // attached there is none: reinstatement is cluster-wide (SWIM
  // refutation -> kReinstate epoch event -> detector reset).
  if (!config_.reinstatement || local_ring_ == nullptr) return;
  for (const NodeId node : detector_.probe_candidates()) {
    detector_.record_probe_launch(node);
    ++stats_.probes_sent;
    // The completion only touches the refcounted mailbox — never the
    // client, which may be gone by the time a probe against a dead node
    // times out.
    transport_.call_async(
        node, make_request(rpc::Op::kPing, {}), config_.rpc_timeout,
        [mailbox = mailbox_, node](StatusOr<rpc::RpcResponse> result) {
          mailbox->post({.purpose = Mailbox::Purpose::kProbe,
                         .node = node,
                         .result = std::move(result)});
        });
  }
}

void HvacClient::on_probe_reply(NodeId node,
                                const StatusOr<rpc::RpcResponse>& result) {
  // Not settled: the node is out of service, where record_success does
  // not count and a timeout would only inflate the tally — the probe's
  // backoff state machine is the only evidence path.
  if (result.is_ok() && result.value().code == StatusCode::kOk) {
    if (detector_.record_probe_success(node)) reinstate(node);
  } else {
    detector_.record_probe_failure(node);
  }
}

void HvacClient::reinstate(NodeId node) {
  // The same elastic path a newly joined server takes (add_server): only
  // the node's old arc moves back, and each key recaches on first touch.
  publish(membership::RingEventType::kReinstate, node);
  distrust_warm_markings(node);
  ++stats_.nodes_reinstated;
  FTC_LOG(kInfo, "hvac_client")
      << "client " << self_ << " reinstates node " << node
      << " after successful probe";
}

void HvacClient::distrust_warm_markings(NodeId node) {
  for (auto& [path, marking] : warm_pushed_) {
    if (std::find(marking.targets.begin(), marking.targets.end(), node) !=
        marking.targets.end()) {
      marking.targets.clear();
    }
  }
}

void HvacClient::prefetch_epoch(const std::vector<std::string>& upcoming) {
  if (!config_.prefetch.enabled) return;
  drain_mailbox();
  // A new epoch obsoletes pulls still queued for the previous one (the
  // shuffle may never revisit those files); pulls already in flight are
  // left to land — staged bytes stay useful if the file repeats.
  const std::uint64_t deferred = prefetch_pending_.size();
  stats_.prefetch_deferred += deferred;
  prefetch_pending_.clear();
  // The in-flight pulls stop holding prefetch.depth slots: a stale pull
  // whose completion is slow must not stall this epoch's pipeline.
  prefetch_epoch_inflight_ = std::make_shared<std::atomic<std::uint32_t>>(0);
  const auto view = ring_view();
  const prefetch::PrefetchPlan plan = prefetch_planner_.plan(
      upcoming, self_,
      [this, &view](const std::string& path) {
        return resolve_owner(view.get(), path);
      },
      [this](const std::string& path) {
        return staged_prefetch_.find(path) != staged_prefetch_.end();
      });
  stats_.prefetch_planned += plan.pulls.size();
  if (recorder_ != nullptr) {
    recorder_->record_event(
        obs::RecordKind::kPrefetchPlan, obs::TraceContext{}, self_,
        static_cast<std::uint32_t>(deferred > 0 ? StatusCode::kCancelled
                                                : StatusCode::kOk),
        plan.pulls.size(), "plan");
  }
  prefetch_pending_.assign(plan.pulls.begin(), plan.pulls.end());
  issue_prefetch_pulls();
}

void HvacClient::drain_prefetch() {
  if (!config_.prefetch.enabled) return;
  // The transport enforces per-call deadlines, so this converges on its
  // own; the cap is purely a hang safeguard.
  const auto give_up = rpc::Clock::now() + std::chrono::seconds(30);
  for (;;) {
    drain_mailbox();
    if (prefetch_pending_.empty() &&
        prefetch_inflight_->load(std::memory_order_acquire) == 0) {
      // The callbacks post before decrementing, so a zero counter means
      // every outcome has been mailed — but possibly after the drain
      // above.  One final sweep picks up that tail.
      drain_mailbox();
      if (prefetch_pending_.empty() &&
          prefetch_inflight_->load(std::memory_order_acquire) == 0) {
        return;
      }
      continue;  // the sweep re-queued a timeout or issued a p2p hop
    }
    if (rpc::Clock::now() > give_up) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void HvacClient::issue_prefetch_pulls() {
  while (!prefetch_pending_.empty() &&
         prefetch_epoch_inflight_->load(std::memory_order_relaxed) <
             config_.prefetch.depth) {
    const std::string path = std::move(prefetch_pending_.front());
    prefetch_pending_.pop_front();
    if (staged_prefetch_.find(path) != staged_prefetch_.end()) continue;
    if (!issue_prefetch_pull(path, /*hop=*/0)) {
      // Placement moved under the plan (now self-owned, or no live
      // target): drop the pull, the demand path covers the file.
      ++stats_.prefetch_deferred;
    }
  }
}

bool HvacClient::issue_prefetch_pull(const std::string& path,
                                     std::uint32_t hop) {
  // Re-resolve at issue time, not plan time: the deque may outlive ring
  // surgery.  Hop 0 is the current owner; deeper hops walk the replica
  // chain (warm standbys) when the p2p fallback is on.
  const auto view = ring_view();
  NodeId target = ring::kInvalidNode;
  if (hop == 0) {
    target = resolve_owner(view.get(), path);
  } else {
    const auto chain = view->owner_chain(path, hop + 1);
    if (chain.size() > hop) target = chain[hop];
  }
  if (target == ring::kInvalidNode || target == self_ ||
      excluded_for_data(target)) {
    return false;
  }
  ++stats_.prefetch_pulls;
  prefetch_inflight_->fetch_add(1, std::memory_order_relaxed);
  prefetch_epoch_inflight_->fetch_add(1, std::memory_order_relaxed);
  const bool verify = config_.verify_checksums;
  // The completion only touches the refcounted mailbox/counter — never
  // the client, which may be gone by the time a pull against a dead peer
  // times out.
  transport_.call_async(
      target, make_request(rpc::Op::kPeerGet, path), config_.rpc_timeout,
      [mailbox = mailbox_, inflight = prefetch_inflight_,
       epoch_inflight = prefetch_epoch_inflight_, target, path, hop,
       verify](StatusOr<rpc::RpcResponse> result) {
        // The CRC runs here, on the pool thread, so the owning thread
        // does not pay for it.
        const bool corrupt =
            verify && result.is_ok() &&
            result.value().code == StatusCode::kOk &&
            hash::crc32(result.value().payload.view()) !=
                result.value().checksum;
        mailbox->post({.purpose = Mailbox::Purpose::kPrefetch,
                       .node = target,
                       .result = std::move(result),
                       .path = path,
                       .hop = hop,
                       .corrupt = corrupt});
        // Decrement strictly AFTER the post: inflight == 0 then implies
        // every reply is in the mailbox (drain_prefetch's exit sweep
        // relies on this ordering to never strand a staged payload).
        epoch_inflight->fetch_sub(1, std::memory_order_relaxed);
        inflight->fetch_sub(1, std::memory_order_release);
      });
  return true;
}

void HvacClient::on_prefetch_reply(NodeId node, std::string path,
                                   std::uint32_t hop, bool corrupt,
                                   StatusOr<rpc::RpcResponse> result) {
  switch (settle(node, result)) {
    case ReplyClass::kLost:
      // Re-queue at the back: by the time it reissues, the published
      // removal has moved ownership to the successor (the kill-recovery
      // path).
      prefetch_pending_.push_back(std::move(path));
      break;
    case ReplyClass::kAnswered:
      if (result.value().code == StatusCode::kOk && !corrupt) {
        ++stats_.prefetch_hits;
        rpc::RpcResponse response = std::move(result).value();
        staged_prefetch_[path] = StagedPrefetch{std::move(response.payload),
                                                response.replica_generation};
        break;
      }
      if (result.value().code == StatusCode::kOk ||
          result.value().code == StatusCode::kNotFound) {
        // The peer lacks intact bytes (a corrupted payload is dropped; the
        // demand read re-fetches with its own integrity check).  With p2p
        // on that is not the end: a warm standby one hop down the chain
        // may hold them.
        if (peer_policy_ == nullptr ||
            hop + 1 >= std::max<std::uint32_t>(2, config_.replication.factor) ||
            !issue_prefetch_pull(path, hop + 1)) {
          ++stats_.prefetch_misses;
        }
        break;
      }
      [[fallthrough]];
    default:
      // A shed, a fence or another refusal: background work defers to
      // foreground load rather than retrying into it.
      ++stats_.prefetch_deferred;
      break;
  }
  issue_prefetch_pulls();
}

StatusOr<common::Buffer> HvacClient::peer_rescue(
    const std::string& path, rpc::DeadlineNs deadline,
    const obs::TraceContext& trace) {
  const auto chain = ring_view()->owner_chain(
      path, std::max<std::size_t>(2, config_.replication.factor));
  for (const NodeId peer : chain) {
    if (peer == self_ || excluded_for_data(peer)) continue;
    auto result =
        transport_.call(peer, make_request(rpc::Op::kPeerGet, path, deadline),
                        attempt_timeout(deadline));
    // Lost, shed, fenced or kNotFound: this peer cannot help.
    if (settle(peer, result) != ReplyClass::kAnswered ||
        result.value().code != StatusCode::kOk) {
      continue;
    }
    rpc::RpcResponse response = std::move(result).value();
    if (config_.verify_checksums &&
        hash::crc32(response.payload.view()) != response.checksum) {
      ++stats_.checksum_failures;
      continue;
    }
    ++stats_.p2p_rescues;
    stats_.p2p_bytes += response.payload.size();
    if (recorder_ != nullptr) {
      recorder_->record_event(
          obs::RecordKind::kPeerRecache,
          trace.sampled ? trace.child() : obs::TraceContext{}, self_,
          static_cast<std::uint32_t>(StatusCode::kOk), peer, path);
    }
    // Heal the authoritative owner node-to-node: the PeerRecachePolicy
    // plan carries the serving peer's generation-ledger stamp and rides
    // the unified push, merging with any warm-standby placement owed.
    const std::function<bool(NodeId)> excluded = [this](NodeId node) {
      return excluded_for_data(node);
    };
    placement::PlanContext ctx;
    ctx.path = path;
    ctx.primary = peer;  // the node that already holds the bytes
    ctx.generation = response.replica_generation;
    ctx.chain = &chain;
    ctx.excluded = &excluded;
    const placement::ReplicaPlan heal = peer_policy_->plan(ctx);
    push_replicas(path, response.payload, peer, /*cache_fill=*/false, &heal);
    return std::move(response.payload);
  }
  return Status::not_found("no peer holds " + path);
}

std::optional<StatusOr<common::Buffer>> HvacClient::on_read_reply(
    const std::string& path, NodeId node, StatusOr<rpc::RpcResponse> result,
    std::optional<double> latency_us, const obs::TraceContext& trace) {
  switch (settle(node, result)) {
    case ReplyClass::kError:
      return StatusOr<common::Buffer>(result.status());
    case ReplyClass::kLost:
      switch (config_.mode) {
        case FtMode::kNone:
          return StatusOr<common::Buffer>(
              Status::timeout("node " + std::to_string(node) +
                              " unresponsive; NoFT aborts"));
        case FtMode::kPfsRedirect:
          // Per Fig 3(a): the timed-out request itself is redirected.
          return read_from_pfs(path, trace);
        case FtMode::kHashRingRecache:
          // Retry: if the node was flagged the ring changed; otherwise the
          // same owner gets another chance (transient delay).
          return std::nullopt;
      }
      return std::nullopt;
    case ReplyClass::kShed:
      // Shed, not served: never a latency sample (a rejection says nothing
      // about service time).  The retry it provokes is server-DIRECTED,
      // not speculative: the server paces it via retry_after and the
      // deadline bounds it.  It must not drain the retry budget — a
      // drained bucket diverts reads to the direct-PFS fallback, i.e.
      // admission control would be funnelling load onto the very
      // filesystem it exists to protect.
      ++stats_.busy_rejections;
      retry_is_server_directed_ = true;
      busy_retry_after_ms_ =
          std::max(busy_retry_after_ms_, result.value().retry_after_ms);
      return std::nullopt;
    case ReplyClass::kFenced:
    case ReplyClass::kAnswered:
      break;
  }
  if (latency_us.has_value()) latency_.record(*latency_us);
  rpc::RpcResponse response = std::move(result).value();
  if (response.code != StatusCode::kOk) {
    // Server answered with an application error (e.g. file missing from
    // PFS entirely): not a fault signal, surface it.
    return StatusOr<common::Buffer>(
        Status(response.code,
               "server " + std::to_string(node) + " error for " + path));
  }
  // Successful traffic funds future retries/hedges (no-op with the budget
  // off).
  retry_budget_.record_success();
  // End-to-end integrity: always a fresh CRC pass over the received bytes
  // (never the server's memoized value) so wire corruption is actually
  // exercised.
  if (config_.verify_checksums &&
      hash::crc32(response.payload.view()) != response.checksum) {
    ++stats_.checksum_failures;
    return StatusOr<common::Buffer>(
        Status::internal("checksum mismatch for " + path));
  }
  if (response.cache_hit) {
    ++stats_.served_remote_cache;
  } else {
    ++stats_.served_remote_fetch;
  }
  // Replica placement — every firing policy (miss-recache on a fill, hot
  // fanout on the first post-promotion read, warm standby whenever
  // coverage is missing or stale) plans against one shared chain walk and
  // the target sets are deduped per node.
  push_replicas(path, response.payload, node, !response.cache_hit);
  return StatusOr<common::Buffer>(std::move(response.payload));
}

std::optional<StatusOr<common::Buffer>> HvacClient::read_attempt(
    const std::string& path, NodeId owner, std::size_t attempt,
    bool server_directed, rpc::DeadlineNs deadline,
    const obs::TraceContext& trace) {
  rpc::RpcRequest request = make_request(rpc::Op::kReadFile, path, deadline);
  const bool traced = recorder_ != nullptr && trace.sampled;
  obs::TraceContext attempt_ctx;
  std::int64_t attempt_start_ns = 0;
  if (traced) {
    attempt_ctx = trace.child();
    request.trace = attempt_ctx;
    attempt_start_ns = obs::now_ns();
  }
  const auto call_start = rpc::Clock::now();
  auto result =
      transport_.call(owner, std::move(request), attempt_timeout(deadline));
  const double latency_us = micros_since(call_start);
  if (traced) {
    const StatusCode code =
        result.is_ok() ? result.value().code : result.status().code();
    recorder_->record_span(
        server_directed ? obs::RecordKind::kBusyRetry
                        : obs::RecordKind::kClientAttempt,
        attempt_ctx, owner, attempt_start_ns, obs::now_ns(),
        static_cast<std::uint32_t>(code), attempt,
        attempt == 0 ? "primary" : (server_directed ? "busy_retry" : "retry"));
  }
  return on_read_reply(path, owner, std::move(result), latency_us, trace);
}

std::optional<StatusOr<common::Buffer>> HvacClient::hedged_attempt(
    const std::string& path, NodeId owner, rpc::DeadlineNs deadline,
    const obs::TraceContext& trace) {
  auto wait = std::make_shared<HedgeWait>();
  const auto leg_timeout = attempt_timeout(deadline);
  // Leg spans are recorded from the transport-pool completion callbacks
  // (the legs outlive this function on the slow paths), so the recorder
  // pointer rides the capture; null when this read is unsampled.
  obs::FlightRecorder* const recorder =
      (recorder_ != nullptr && trace.sampled) ? recorder_ : nullptr;
  // Both legs inherit the read's remaining budget: the server sheds either
  // leg unexecuted once the client has given the read up.
  const rpc::RpcRequest request =
      make_request(rpc::Op::kReadFile, path, deadline);
  const auto launch = [&](std::size_t slot, NodeId node) {
    rpc::RpcRequest leg = request;
    const obs::TraceContext ctx =
        recorder != nullptr ? trace.child() : obs::TraceContext{};
    leg.trace = ctx;
    const std::int64_t start_ns = recorder != nullptr ? obs::now_ns() : 0;
    transport_.call_async(
        node, std::move(leg), leg_timeout,
        [wait, mailbox = mailbox_, slot, node, recorder, ctx,
         start_ns](StatusOr<rpc::RpcResponse> result) {
          if (recorder != nullptr) {
            recorder->record_span(
                slot == 0 ? obs::RecordKind::kClientAttempt
                          : obs::RecordKind::kHedgeLeg,
                ctx, node, start_ns, obs::now_ns(),
                static_cast<std::uint32_t>(result.is_ok()
                                               ? result.value().code
                                               : result.status().code()),
                0, slot == 0 ? "hedge_primary" : "hedge");
          }
          {
            std::lock_guard lock(wait->mutex);
            if (!wait->abandoned) {
              wait->legs[slot] = std::move(result);
              wait->cv.notify_all();
              return;
            }
          }
          mailbox->post({.purpose = Mailbox::Purpose::kReadLeg,
                         .node = node,
                         .result = std::move(result)});
        });
  };
  // Stops waiting: the legs that landed are the read's to settle, later
  // ones go to the mailbox.
  const auto take_legs = [&wait](std::unique_lock<std::mutex>& lock) {
    wait->abandoned = true;
    auto legs = std::move(wait->legs);
    lock.unlock();
    return legs;
  };

  const auto start = rpc::Clock::now();
  launch(0, owner);
  const auto hedge_delay = current_hedge_delay();
  std::unique_lock lock(wait->mutex);
  const auto primary_in = [&wait] { return wait->legs[0].has_value(); };
  if (wait->cv.wait_for(lock, hedge_delay, primary_in)) {
    // Fast path: the owner answered before the hedge was due — the common
    // case, the plain attempt, latency sample included.
    auto legs = take_legs(lock);
    return on_read_reply(path, owner, std::move(*legs[0]),
                         micros_since(start), trace);
  }

  // Primary silent past the hedge delay.  A hedge leg is an extra attempt
  // and must be funded by the retry budget: when the bucket is dry (a
  // storm, by definition) hedging self-disables and we simply keep
  // waiting on the primary — racing a second node would double the very
  // load that is sinking the cluster.
  if (!spend_retry_token()) {
    wait->cv.wait_for(lock, leg_timeout, primary_in);
    auto legs = take_legs(lock);
    if (!legs[0].has_value()) return std::nullopt;
    return on_read_reply(path, owner, std::move(*legs[0]), std::nullopt,
                         trace);
  }
  lock.unlock();

  // Race the next distinct ring successor, or fall back to the PFS when
  // the ring has no one else.
  ++stats_.hedges_launched;
  NodeId hedge_target = ring::kInvalidNode;
  for (const NodeId candidate : ring_view()->owner_chain(path, 2)) {
    if (candidate != owner && !excluded_for_data(candidate)) {
      hedge_target = candidate;
      break;
    }
  }
  if (hedge_target == ring::kInvalidNode) {
    // The authoritative copy always exists.
    ++stats_.hedges_to_pfs;
    lock.lock();
    auto legs = take_legs(lock);
    if (legs[0].has_value()) settle(owner, *legs[0]);
    return read_from_pfs(path, trace);
  }
  launch(1, hedge_target);

  // First success wins; prefer the primary when both served.  The cap
  // covers both legs' RPC deadlines plus pool queueing slack — purely a
  // hang safeguard, the transport itself enforces per-call deadlines.
  const auto served = [](const std::optional<StatusOr<rpc::RpcResponse>>& leg) {
    return leg.has_value() && leg->is_ok() &&
           leg->value().code == StatusCode::kOk;
  };
  lock.lock();
  wait->cv.wait_until(
      lock, rpc::Clock::now() + 2 * leg_timeout + hedge_delay,
      [&] {
        return served(wait->legs[0]) || served(wait->legs[1]) ||
               (wait->legs[0].has_value() && wait->legs[1].has_value());
      });
  auto legs = take_legs(lock);
  const int winner = served(legs[0]) ? 0 : (served(legs[1]) ? 1 : -1);
  const std::array<NodeId, 2> nodes{owner, hedge_target};
  std::optional<StatusOr<common::Buffer>> outcome;
  for (std::size_t slot = 0; slot < legs.size(); ++slot) {
    if (!legs[slot].has_value()) continue;
    if (winner < 0) {
      // Neither leg served: each gets the attempt's verdict (a shed leg's
      // retry-after paces the retry), but an error answer is not final —
      // the retry loop re-resolves ownership.
      (void)on_read_reply(path, nodes[slot], std::move(*legs[slot]),
                          std::nullopt, trace);
    } else if (static_cast<int>(slot) == winner) {
      outcome = on_read_reply(path, nodes[slot], std::move(*legs[slot]),
                              std::nullopt, trace);
    } else {
      settle(nodes[slot], *legs[slot]);  // the slower leg's node bookkeeping
    }
  }
  if (winner == 0) ++stats_.primary_wins_after_hedge;
  if (winner == 1) ++stats_.hedge_wins;
  return outcome;
}

StatusOr<common::Buffer> HvacClient::read_file(const std::string& path) {
  ++stats_.reads;
  drain_mailbox();
  maybe_probe();

  // Sampling decision: every `sample_every`-th read gets a root span and
  // a sampled context that rides each attempt (the untraced path pays
  // exactly this null check).
  obs::TraceContext trace;
  std::int64_t trace_start = 0;
  if (recorder_ != nullptr && trace_sample_every_ != 0 &&
      trace_seq_++ % trace_sample_every_ == 0) {
    trace = obs::TraceContext::root();
    trace_start = obs::now_ns();
  }
  if (!trace.sampled) return read_file_impl(path, trace);
  auto result = read_file_impl(path, trace);
  recorder_->record_span(
      obs::RecordKind::kClientRead, trace, self_, trace_start, obs::now_ns(),
      static_cast<std::uint32_t>(result.is_ok() ? StatusCode::kOk
                                                : result.status().code()),
      0, path);
  return result;
}

StatusOr<common::Buffer> HvacClient::read_file_impl(
    const std::string& path, const obs::TraceContext& trace) {
  // Epoch-ahead fast path: a staged prefetch is consumed without any
  // network round trip (CRC was verified at pull completion).  One-shot
  // by design — the next epoch's planner re-pulls if the shuffle repeats
  // the file, and the ring owner remains authoritative throughout.
  if (!staged_prefetch_.empty()) {
    const auto staged = staged_prefetch_.find(path);
    if (staged != staged_prefetch_.end()) {
      ++stats_.prefetch_local_hits;
      common::Buffer payload = std::move(staged->second.payload);
      staged_prefetch_.erase(staged);
      return payload;
    }
  }
  const bool hedging = config_.hedge_reads &&
                       config_.mode == FtMode::kHashRingRecache;

  // The read's total budget, inherited by every attempt and hedge leg
  // (kNoDeadline with the knob off — legacy unbounded retries).
  const rpc::DeadlineNs deadline =
      config_.total_deadline.count() > 0
          ? rpc::deadline_in(config_.total_deadline)
          : rpc::kNoDeadline;

  // Bounded by the membership size: with R alive nodes a read can at worst
  // flag R owners in sequence before the PFS terminal fallback.
  const std::size_t max_attempts =
      (ring_ != nullptr ? ring_view()->node_count() : modulo_->node_count()) +
      1;
  retry_is_server_directed_ = false;
  // Hot-set bookkeeping once per read (not per attempt — retries of one
  // read are one access): ring-change invalidation, heat recording,
  // promotion/demotion transitions.
  note_hot_access(path);
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (rpc::deadline_expired(deadline)) {
      // Budget spent: give up rather than keep a storm-era request alive
      // past the point anyone wants its answer.
      ++stats_.deadline_give_ups;
      return Status::timeout("read budget exhausted for " + path);
    }
    // SPECULATIVE extra attempts must be funded; a dry bucket means the
    // cluster is drowning in retries already.  The authoritative copy
    // still exists — take the slow-but-safe path instead of amplifying.
    // Retries the server itself directed via kBusy+retry_after are exempt
    // (see on_read_reply): they are paced by the hint and the deadline.
    const bool server_directed = retry_is_server_directed_;
    retry_is_server_directed_ = false;
    busy_retry_after_ms_ = 0;
    if (attempt > 0 && !server_directed && !spend_retry_token()) {
      break;
    }
    // Skew-tolerant target choice: p2c over a hot replica set, else a
    // bounded-load spill past an overloaded primary, else (and with the
    // knobs off, always) the plain single owner.
    const NodeId owner = pick_read_target(path, trace);
    if (owner == ring::kInvalidNode) {
      // Every cache server is gone; the PFS is the only copy left.
      return config_.mode == FtMode::kNone
                 ? StatusOr<common::Buffer>(
                       Status::unavailable("no cache servers alive"))
                 : read_from_pfs(path, trace);
    }

    if (config_.mode != FtMode::kHashRingRecache &&
        detector_.is_out_of_service(owner)) {
      // Static placement still maps a flagged node's keys to it; in ring
      // mode a flagged node is off the ring (or excluded) already.
      if (config_.mode == FtMode::kPfsRedirect) {
        return read_from_pfs(path, trace);
      }
      return Status::unavailable("owner " + std::to_string(owner) +
                                 " failed and NoFT cannot recover");
    }

    auto verdict =
        hedging ? hedged_attempt(path, owner, deadline, trace)
                : read_attempt(path, owner, attempt, server_directed,
                               deadline, trace);
    if (verdict.has_value()) return std::move(*verdict);
    // Shed: jittered exponential backoff in the attempt number, never
    // below the server's hint, never past the deadline.  A hedged race
    // backs off from the base step (its legs already sat out the delay).
    if (retry_is_server_directed_) {
      busy_backoff(busy_retry_after_ms_, hedging ? 0 : attempt, deadline);
    }
  }
  // Retries exhausted without a verdict.  With p2p recache on, the
  // replica chain gets one last node-to-node chance (a warm standby often
  // still holds the bytes mid-storm) before paying the PFS.
  if (peer_policy_ != nullptr) {
    auto rescued = peer_rescue(path, deadline, trace);
    if (rescued.is_ok()) return rescued;
  }
  // Serve the authoritative copy.
  return read_from_pfs(path, trace);
}

}  // namespace ftc::cluster
