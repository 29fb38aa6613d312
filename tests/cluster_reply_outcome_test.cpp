// The client's reply-outcome table: for every kind of call an HvacClient
// makes (read attempt, both hedge legs, ping, peer rescue, sync and
// write-behind kPuts, prefetch pull, reinstatement probe, hot-replica
// evict) one reply of each kind — ok, kBusy, kFencedEpoch, kCancelled,
// kNotFound, a timeout and kUnavailable — and what the client made of it:
// the target's detector state, every Stats field that moved, and the
// purpose's own trace (the read's result, a warm re-push, a staged
// prefetch, the nodes a pull walked, the ring epoch).
//
// The servers are scripted endpoints on a real transport, so each row
// drives exactly one reply kind at exactly one node.  The client is node
// 9, outside the ring, so every call crosses the transport.  Before each
// row the target has one timeout on record (suspect), so a reply that
// counts as liveness evidence shows as the counter reset.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hvac_client.hpp"
#include "hash/crc32.hpp"
#include "membership/ring_view.hpp"
#include "membership/swim.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

constexpr NodeId kClient = 9;
/// Registered but outside the client's ring: the elastic joiner, and the
/// node the mailbox-draining ping goes to.
constexpr NodeId kJoiner = 4;
/// The node every row's reply comes from.
constexpr NodeId kTarget = 1;
constexpr auto kRpcTimeout = 100ms;
const std::vector<NodeId> kServers{0, 1, 2, 3};

enum class Kind {
  kOk,
  kBusy,
  kFenced,
  kCancelled,
  kNotFound,
  kTimeout,
  kUnavailable,
};
constexpr std::array<Kind, 7> kKinds{Kind::kOk,       Kind::kBusy,
                                     Kind::kFenced,   Kind::kCancelled,
                                     Kind::kNotFound, Kind::kTimeout,
                                     Kind::kUnavailable};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kOk: return "ok";
    case Kind::kBusy: return "busy";
    case Kind::kFenced: return "fenced";
    case Kind::kCancelled: return "cancelled";
    case Kind::kNotFound: return "not_found";
    case Kind::kTimeout: return "timeout";
    case Kind::kUnavailable: return "unavailable";
  }
  return "?";
}

ring::RingConfig ring_config() {
  ring::RingConfig config;
  config.vnodes_per_node = 50;
  config.seed = 0;
  return config;
}

membership::SwimConfig swim_config() {
  membership::SwimConfig config;
  config.enabled = true;
  config.background = false;
  return config;
}

HvacClientConfig base_config() {
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.rpc_timeout = kRpcTimeout;
  config.timeout_limit = 3;
  config.vnodes_per_node = ring_config().vnodes_per_node;
  config.ring_seed = ring_config().seed;
  // Probes fire on their own schedule; only the probe rows want them.
  config.reinstatement = false;
  return config;
}

/// First "/table/file_<i>" whose `count`-long owner chain over `nodes`
/// satisfies `pick`.
template <typename Pick>
std::string find_path(const std::vector<NodeId>& nodes, Pick pick) {
  const membership::VersionedRing ring(ring_config(), nodes, 1);
  const auto view = ring.view();
  for (int i = 0; i < 10000; ++i) {
    std::string path = "/table/file_" + std::to_string(i);
    if (pick(view->owner_chain(path, 3))) return path;
  }
  return {};
}

/// kTarget owns the path; node 2 is its first backup.
std::string owned_by_target() {
  return find_path(kServers, [](const std::vector<NodeId>& chain) {
    return chain[0] == kTarget && chain[1] == 2;
  });
}

/// Node 0 owns the path and kTarget is its first backup.
std::string backed_by_target() {
  return find_path(kServers, [](const std::vector<NodeId>& chain) {
    return chain[0] == 0 && chain[1] == kTarget;
  });
}

/// Owned by node 3: a read that touches neither node 0 nor kTarget.
std::string bystander() {
  return find_path(kServers, [](const std::vector<NodeId>& chain) {
    return chain[0] == 3;
  });
}

/// Node 0 or 1 owns the path once node 4 has joined, and kTarget is then
/// its first backup.
std::string backed_by_target_after_join() {
  return find_path({0, 1, 2, 3, kJoiner}, [](const std::vector<NodeId>& chain) {
    return chain[1] == kTarget && chain[0] != 3;
  });
}

/// Scripted servers 0-4 on one transport plus the client under test.
/// Every (node, op) answers kOk with a CRC'd payload until told otherwise.
class Scripted {
 public:
  explicit Scripted(const HvacClientConfig& config)
      : ahead_(0, transport_, swim_config(), ring_config(), kServers) {
    // The fencing servers' view: two joins ahead of epoch 0.
    ahead_.join(kJoiner);
    ahead_.join(5);
    for (NodeId node = 0; node <= kJoiner; ++node) register_node(node);
    for (const std::string& path :
         {owned_by_target(), backed_by_target(), bystander(),
          backed_by_target_after_join()}) {
      pfs_.put(path, "pfs copy of " + path);
    }
    client_ = std::make_unique<HvacClient>(kClient, transport_, pfs_,
                                           kServers, config);
  }

  Scripted(const Scripted&) = delete;
  Scripted& operator=(const Scripted&) = delete;

  ~Scripted() {
    client_.reset();
    transport_.drain_async();
    for (NodeId node = 0; node <= kJoiner; ++node) {
      if (!down_.contains(node)) (void)transport_.unregister_endpoint(node);
    }
  }

  HvacClient& client() { return *client_; }
  rpc::Transport& transport() { return transport_; }

  /// `node` answers `op` with `kind` from now on.  kUnavailable takes the
  /// whole endpoint away (the transport answers it, not the server).
  void answer(NodeId node, rpc::Op op, Kind kind) {
    if (kind == Kind::kUnavailable) {
      if (down_.insert(node).second) {
        ASSERT_TRUE(transport_.unregister_endpoint(node).is_ok());
      }
      return;
    }
    std::lock_guard lock(mutex_);
    script_[{node, op}] = kind;
  }

  /// Brings an unregistered endpoint back, answering kOk.
  void restore(NodeId node) {
    {
      std::lock_guard lock(mutex_);
      for (auto it = script_.begin(); it != script_.end();) {
        it = it->first.first == node ? script_.erase(it) : std::next(it);
      }
    }
    if (down_.erase(node) > 0) register_node(node);
  }

  [[nodiscard]] std::uint32_t received(NodeId node, rpc::Op op) {
    std::lock_guard lock(mutex_);
    const auto it = received_.find({node, op});
    return it == received_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::uint32_t received_all(rpc::Op op) {
    std::uint32_t total = 0;
    for (NodeId node = 0; node <= kJoiner; ++node) total += received(node, op);
    return total;
  }

  /// Attaches a client-side agent at epoch 0 (the fenced rows: a fenced
  /// reply carries the servers' two-epoch fast-forward).
  void attach_membership() {
    client_agent_ = std::make_unique<membership::MembershipAgent>(
        kClient, transport_, swim_config(), ring_config(), kServers);
    client_->attach_membership(client_agent_.get());
  }
  [[nodiscard]] membership::MembershipAgent* client_agent() {
    return client_agent_.get();
  }
  [[nodiscard]] std::uint64_t servers_epoch() const { return ahead_.epoch(); }

  /// One timeout on record against `node` (suspect, not flagged).
  void make_suspect(NodeId node) {
    transport_.drop_next(node, 1);
    (void)client_->ping(node);
  }

  /// Lets every in-flight async call complete, then folds the replies in
  /// (a ping drains the mailbox before it sends).
  void settle_async() {
    transport_.drain_async();
    (void)client_->ping(kJoiner);
  }

 private:
  void register_node(NodeId node) {
    ASSERT_TRUE(transport_
                    .register_endpoint(
                        node,
                        [this, node](const rpc::RpcRequest& request) {
                          return serve(node, request);
                        },
                        /*workers=*/4)
                    .is_ok());
  }

  rpc::RpcResponse serve(NodeId node, const rpc::RpcRequest& request) {
    Kind kind = Kind::kOk;
    {
      std::lock_guard lock(mutex_);
      ++received_[{node, request.op}];
      const auto it = script_.find({node, request.op});
      if (it != script_.end()) kind = it->second;
    }
    rpc::RpcResponse response;
    // kTarget reports the heavier load, so a power-of-two pick between it
    // and another replica always lands on the other one.
    response.load_hint = rpc::encode_load_hint(node == kTarget ? 8.0 : 1.0);
    switch (kind) {
      case Kind::kOk:
        if (request.op == rpc::Op::kReadFile ||
            request.op == rpc::Op::kPeerGet) {
          response.payload = "bytes of " + request.path;
          response.checksum = hash::crc32(response.payload.view());
        }
        break;
      case Kind::kBusy:
        response.code = StatusCode::kBusy;
        response.retry_after_ms = 1;
        break;
      case Kind::kFenced:
        response.code = StatusCode::kFencedEpoch;
        ahead_.stamp_response(request, response);
        break;
      case Kind::kCancelled:
        response.code = StatusCode::kCancelled;
        break;
      case Kind::kNotFound:
        response.code = StatusCode::kNotFound;
        break;
      case Kind::kTimeout:
        std::this_thread::sleep_for(kRpcTimeout + 30ms);
        break;
      case Kind::kUnavailable:
        break;
    }
    return response;
  }

  // The script outlives the transport: endpoint workers read it.
  std::mutex mutex_;
  std::map<std::pair<NodeId, rpc::Op>, Kind> script_;
  std::map<std::pair<NodeId, rpc::Op>, std::uint32_t> received_;
  std::set<NodeId> down_;
  PfsStore pfs_;
  rpc::Transport transport_;
  membership::MembershipAgent ahead_;
  std::unique_ptr<membership::MembershipAgent> client_agent_;
  std::unique_ptr<HvacClient> client_;
};

/// Every Stats field that differs, as " field+delta".
std::string stats_delta(const HvacClient::Stats& before,
                        const HvacClient::Stats& after) {
  std::ostringstream out;
#define FTC_TABLE_DIFF(field, ...)                                 \
  if (after.field != before.field) {                               \
    out << ' ' << #field << '+'                                    \
        << static_cast<std::int64_t>(after.field - before.field); \
  }
  FTC_HVAC_CLIENT_STATS(FTC_TABLE_DIFF)
#undef FTC_TABLE_DIFF
  return out.str();
}

template <typename T>
std::string code_of(const StatusOr<T>& result) {
  return status_code_name(result.is_ok() ? StatusCode::kOk
                                         : result.status().code());
}

/// One row: `setup` runs with every node answering kOk, then kTarget is
/// made suspect (unless `setup` already took it further), the stats are
/// snapshotted, `kind` is applied to (kTarget, op) and `drive` returns the
/// purpose's own trace.
template <typename Setup, typename Drive>
std::string run_row(const HvacClientConfig& config, Kind kind, rpc::Op op,
                    Setup setup, Drive drive, bool presuspect = true) {
  Scripted cluster(config);
  setup(cluster);
  if (presuspect) cluster.make_suspect(kTarget);
  if (kind == Kind::kFenced && config.reinstatement == false) {
    cluster.attach_membership();
  }
  const auto before = cluster.client().stats_snapshot();
  cluster.answer(kTarget, op, kind);
  std::string trace = drive(cluster);
  std::ostringstream out;
  out << node_health_name(cluster.client().node_health(kTarget))
      << " timeouts=" << cluster.client().detector().timeout_count(kTarget)
      << " |" << stats_delta(before, cluster.client().stats_snapshot())
      << " |" << trace;
  if (cluster.client_agent() != nullptr) {
    out << " epoch=" << cluster.client_agent()->epoch();
  }
  return out.str();
}

void expect_table(const std::array<const char*, 7>& expected,
                  const std::function<std::string(Kind)>& row) {
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(row(kKinds[i]), expected[i]) << "reply kind "
                                           << kind_name(kKinds[i]);
  }
}

const auto kNoSetup = [](Scripted&) {};

// ---------------------------------------------------------------------------

TEST(ClientReplyOutcome, ReadAttempt) {
  const std::string path = owned_by_target();
  ASSERT_FALSE(path.empty());
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 | result=OK",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 busy_rejections+5 "
          "| result=OK",
          "healthy timeouts=0 | reads+1 stale_view_hints+1 "
          "epoch_fast_forwards+1 | result=FENCED_EPOCH epoch=2",
          "healthy timeouts=0 | reads+1 | result=CANCELLED",
          "healthy timeouts=0 | reads+1 | result=NOT_FOUND",
          "failed timeouts=0 | reads+1 served_remote_fetch+1 timeouts+2 "
          "nodes_flagged+1 ring_updates+1 | result=OK",
          "failed timeouts=0 | reads+1 served_remote_fetch+1 timeouts+2 "
          "nodes_flagged+1 ring_updates+1 | result=OK",
      },
      [&](Kind kind) {
        return run_row(base_config(), kind, rpc::Op::kReadFile, kNoSetup,
                       [&](Scripted& c) {
                         auto result = c.client().read_file(path);
                         return " result=" + code_of(result);
                       });
      });
}

TEST(ClientReplyOutcome, HedgePrimaryLeg) {
  // The owner's reply is the primary leg; its successor answers kOk.
  const std::string path = owned_by_target();
  HvacClientConfig config = base_config();
  config.hedge_reads = true;
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 | result=OK",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 busy_rejections+5 "
          "| result=OK",
          "healthy timeouts=0 | reads+1 stale_view_hints+1 "
          "epoch_fast_forwards+1 | result=FENCED_EPOCH epoch=2",
          "healthy timeouts=0 | reads+1 | result=CANCELLED",
          "healthy timeouts=0 | reads+1 | result=NOT_FOUND",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 "
          "hedges_launched+1 hedge_wins+1 | result=OK",
          "failed timeouts=0 | reads+1 served_remote_fetch+1 timeouts+2 "
          "nodes_flagged+1 ring_updates+1 | result=OK",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kReadFile, kNoSetup,
                       [&](Scripted& c) {
                         auto result = c.client().read_file(path);
                         c.settle_async();
                         return " result=" + code_of(result);
                       });
      });
}

TEST(ClientReplyOutcome, HedgeSecondLeg) {
  // The owner (node 0) answers kOk 60 ms late, past the 25 ms hedge
  // delay; the hedge leg to kTarget carries the row's reply.
  const std::string path = backed_by_target();
  HvacClientConfig config = base_config();
  config.hedge_reads = true;
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "hedges_launched+1 hedge_wins+1 | result=OK",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 | result=OK",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 stale_view_hints+1 "
          "epoch_fast_forwards+1 | result=OK epoch=2",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 | result=OK",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 | result=OK",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 | result=OK",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 "
          "hedges_launched+1 primary_wins_after_hedge+1 | result=OK",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kReadFile, kNoSetup,
                       [&](Scripted& c) {
                         c.transport().set_extra_latency(0, 60ms);
                         auto result = c.client().read_file(path);
                         c.settle_async();
                         return " result=" + code_of(result);
                       });
      });
}

TEST(ClientReplyOutcome, Ping) {
  expect_table(
      {
          "healthy timeouts=0 | | result=OK",
          "healthy timeouts=0 | | result=BUSY",
          "healthy timeouts=0 | stale_view_hints+1 epoch_fast_forwards+1 | "
          "result=FENCED_EPOCH epoch=2",
          "healthy timeouts=0 | | result=CANCELLED",
          "healthy timeouts=0 | | result=NOT_FOUND",
          "suspect timeouts=2 | timeouts+1 | result=TIMEOUT",
          "suspect timeouts=2 | timeouts+1 | result=UNAVAILABLE",
      },
      [&](Kind kind) {
        return run_row(base_config(), kind, rpc::Op::kPing, kNoSetup,
                       [&](Scripted& c) {
                         const Status status = c.client().ping(kTarget);
                         return std::string(" result=") +
                                status_code_name(status.code());
                       });
      });
}

TEST(ClientReplyOutcome, PeerRescue) {
  // Node 0 owns the path and is gone; the one-token retry budget runs dry
  // on the second attempt, so the read walks the chain over kPeerGet and
  // kTarget, the first backup, carries the row's reply.
  const std::string path = backed_by_target();
  HvacClientConfig config = base_config();
  config.prefetch.enabled = true;
  config.prefetch.p2p = true;
  config.retry_budget_ratio = 0.1;
  config.retry_budget_cap = 1.0;
  expect_table(
      {
          "healthy timeouts=0 | reads+1 timeouts+3 nodes_flagged+1 "
          "ring_updates+1 retries_denied_by_budget+1 p2p_rescues+1 "
          "p2p_bytes+22 | result=OK",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 timeouts+3 "
          "nodes_flagged+1 ring_updates+1 retries_denied_by_budget+1 | "
          "result=OK",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 timeouts+3 "
          "nodes_flagged+1 suspicions_reported+1 stale_view_hints+1 "
          "epoch_fast_forwards+1 retries_denied_by_budget+1 | result=OK "
          "epoch=2",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 timeouts+3 "
          "nodes_flagged+1 ring_updates+1 retries_denied_by_budget+1 | "
          "result=OK",
          "healthy timeouts=0 | reads+1 served_pfs_direct+1 timeouts+3 "
          "nodes_flagged+1 ring_updates+1 retries_denied_by_budget+1 | "
          "result=OK",
          "suspect timeouts=2 | reads+1 served_pfs_direct+1 timeouts+4 "
          "nodes_flagged+1 ring_updates+1 retries_denied_by_budget+1 | "
          "result=OK",
          "suspect timeouts=2 | reads+1 served_pfs_direct+1 timeouts+4 "
          "nodes_flagged+1 ring_updates+1 retries_denied_by_budget+1 | "
          "result=OK",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kPeerGet, kNoSetup,
                       [&](Scripted& c) {
                         c.answer(0, rpc::Op::kReadFile, Kind::kUnavailable);
                         auto result = c.client().read_file(path);
                         c.settle_async();
                         return " result=" + code_of(result);
                       });
      });
}

TEST(ClientReplyOutcome, SyncPut) {
  // factor 2 without warm standby: the miss fill's backup kPut to kTarget
  // runs inline.
  const std::string path = backed_by_target();
  HvacClientConfig config = base_config();
  config.replication.factor = 2;
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "replicas_pushed+1 | result=OK puts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 | result=OK "
          "puts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "stale_view_hints+1 epoch_fast_forwards+1 fenced_puts+1 | result=OK "
          "puts=1 epoch=2",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 | result=OK "
          "puts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 | result=OK "
          "puts=1",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 | "
          "result=OK puts=1",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 | "
          "result=OK puts=0",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kPut, kNoSetup,
                       [&](Scripted& c) {
                         auto result = c.client().read_file(path);
                         return " result=" + code_of(result) + " puts=" +
                                std::to_string(c.received_all(rpc::Op::kPut));
                       });
      });
}

TEST(ClientReplyOutcome, WriteBehindWarmPut) {
  // Warm standby: the standby kPut to kTarget is write-behind.  A second
  // read (every node answering kOk) shows whether the warm marking stood:
  // `repush` counts the kPuts it issued.
  const std::string path = backed_by_target();
  HvacClientConfig config = base_config();
  config.replication.factor = 2;
  config.replication.warm_standby = true;
  expect_table(
      {
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "replicas_pushed+1 warm_pushes+1 | result=OK standby=healthy/0 "
          "repush=0",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "replicas_pushed+1 warm_pushes+1 | result=OK standby=healthy/0 "
          "repush=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 timeouts+1 "
          "stale_view_hints+1 epoch_fast_forwards+1 fenced_puts+1 | result=OK "
          "standby=healthy/0 repush=0 epoch=2",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 | result=OK "
          "standby=healthy/0 repush=0",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "replicas_pushed+1 warm_pushes+1 | result=OK standby=healthy/0 "
          "repush=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 timeouts+1 "
          "replicas_pushed+1 warm_pushes+1 | result=OK standby=suspect/2 "
          "repush=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 timeouts+1 "
          "replicas_pushed+1 warm_pushes+1 | result=OK standby=suspect/2 "
          "repush=1",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kPut, kNoSetup,
                       [&](Scripted& c) {
                         auto result = c.client().read_file(path);
                         c.settle_async();
                         const std::string standby =
                             std::string(node_health_name(
                                 c.client().node_health(kTarget))) +
                             "/" +
                             std::to_string(
                                 c.client().detector().timeout_count(kTarget));
                         c.restore(kTarget);
                         const auto puts = c.received_all(rpc::Op::kPut);
                         (void)c.client().read_file(path);
                         c.settle_async();
                         return " result=" + code_of(result) +
                                " standby=" + standby + " repush=" +
                                std::to_string(c.received_all(rpc::Op::kPut) -
                                               puts);
                       });
      });
}

HvacClientConfig hot_config() {
  HvacClientConfig config = base_config();
  config.hot_fanout = true;
  config.hot_replica_fanout = 2;
  config.hot_promote_threshold = 2.0;
  config.hot_demote_threshold = 1.0;
  return config;
}

/// Teaches the client's load view both replicas' hints, so a
/// power-of-two pick between node 0 and kTarget lands on node 0.
const auto kLearnLoads = [](Scripted& c) {
  (void)c.client().ping(0);
  (void)c.client().ping(kTarget);
};

TEST(ClientReplyOutcome, WriteBehindFanoutPut) {
  // Hot fanout: the second read promotes the file and its replica kPut to
  // kTarget is write-behind.
  const std::string path = backed_by_target();
  expect_table(
      {
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "replicas_pushed+1 load_hints_observed+4 load_spread_reads+1 "
          "hot_promotions+1 | result=OK puts=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "load_hints_observed+4 load_spread_reads+1 hot_promotions+1 | "
          "result=OK puts=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "stale_view_hints+1 epoch_fast_forwards+1 load_hints_observed+4 "
          "load_spread_reads+1 hot_promotions+1 fenced_puts+1 | result=OK "
          "puts=1 epoch=2",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "load_hints_observed+4 load_spread_reads+1 hot_promotions+1 | "
          "result=OK puts=1",
          "healthy timeouts=0 | reads+2 served_remote_fetch+2 "
          "load_hints_observed+4 load_spread_reads+1 hot_promotions+1 | "
          "result=OK puts=1",
          "suspect timeouts=2 | reads+2 served_remote_fetch+2 timeouts+1 "
          "load_hints_observed+3 load_spread_reads+1 hot_promotions+1 | "
          "result=OK puts=1",
          "suspect timeouts=2 | reads+2 served_remote_fetch+2 timeouts+1 "
          "load_hints_observed+3 load_spread_reads+1 hot_promotions+1 | "
          "result=OK puts=0",
      },
      [&](Kind kind) {
        return run_row(hot_config(), kind, rpc::Op::kPut, kLearnLoads,
                       [&](Scripted& c) {
                         (void)c.client().read_file(path);
                         auto result = c.client().read_file(path);
                         c.settle_async();
                         return " result=" + code_of(result) + " puts=" +
                                std::to_string(c.received_all(rpc::Op::kPut));
                       });
      });
}

TEST(ClientReplyOutcome, PrefetchPull) {
  // A one-file epoch whose owner is kTarget; p2p on, so a miss walks on
  // to the backup (node 2).  `pulls` lists the kPeerGets per node.
  const std::string path = owned_by_target();
  HvacClientConfig config = base_config();
  config.prefetch.enabled = true;
  config.prefetch.p2p = true;
  expect_table(
      {
          "healthy timeouts=0 | prefetch_planned+1 prefetch_pulls+1 "
          "prefetch_hits+1 | staged=1 pulls=1:1,",
          "healthy timeouts=0 | prefetch_planned+1 prefetch_pulls+1 "
          "prefetch_deferred+1 | staged=0 pulls=1:1,",
          "healthy timeouts=0 | stale_view_hints+1 epoch_fast_forwards+1 "
          "prefetch_planned+1 prefetch_pulls+1 prefetch_deferred+1 | staged=0 "
          "pulls=1:1, epoch=2",
          "healthy timeouts=0 | prefetch_planned+1 prefetch_pulls+1 "
          "prefetch_deferred+1 | staged=0 pulls=1:1,",
          "healthy timeouts=0 | prefetch_planned+1 prefetch_pulls+2 "
          "prefetch_hits+1 | staged=1 pulls=1:1,2:1,",
          "failed timeouts=0 | timeouts+2 nodes_flagged+1 ring_updates+1 "
          "prefetch_planned+1 prefetch_pulls+3 prefetch_hits+1 | staged=1 "
          "pulls=1:2,2:1,",
          "failed timeouts=0 | timeouts+2 nodes_flagged+1 ring_updates+1 "
          "prefetch_planned+1 prefetch_pulls+3 prefetch_hits+1 | staged=1 "
          "pulls=2:1,",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kPeerGet, kNoSetup,
                       [&](Scripted& c) {
                         c.client().prefetch_epoch({path});
                         c.client().drain_prefetch();
                         std::string trace =
                             std::string(" staged=") +
                             (c.client().has_prefetched(path) ? "1" : "0") +
                             " pulls=";
                         for (NodeId node = 0; node <= kJoiner; ++node) {
                           const auto n = c.received(node, rpc::Op::kPeerGet);
                           if (n > 0) {
                             trace += std::to_string(node) + ":" +
                                      std::to_string(n) + ",";
                           }
                         }
                         return trace;
                       });
      });
}

TEST(ClientReplyOutcome, ReinstatementProbe) {
  // kTarget is in probation (three timeouts); a read elsewhere launches
  // the probe, whose reply is the row's.
  HvacClientConfig config = base_config();
  config.reinstatement = true;
  config.probe_backoff = 1ms;
  config.probe_backoff_cap = 1ms;
  const std::string other = bystander();
  const auto setup = [](Scripted& c) {
    c.transport().drop_next(kTarget, 3);
    for (int i = 0; i < 3; ++i) (void)c.client().ping(kTarget);
    std::this_thread::sleep_for(5ms);
  };
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 ring_updates+1 "
          "probes_sent+1 nodes_reinstated+1 | result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
          "probation timeouts=0 | reads+1 served_remote_fetch+1 probes_sent+1 "
          "| result=OK",
      },
      [&](Kind kind) {
        return run_row(config, kind, rpc::Op::kPing, setup,
                       [&](Scripted& c) {
                         auto result = c.client().read_file(other);
                         c.settle_async();
                         return " result=" + code_of(result);
                       },
                       /*presuspect=*/false);
      });
}

TEST(ClientReplyOutcome, HotReplicaEvict) {
  // A promoted file whose replica set moves when node 4 joins: the next
  // read tears the set down with a kEvict to its new backup, kTarget.
  const std::string path = backed_by_target_after_join();
  const std::string other = bystander();
  ASSERT_FALSE(path.empty());
  const auto setup = [&](Scripted& c) {
    kLearnLoads(c);
    (void)c.client().read_file(path);
    (void)c.client().read_file(path);
    c.settle_async();
    ASSERT_TRUE(c.client().file_is_hot(path));
  };
  expect_table(
      {
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 ring_updates+1 "
          "load_hints_observed+3 hot_invalidations+1 | result=OK evicts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 ring_updates+1 "
          "load_hints_observed+3 hot_invalidations+1 | result=OK evicts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 "
          "stale_view_hints+1 epoch_fast_forwards+1 load_hints_observed+3 "
          "hot_invalidations+1 | result=OK evicts=1 epoch=2",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 ring_updates+1 "
          "load_hints_observed+3 hot_invalidations+1 | result=OK evicts=1",
          "healthy timeouts=0 | reads+1 served_remote_fetch+1 ring_updates+1 "
          "load_hints_observed+3 hot_invalidations+1 | result=OK evicts=1",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 "
          "ring_updates+1 load_hints_observed+2 hot_invalidations+1 | "
          "result=OK evicts=1",
          "suspect timeouts=2 | reads+1 served_remote_fetch+1 timeouts+1 "
          "ring_updates+1 load_hints_observed+2 hot_invalidations+1 | "
          "result=OK evicts=0",
      },
      [&](Kind kind) {
        return run_row(hot_config(), kind, rpc::Op::kEvict, setup,
                       [&](Scripted& c) {
                         if (c.client_agent() != nullptr) {
                           c.client_agent()->join(kJoiner);
                         } else {
                           c.client().add_server(kJoiner);
                         }
                         auto result = c.client().read_file(other);
                         c.settle_async();
                         return " result=" + code_of(result) + " evicts=" +
                                std::to_string(
                                    c.received(kTarget, rpc::Op::kEvict));
                       });
      });
}

// ---------------------------------------------------------------------------
// One rule per question: what counts as a timeout, what counts as pushed,
// and that an async reply is folded like a sync one.
// ---------------------------------------------------------------------------

TEST(ClientReplyOutcome, FencedWriteBehindPutFastForwardsTheClient) {
  HvacClientConfig config = base_config();
  config.replication.factor = 2;
  config.replication.warm_standby = true;
  Scripted cluster(config);
  cluster.attach_membership();
  cluster.answer(kTarget, rpc::Op::kPut, Kind::kFenced);
  ASSERT_TRUE(cluster.client().read_file(backed_by_target()).is_ok());
  cluster.settle_async();
  const auto stats = cluster.client().stats_snapshot();
  EXPECT_EQ(stats.fenced_puts, 1u);
  EXPECT_EQ(stats.epoch_fast_forwards, 1u);
  EXPECT_EQ(cluster.client_agent()->epoch(), cluster.servers_epoch());
}

TEST(ClientReplyOutcome, PingCountsAnUnavailableNodeAsATimeout) {
  Scripted cluster(base_config());
  cluster.answer(kTarget, rpc::Op::kPing, Kind::kUnavailable);
  EXPECT_EQ(cluster.client().ping(kTarget).code(), StatusCode::kUnavailable);
  EXPECT_EQ(cluster.client().stats_snapshot().timeouts, 1u);
  EXPECT_EQ(cluster.client().detector().timeout_count(kTarget), 1u);
}

TEST(ClientReplyOutcome, SyncPutCountsAnUnavailableBackupAsATimeout) {
  HvacClientConfig config = base_config();
  config.replication.factor = 2;
  Scripted cluster(config);
  cluster.answer(kTarget, rpc::Op::kPut, Kind::kUnavailable);
  ASSERT_TRUE(cluster.client().read_file(backed_by_target()).is_ok());
  EXPECT_EQ(cluster.client().stats_snapshot().timeouts, 1u);
  EXPECT_EQ(cluster.client().node_health(kTarget), NodeHealth::kSuspect);
}

TEST(ClientReplyOutcome, SyncPutCountsOnlyAcknowledgedReplicas) {
  HvacClientConfig config = base_config();
  config.replication.factor = 2;
  for (const Kind kind : {Kind::kBusy, Kind::kCancelled, Kind::kNotFound}) {
    Scripted cluster(config);
    cluster.answer(kTarget, rpc::Op::kPut, kind);
    ASSERT_TRUE(cluster.client().read_file(backed_by_target()).is_ok());
    EXPECT_EQ(cluster.received(kTarget, rpc::Op::kPut), 1u);
    EXPECT_EQ(cluster.client().stats_snapshot().replicas_pushed, 0u)
        << kind_name(kind);
  }
}

}  // namespace
}  // namespace ftc::cluster
