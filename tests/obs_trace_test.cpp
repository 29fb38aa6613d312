// End-to-end tracing tests: trace propagation from a client read through
// hedge legs, busy retries and server phases; PFS singleflight
// leader/joiner attribution; and the migrated-counter contract (the
// metrics export and the legacy stats_snapshot() views read the same
// counters, and tracing-off behaviour is bit-for-bit legacy).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/hvac_client.hpp"
#include "cluster/hvac_server.hpp"
#include "cluster/pfs_guard.hpp"
#include "cluster/pfs_store.hpp"
#include "membership/swim.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "rpc/transport.hpp"
#include "store/tiered_store.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig traced_config(std::uint32_t nodes = 4) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 100ms;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.obs.tracing = true;
  config.obs.sample_every = 1;
  return config;
}

std::vector<obs::Record> of_kind(const std::vector<obs::Record>& records,
                                 obs::RecordKind kind) {
  std::vector<obs::Record> out;
  for (const obs::Record& r : records) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

TEST(TracePropagation, ReadProducesLinkedSpanTree) {
  Cluster cluster(traced_config());
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }

  const std::vector<obs::Record> records = cluster.dump_traces();
  const auto roots = of_kind(records, obs::RecordKind::kClientRead);
  // warm_caches reads each path once, then we read each once more; every
  // read is sampled at sample_every=1.
  EXPECT_EQ(roots.size(), paths.size() * 2);

  // Every root is a well-formed span: nonzero ids, no parent, end>=start.
  for (const obs::Record& root : roots) {
    EXPECT_NE(root.trace_id, 0u);
    EXPECT_NE(root.span_id, 0u);
    EXPECT_EQ(root.parent_span_id, 0u);
    EXPECT_GE(root.end_ns, root.start_ns);
    EXPECT_EQ(root.code, static_cast<std::uint32_t>(StatusCode::kOk));
  }

  // Pick one root and verify the full client -> server chain under its
  // trace id: attempt (child of root), server queue + handle (children of
  // the attempt, recorded on the owner's recorder).
  const obs::Record& root = roots.back();
  const auto attempts = of_kind(records, obs::RecordKind::kClientAttempt);
  const auto attempt_it =
      std::find_if(attempts.begin(), attempts.end(),
                   [&root](const obs::Record& a) {
                     return a.trace_id == root.trace_id &&
                            a.parent_span_id == root.span_id;
                   });
  ASSERT_NE(attempt_it, attempts.end());
  EXPECT_EQ(attempt_it->detail_view(), "primary");

  const auto handles = of_kind(records, obs::RecordKind::kServerHandle);
  const auto handle_it =
      std::find_if(handles.begin(), handles.end(),
                   [&](const obs::Record& h) {
                     return h.trace_id == root.trace_id &&
                            h.parent_span_id == attempt_it->span_id;
                   });
  ASSERT_NE(handle_it, handles.end());
  EXPECT_EQ(handle_it->node, attempt_it->node);  // ran on the owner

  const auto queues = of_kind(records, obs::RecordKind::kServerQueue);
  EXPECT_TRUE(std::any_of(queues.begin(), queues.end(),
                          [&](const obs::Record& q) {
                            return q.trace_id == root.trace_id &&
                                   q.parent_span_id == attempt_it->span_id;
                          }));
}

TEST(TracePropagation, NodeLocalReadsRecordServerSpans) {
  // A read whose owner is the reader's own node runs the handler on the
  // reader's thread, and still records the server's queue and handle spans
  // under its attempt, as a read served by the owner's worker does.
  Cluster cluster(traced_config());
  const auto paths = cluster.stage_dataset(16, 64);
  cluster.warm_caches(paths);
  const std::uint64_t before = cluster.transport().stats(0).local_served;
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  EXPECT_GT(cluster.transport().stats(0).local_served, before);

  const std::vector<obs::Record> records = cluster.dump_traces();
  const auto queues = of_kind(records, obs::RecordKind::kServerQueue);
  const auto handles = of_kind(records, obs::RecordKind::kServerHandle);
  const auto under = [](const std::vector<obs::Record>& spans,
                        const obs::Record& attempt) {
    return std::any_of(spans.begin(), spans.end(), [&](const obs::Record& s) {
      return s.trace_id == attempt.trace_id &&
             s.parent_span_id == attempt.span_id && s.node == attempt.node;
    });
  };
  std::size_t local_attempts = 0;
  for (const obs::Record& attempt :
       of_kind(records, obs::RecordKind::kClientAttempt)) {
    if (attempt.node != 0) continue;
    ++local_attempts;
    EXPECT_TRUE(under(queues, attempt)) << "attempt " << attempt.span_id;
    EXPECT_TRUE(under(handles, attempt)) << "attempt " << attempt.span_id;
  }
  EXPECT_GT(local_attempts, 0u);
}

TEST(TracePropagation, SampleEveryZeroAttachesButRecordsNoReads) {
  auto config = traced_config();
  config.obs.sample_every = 0;  // recorders wired, nothing sampled
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(6, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(1).read_file(path).is_ok());
  }
  ASSERT_NE(cluster.flight_recorder(0), nullptr);
  const std::vector<obs::Record> records = cluster.dump_traces();
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kClientRead).empty());
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kClientAttempt).empty());
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kServerHandle).empty());
}

TEST(TracePropagation, TracingOffByDefault) {
  auto config = traced_config();
  config.obs = obs::ObsConfig{};  // knobs unset = legacy
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(4, 64);
  cluster.warm_caches(paths);
  EXPECT_EQ(cluster.flight_recorder(0), nullptr);
  EXPECT_TRUE(cluster.dump_traces().empty());
}

TEST(TracePropagation, HedgeLegsShareTheRootsTrace) {
  // The mailbox race: hedge legs resolve on the transport's async pool,
  // possibly after read_file returned.  Their spans must still land in
  // the right trace (ids captured by value into the completion).
  auto config = traced_config();
  config.client.hedge_reads = true;
  config.client.hedge_min_delay = 200us;
  config.client.probe_backoff = 5ms;
  config.client.probe_backoff_cap = 40ms;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(40, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  cluster.transport().set_extra_latency(2, 30ms);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  ASSERT_GT(cluster.client(0).stats_snapshot().hedge_wins, 0u);

  const std::vector<obs::Record> records = cluster.dump_traces();
  std::unordered_set<std::uint64_t> root_traces;
  std::unordered_set<std::uint64_t> root_spans;
  for (const obs::Record& r : of_kind(records, obs::RecordKind::kClientRead)) {
    root_traces.insert(r.trace_id);
    root_spans.insert(r.span_id);
  }
  const auto legs = of_kind(records, obs::RecordKind::kHedgeLeg);
  ASSERT_FALSE(legs.empty());
  for (const obs::Record& leg : legs) {
    EXPECT_TRUE(root_traces.count(leg.trace_id) == 1)
        << "hedge leg outside any read's trace";
    EXPECT_TRUE(root_spans.count(leg.parent_span_id) == 1)
        << "hedge leg not parented to its read's root span";
  }
  // The primary leg of a hedged read is recorded too.
  EXPECT_FALSE(of_kind(records, obs::RecordKind::kClientAttempt).empty());
}

TEST(TracePropagation, BusyRetriesStayInTrace) {
  // An always-busy server: attempt 0 bounces, the server-directed retry
  // bounces again, then the terminal PFS fallback serves.  All three
  // phases must be children of one root.
  rpc::Transport transport;
  PfsStore pfs;
  pfs.put("/f", "authoritative");
  ASSERT_TRUE(transport
                  .register_endpoint(0,
                                     [](const rpc::RpcRequest&) {
                                       rpc::RpcResponse response;
                                       response.code = StatusCode::kBusy;
                                       response.retry_after_ms = 1;
                                       return response;
                                     })
                  .is_ok());
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.busy_backoff_cap = 2ms;
  HvacClient client(0, transport, pfs, {0}, config);
  obs::FlightRecorder recorder(256);
  client.attach_observability(&recorder, /*sample_every=*/1);

  auto result = client.read_file("/f");
  ASSERT_TRUE(result.is_ok());

  const std::vector<obs::Record> records = recorder.dump();
  const auto roots = of_kind(records, obs::RecordKind::kClientRead);
  ASSERT_EQ(roots.size(), 1u);
  const obs::Record& root = roots[0];

  const auto primaries = of_kind(records, obs::RecordKind::kClientAttempt);
  ASSERT_EQ(primaries.size(), 1u);
  EXPECT_EQ(primaries[0].trace_id, root.trace_id);
  EXPECT_EQ(primaries[0].parent_span_id, root.span_id);
  EXPECT_EQ(primaries[0].code, static_cast<std::uint32_t>(StatusCode::kBusy));
  EXPECT_EQ(primaries[0].detail_view(), "primary");

  const auto retries = of_kind(records, obs::RecordKind::kBusyRetry);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].trace_id, root.trace_id);
  EXPECT_EQ(retries[0].parent_span_id, root.span_id);
  EXPECT_EQ(retries[0].detail_view(), "busy_retry");

  const auto pfs_spans = of_kind(records, obs::RecordKind::kPfsDirect);
  ASSERT_EQ(pfs_spans.size(), 1u);
  EXPECT_EQ(pfs_spans[0].trace_id, root.trace_id);

  transport.unregister_endpoint(0);
}

TEST(PfsSingleflightTrace, LeaderAndJoinersAttributed) {
  // The storm shape with tracing: 8 sampled requests for one lost file
  // coalesce; exactly one kPfsFetchLeader span appears, every other
  // caller gets a kPfsFetchJoiner span in its own trace.
  PfsStore pfs(/*read_latency=*/20000us);
  pfs.put("/lost", "payload");
  HvacServerConfig config;
  config.async_data_mover = false;
  config.pfs_singleflight = true;
  HvacServer server(0, pfs, config);
  obs::FlightRecorder recorder(1024);
  server.attach_observability(&recorder);

  constexpr int kThreads = 8;
  std::vector<std::uint64_t> trace_ids(kThreads);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok, &trace_ids, t] {
      rpc::RpcRequest request;
      request.op = rpc::Op::kReadFile;
      request.path = "/lost";
      request.trace = obs::TraceContext::root();
      trace_ids[static_cast<std::size_t>(t)] = request.trace.trace_id;
      const auto response = server.handle(request);
      if (response.code == StatusCode::kOk) ok.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(ok.load(), kThreads);

  const std::vector<obs::Record> records = recorder.dump();
  const auto leaders = of_kind(records, obs::RecordKind::kPfsFetchLeader);
  ASSERT_EQ(leaders.size(), 1u);
  const std::unordered_set<std::uint64_t> requests(trace_ids.begin(),
                                                   trace_ids.end());
  EXPECT_TRUE(requests.count(leaders[0].trace_id) == 1);
  EXPECT_EQ(leaders[0].detail_view(), "/lost");

  const auto joiners = of_kind(records, obs::RecordKind::kPfsFetchJoiner);
  EXPECT_EQ(joiners.size(),
            server.pfs_guard()->stats_snapshot().coalesced);
  std::unordered_set<std::uint64_t> joiner_traces;
  for (const obs::Record& j : joiners) {
    EXPECT_TRUE(requests.count(j.trace_id) == 1);
    EXPECT_NE(j.trace_id, leaders[0].trace_id);
    joiner_traces.insert(j.trace_id);
  }
  EXPECT_EQ(joiner_traces.size(), joiners.size());  // one per caller

  // Every request got its server-side execute span.
  EXPECT_EQ(of_kind(records, obs::RecordKind::kServerHandle).size(),
            static_cast<std::size_t>(kThreads));
}

TEST(MetricsMigration, ExportMatchesLegacySnapshots) {
  // Every stats-bearing component on: SWIM agents (ticked by hand, so no
  // protocol traffic races the snapshots), the PFS guard and a cold tier.
  ClusterConfig config = traced_config();
  config.membership.enabled = true;
  config.membership.background = false;
  config.server.pfs_singleflight = true;
  config.server.store.nvme_bytes = 1 << 20;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(12, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }

  const HvacClient::Stats c = cluster.client(0).stats_snapshot();
  const HvacServer::Stats s = cluster.server(1).stats_snapshot();
  const rpc::Transport::EndpointStats t = cluster.transport().stats(2);
  const std::string text = cluster.metrics_registry().export_prometheus_text();

  const auto expect_line = [&text](const std::string& line) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  };
  expect_line("ftc_client_reads_total{node=\"0\"} " + std::to_string(c.reads));
  expect_line("ftc_client_served_total{node=\"0\",outcome=\"remote_cache\"} " +
              std::to_string(c.served_remote_cache));
  expect_line("ftc_server_reads_total{node=\"1\"} " + std::to_string(s.reads));
  expect_line("ftc_server_cache_hits_total{node=\"1\"} " +
              std::to_string(s.cache_hits));
  expect_line("ftc_transport_received_total{node=\"2\"} " +
              std::to_string(t.received));
  expect_line("ftc_client_read_latency_us_count{node=\"0\"} " +
              std::to_string(cluster.client(0).latency().count()));
  // JSON export parses the same series (spot check + well-formedness).
  const std::string json = cluster.metrics_registry().export_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"ftc_client_reads_total\""),
            std::string::npos);

  // Completeness: each component exports one node-0 series per Stats
  // field, so a field added outside the component's list fails here.
  std::map<std::string, std::size_t> series;  // component -> node-0 series
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("node=\"0\"") == std::string::npos) continue;
    const std::string name = line.substr(0, line.find('{'));
    // The read-latency histogram comes from the LatencyRecorder, not Stats.
    if (name.rfind("ftc_client_read_latency_us", 0) == 0) continue;
    for (const auto& [prefix, component] :
         {std::pair{"ftc_client_", "client"}, {"ftc_ring_", "client"},
          {"ftc_prefetch_", "client"}, {"ftc_p2p_", "client"},
          {"ftc_server_", "server"}, {"ftc_store_", "store"},
          {"ftc_pfs_guard_", "guard"}, {"ftc_transport_", "transport"},
          {"ftc_swim_", "swim"}}) {
      if (name.rfind(prefix, 0) == 0) ++series[component];
    }
  }
  constexpr std::size_t kField = sizeof(std::uint64_t);
  EXPECT_EQ(series["client"], sizeof(HvacClient::Stats) / kField);
  // The server's pfs_coalesced and pfs_breaker_open mirror the guard's
  // counters and are exported by the guard; its capacity gauge has no
  // Stats field.
  EXPECT_EQ(series["server"], sizeof(HvacServer::Stats) / kField - 2 + 1);
  // The hit-ratio gauge is derived from three fields.
  EXPECT_EQ(series["store"], sizeof(ftc::store::StoreStats) / kField + 1);
  // The breaker-open gauge reads the breaker state, not a counter.
  EXPECT_EQ(series["guard"], sizeof(PfsFetchGuard::Stats) / kField + 1);
  EXPECT_EQ(series["transport"],
            sizeof(rpc::Transport::EndpointStats) / kField);
  EXPECT_EQ(series["swim"],
            sizeof(membership::MembershipAgent::Stats) / kField);
}

TEST(MetricsMigration, TracingKnobsDoNotChangeLegacyStats) {
  // Same deterministic workload with tracing off and fully on: the legacy
  // stats_snapshot() views must be byte-identical (observability must
  // observe, never perturb).
  const auto run = [](bool tracing) {
    auto config = traced_config();
    config.obs.tracing = tracing;
    Cluster cluster(config);
    const auto paths = cluster.stage_dataset(10, 64);
    cluster.warm_caches(paths);
    for (const auto& path : paths) {
      EXPECT_TRUE(cluster.client(0).read_file(path).is_ok());
    }
    return cluster.client(0).stats_snapshot();
  };
  const HvacClient::Stats off = run(false);
  const HvacClient::Stats on = run(true);
  EXPECT_EQ(std::memcmp(&off, &on, sizeof(HvacClient::Stats)), 0);
}

}  // namespace
}  // namespace ftc::cluster
