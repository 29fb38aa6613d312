#include "destim/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "cluster/fault_detector.hpp"
#include "common/logging.hpp"
#include "dl/elastic_coordinator.hpp"
#include "dl/epoch_sampler.hpp"
#include "hash/murmur3.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "sim/shared_bandwidth.hpp"
#include "sim/simulator.hpp"

namespace ftc::destim {
namespace {

using cluster::FtMode;
using NodeId = std::uint32_t;
constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// One end-to-end experiment run.  Owns the event loop and all models;
/// everything is driven by callbacks scheduled on the simulator.
class Engine {
 public:
  explicit Engine(const ExperimentConfig& config)
      : config_(config),
        samples_per_file_(config.samples_per_file == 0
                              ? 1
                              : config.samples_per_file),
        pfs_(sim_, config.pfs),
        ring_(make_ring_config(config)),
        sampler_(config.file_count * samples_per_file_, config.shuffle_seed),
        elastic_(config.node_count) {
    nodes_.reserve(config_.node_count);
    std::vector<NodeId> members;
    for (NodeId n = 0; n < config_.node_count; ++n) {
      nodes_.push_back(std::make_unique<Node>(sim_, config_, n));
      members.push_back(n);
    }
    ring_.add_nodes(members, config_.node_weights);
    // Precompute per-file ring hashes and static-modulo owners once; the
    // hot path then never touches strings.
    // File ids [0, file_count) are training data; validation files follow.
    total_files_ = config_.file_count + config_.validation_file_count;
    key_hash_.resize(total_files_);
    modulo_hash_.resize(total_files_);
    for (std::uint32_t f = 0; f < total_files_; ++f) {
      const std::string path = "/lustre/orion/cosmoUniverse/file_" +
                               std::to_string(f) + ".tfrecord";
      key_hash_[f] = ring_.key_position(path);
      modulo_hash_[f] = hash::hash_key(hash::Algorithm::kFnv1a64, path);
    }
    modulo_members_.reserve(config_.node_count);
    for (NodeId n = 0; n < config_.node_count; ++n) {
      modulo_members_.push_back(n);
    }
    cached_.assign(config_.node_count,
                   std::vector<bool>(total_files_, false));
    cache_bytes_.assign(config_.node_count, 0);
    failures_ = config_.failures;
    std::sort(failures_.begin(), failures_.end(),
              [](const cluster::PlannedFailure& a,
                 const cluster::PlannedFailure& b) {
                if (a.epoch != b.epoch) return a.epoch < b.epoch;
                return a.epoch_fraction < b.epoch_fraction;
              });
  }

  ExperimentResult run() {
    start_epoch();
    const std::uint64_t cap =
        config_.max_events ? config_.max_events : 2'000'000'000ULL;
    sim_.run(cap);
    if (!finished_ && !aborted_) {
      result_.completed = false;
      result_.abort_reason = "event cap reached (model did not terminate)";
      result_.total_time = sim_.now();
    }
    result_.simulated_events = sim_.executed_events();
    return result_;
  }

 private:
  struct Node {
    Node(sim::Simulator& sim, const ExperimentConfig& config, NodeId id)
        : nvme(sim, config.nvme),
          nic_egress(sim, config.nic_bytes_per_second),
          detector(config.timeout_limit) {
      (void)id;
    }
    bool alive = true;
    storage::NvmeModel nvme;
    sim::SharedBandwidthResource nic_egress;
    /// Client-side failure view: autonomous per node, as in the paper.
    cluster::FaultDetector detector;
    std::vector<std::uint32_t> shard;  ///< samples this node reads this attempt
    std::uint32_t outstanding = 0;     ///< reads in flight this step
    // Prefetch pipeline state (config.prefetch).
    std::int64_t prefetched_step = -1;
    std::uint32_t prefetch_outstanding = 0;
    bool waiting_for_prefetch = false;
  };

  static ring::RingConfig make_ring_config(const ExperimentConfig& config) {
    ring::RingConfig rc;
    rc.vnodes_per_node = config.vnodes_per_node;
    rc.seed = config.ring_seed;
    return rc;
  }

  // ---- Placement -----------------------------------------------------------

  NodeId owner_of(NodeId client, std::uint32_t file) const {
    if (config_.mode == FtMode::kHashRingRecache) {
      const auto& detector = nodes_[client]->detector;
      return ring_.owner_of_hash_excluding(
          key_hash_[file],
          [&detector](ring::NodeId n) { return detector.is_failed(n); });
    }
    if (modulo_members_.empty()) return kNoNode;
    // Static placement over the job's allocation; only a checkpoint
    // requeue rebuilds this table (a fresh job incarnation).
    return modulo_members_[modulo_hash_[file] % modulo_members_.size()];
  }

  // ---- Read path ------------------------------------------------------------

  /// Entry point for one intercepted read: pays the FT bookkeeping cost
  /// (Fig 5a's NoFT advantage) once, then dispatches.
  void read_file(NodeId client, std::uint32_t file,
                 std::function<void()> done) {
    if (aborted_) return;
    if (config_.mode != FtMode::kNone && config_.ft_overhead_per_read > 0) {
      sim_.schedule(config_.ft_overhead_per_read,
                    [this, client, file, done = std::move(done)]() mutable {
                      dispatch_read(client, file, std::move(done));
                    });
    } else {
      dispatch_read(client, file, std::move(done));
    }
  }

  /// Resolves the owner and routes the request (also the retry target
  /// after a timeout — retries do not re-pay the entry overhead).
  void dispatch_read(NodeId client, std::uint32_t file,
                     std::function<void()> done) {
    if (aborted_) return;
    const NodeId owner = owner_of(client, file);
    if (owner == kNoNode || owner == ring::kInvalidNode) {
      pfs_direct(std::move(done));
      return;
    }
    if (config_.mode != FtMode::kHashRingRecache &&
        nodes_[client]->detector.is_failed(owner)) {
      // Static placement still maps to the flagged node: FT w/ PFS serves
      // from the PFS without waiting; NoFT never gets here (it aborted).
      if (config_.mode == FtMode::kPfsRedirect) {
        pfs_direct(std::move(done));
      } else {
        abort_run("NoFT read to failed node " + std::to_string(owner));
      }
      return;
    }
    if (owner == client) {
      local_read(client, file, std::move(done));
    } else if (!nodes_[owner]->alive) {
      unresponsive_owner(client, owner, file, std::move(done),
                         /*owner_alive=*/false);
    } else {
      const SimTime extra = current_slowdown(owner);
      if (extra >= config_.rpc_timeout) {
        // The server will answer, but not before the client's deadline:
        // from the client's viewpoint this is indistinguishable from a
        // dead node (the false-positive hazard of Sec IV-A).
        unresponsive_owner(client, owner, file, std::move(done),
                           /*owner_alive=*/true);
      } else {
        remote_read(client, owner, file, extra, std::move(done));
      }
    }
  }

  /// Extra service delay currently injected at `node` (0 when healthy).
  [[nodiscard]] SimTime current_slowdown(NodeId node) const {
    const SimTime now = sim_.now();
    for (const auto& slowdown : config_.slowdowns) {
      if (slowdown.node == node && now >= slowdown.start &&
          now < slowdown.start + slowdown.duration) {
        return slowdown.extra_latency;
      }
    }
    return 0;
  }

  /// Registers interest in (owner, file).  Returns true when a fetch for
  /// that pair is already in flight — the server coalesces concurrent
  /// misses for one file into a single PFS access.
  bool join_inflight(NodeId owner, std::uint32_t file,
                     std::function<void()> on_fetched) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(owner) << 32) | file;
    auto [it, first] = inflight_.try_emplace(key);
    it->second.push_back(std::move(on_fetched));
    return !first;
  }

  /// Completes an in-flight fetch: every coalesced waiter is served.
  void finish_inflight(NodeId owner, std::uint32_t file) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(owner) << 32) | file;
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    std::vector<std::function<void()>> waiters = std::move(it->second);
    inflight_.erase(it);
    for (auto& waiter : waiters) {
      if (waiter) waiter();
    }
  }

  void local_read(NodeId node, std::uint32_t file,
                  std::function<void()> done) {
    if (cached_[node][file]) {
      ++epoch_counters_.local_reads;
      nodes_[node]->nvme.read(config_.file_bytes, std::move(done));
      return;
    }
    // Cold local miss: fetch from PFS (coalesced with any concurrent miss
    // for the same file), serve, recache in the background.
    if (join_inflight(node, file, std::move(done))) return;
    ++epoch_counters_.pfs_reads;
    const std::uint64_t generation = attempt_generation_;
    pfs_.read_file(config_.file_bytes, [this, node, file, generation] {
      if (aborted_ || generation != attempt_generation_) return;
      mark_cached(node, file);
      replicate(node, file);
      finish_inflight(node, file);
    });
  }

  void remote_read(NodeId client, NodeId owner, std::uint32_t file,
                   SimTime extra_latency, std::function<void()> done) {
    // A sub-deadline slowdown delays service but completes; the response
    // resets the client's timeout counter (false-positive suppression).
    done = [this, client, owner, done = std::move(done)]() mutable {
      nodes_[client]->detector.record_success(owner);
      if (done) done();
    };
    sim_.schedule(config_.rpc_latency + extra_latency,
                  [this, owner, file, done = std::move(done)]() mutable {
      if (aborted_) return;
      Node& server = *nodes_[owner];
      if (cached_[owner][file]) {
        ++epoch_counters_.remote_hits;
        server.nvme.read(
            config_.file_bytes,
            [this, owner, done = std::move(done)]() mutable {
              if (aborted_) return;
              nodes_[owner]->nic_egress.transfer(config_.file_bytes,
                                                 std::move(done));
            });
      } else {
        // Server-side miss: one PFS access (coalesced across concurrent
        // requesters of the same file), then serve + recache.  This is the
        // elastic-recaching restore path after a failure and the warm-up
        // path in epoch 0.
        ++epoch_counters_.remote_misses;
        const bool pending = join_inflight(
            owner, file, [this, owner, done = std::move(done)]() mutable {
              if (aborted_) return;
              nodes_[owner]->nic_egress.transfer(config_.file_bytes,
                                                 std::move(done));
            });
        if (pending) return;
        ++epoch_counters_.pfs_reads;
        const std::uint64_t generation = attempt_generation_;
        pfs_.read_file(config_.file_bytes, [this, owner, file, generation] {
          if (aborted_ || generation != attempt_generation_) return;
          mark_cached(owner, file);
          replicate(owner, file);
          finish_inflight(owner, file);
        });
      }
    });
  }

  void unresponsive_owner(NodeId client, NodeId owner, std::uint32_t file,
                          std::function<void()> done, bool owner_alive) {
    // The request sits until the deadline expires; only then does the
    // client learn anything (autonomous timeout detection, Sec IV-A).
    ++epoch_counters_.timeouts;
    if (owner_alive) ++epoch_counters_.false_timeouts;
    sim_.schedule(config_.rpc_timeout, [this, client, owner, file,
                                        owner_alive,
                                        done = std::move(done)]() mutable {
      if (aborted_) return;
      const bool flagged = nodes_[client]->detector.record_timeout(owner);
      if (flagged) {
        FTC_LOG(kDebug, "destim") << "client " << client << " flagged node "
                                  << owner << " at "
                                  << simtime::to_string(sim_.now());
        if (owner_alive && nodes_[owner]->alive) {
          // A healthy node was condemned: every client that flags it will
          // route around it, and the ring mode will gratuitously recache
          // its share.
          ++result_.falsely_flagged_nodes;
        }
      }
      switch (config_.mode) {
        case FtMode::kNone:
          if (config_.checkpoint_restart) {
            trigger_checkpoint_restart();
          } else {
            abort_run("NoFT: node " + std::to_string(owner) +
                      " unresponsive");
          }
          return;
        case FtMode::kPfsRedirect:
          // The timed-out request itself is redirected to the PFS.
          pfs_direct(std::move(done));
          return;
        case FtMode::kHashRingRecache:
          // Re-resolve: flagged -> clockwise successor; not yet flagged ->
          // same owner, paying another timeout (threshold suppression of
          // false positives).
          dispatch_read(client, file, std::move(done));
          return;
      }
    });
  }

  void pfs_direct(std::function<void()> done) {
    ++epoch_counters_.pfs_reads;
    pfs_.read_file(config_.file_bytes, std::move(done));
  }

  void mark_cached(NodeId node, std::uint32_t file) {
    if (cached_[node][file]) return;
    cached_[node][file] = true;
    cache_bytes_[node] += config_.file_bytes;
    if (cache_bytes_[node] > result_.peak_node_cache_bytes) {
      result_.peak_node_cache_bytes = cache_bytes_[node];
    }
    // Data-mover write happens off the critical path but consumes write
    // bandwidth (can delay later reads through the device).
    nodes_[node]->nvme.write(config_.file_bytes, nullptr);
  }

  /// Replication extension: after the primary caches `file`, forward
  /// backup copies along the ring chain (off the critical path — the
  /// primary's NIC egress and each backup's NVMe write are consumed, but
  /// the reading client does not wait).
  void replicate(NodeId primary, std::uint32_t file) {
    if (config_.replication_factor <= 1 ||
        config_.mode != FtMode::kHashRingRecache) {
      return;
    }
    const auto chain = ring_.owner_chain_of_hash(
        key_hash_[file], config_.replication_factor);
    for (const NodeId backup : chain) {
      if (backup == primary || !nodes_[backup]->alive) continue;
      if (cached_[backup][file]) continue;
      nodes_[primary]->nic_egress.transfer(
          config_.file_bytes, [this, backup, file] {
            if (aborted_) return;
            if (nodes_[backup]->alive) mark_cached(backup, file);
          });
    }
  }

  // ---- Training loop --------------------------------------------------------

  void start_epoch() {
    epoch_start_ = sim_.now();
    epoch_attempts_ = 0;
    epoch_failure_ = false;
    epoch_counters_ = {};
    start_attempt();
  }

  void start_attempt() {
    ++epoch_attempts_;
    ++attempt_generation_;
    in_validation_ = false;  // rollback always restarts the training phase
    members_ = elastic_.alive_nodes();
    for (const NodeId member : members_) {
      Node& node = *nodes_[member];
      node.prefetched_step = -1;
      node.prefetch_outstanding = 0;
      node.waiting_for_prefetch = false;
    }
    if (members_.empty()) {
      abort_run("no surviving nodes");
      return;
    }
    const auto total = static_cast<std::uint32_t>(members_.size());
    // One permutation per attempt, sliced N ways (not N permutations).
    const std::vector<std::uint32_t> order =
        sampler_.epoch_permutation(epoch_);
    // Partial-epoch training consumes only a prefix of the shuffled
    // stream (epoch_subset_fraction < 1).
    auto consumed = static_cast<std::uint32_t>(order.size());
    if (config_.epoch_subset_fraction < 1.0 &&
        config_.epoch_subset_fraction > 0.0) {
      consumed = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(config_.epoch_subset_fraction *
                                        static_cast<double>(order.size())));
    }
    const std::uint32_t base = consumed / total;
    const std::uint32_t remainder = consumed % total;
    std::uint32_t max_shard = 0;
    for (std::uint32_t rank = 0; rank < total; ++rank) {
      Node& node = *nodes_[members_[rank]];
      const std::uint32_t begin =
          rank * base + (rank < remainder ? rank : remainder);
      const std::uint32_t size = base + (rank < remainder ? 1 : 0);
      node.shard.assign(order.begin() + begin, order.begin() + begin + size);
      max_shard = std::max(max_shard, size);
    }
    steps_in_attempt_ =
        (max_shard + config_.files_per_step_per_node - 1) /
        config_.files_per_step_per_node;
    if (steps_in_attempt_ == 0) steps_in_attempt_ = 1;
    current_step_ = 0;
    start_step();
  }

  void start_step() {
    if (aborted_) return;
    // Failure checkpoints land on step boundaries: SLURM drains the node
    // between batches from the job's perspective.
    while (next_failure_ < failures_.size() &&
           failures_[next_failure_].epoch <= epoch_ &&
           failure_step(failures_[next_failure_]) <= current_step_) {
      const auto& failure = failures_[next_failure_];
      ++next_failure_;
      if (!elastic_.is_alive(failure.victim)) continue;
      FTC_LOG(kInfo, "destim")
          << "node " << failure.victim << " drained in epoch " << epoch_
          << " step " << current_step_ << " at "
          << simtime::to_string(sim_.now());
      nodes_[failure.victim]->alive = false;
      elastic_.on_node_failure(failure.victim);
      epoch_failure_ = true;
      restart_pending_ = true;
    }

    expected_done_ = 0;
    for (NodeId member : members_) {
      if (nodes_[member]->alive) ++expected_done_;
    }
    if (expected_done_ == 0) {
      abort_run("all members of attempt died");
      return;
    }
    nodes_done_ = 0;
    for (NodeId member : members_) {
      if (nodes_[member]->alive) issue_node_step(member);
    }
  }

  std::uint32_t failure_step(const cluster::PlannedFailure& failure) const {
    if (failure.epoch < epoch_) return 0;  // overdue: trigger immediately
    const double f = std::min(std::max(failure.epoch_fraction, 0.0), 0.999);
    return static_cast<std::uint32_t>(f * steps_in_attempt_);
  }

  /// Distinct files backing `step`'s sample slice for a node (samples of
  /// one file packed into the same step are served by a single fetch).
  [[nodiscard]] std::vector<std::uint32_t> step_files(
      const Node& node, std::uint32_t step) const {
    const std::size_t begin =
        static_cast<std::size_t>(step) * config_.files_per_step_per_node;
    const std::size_t end = std::min(
        node.shard.size(), begin + config_.files_per_step_per_node);
    std::vector<std::uint32_t> files;
    files.reserve(end > begin ? end - begin : 0);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t file = node.shard[i] / samples_per_file_;
      if (std::find(files.begin(), files.end(), file) == files.end()) {
        files.push_back(file);
      }
    }
    return files;
  }

  void issue_node_step(NodeId node_id) {
    Node& node = *nodes_[node_id];
    if (config_.prefetch.enabled &&
        node.prefetched_step == static_cast<std::int64_t>(current_step_)) {
      // Step data was fetched during the previous step's compute.
      if (node.prefetch_outstanding == 0) {
        start_compute(node_id);
      } else {
        node.waiting_for_prefetch = true;  // residual I/O not yet hidden
      }
      return;
    }
    const std::vector<std::uint32_t> files = step_files(node, current_step_);
    node.outstanding = static_cast<std::uint32_t>(files.size());
    if (files.empty()) {
      // Short shard: the node still joins the allreduce.
      start_compute(node_id);
      return;
    }
    // Generation guard: a checkpoint restart can fire mid-step, voiding
    // every in-flight read of the superseded attempt.
    const std::uint64_t generation = attempt_generation_;
    for (const std::uint32_t file : files) {
      read_file(node_id, file, [this, node_id, generation] {
        if (generation != attempt_generation_) return;
        Node& n = *nodes_[node_id];
        if (--n.outstanding == 0) start_compute(node_id);
      });
    }
  }

  /// Starts the step's GPU phase; with prefetch on, the next step's reads
  /// are issued now so they overlap the compute window.
  void start_compute(NodeId node_id) {
    if (config_.prefetch.enabled && !in_validation_) {
      issue_prefetch(node_id, current_step_ + 1);
    }
    const std::uint64_t generation = attempt_generation_;
    sim_.schedule(config_.compute_time_per_step,
                  [this, node_id, generation] {
                    if (generation != attempt_generation_) return;
                    node_step_complete(node_id);
                  });
  }

  /// Checkpoint-restart baseline: the crash requeues the job from the
  /// last epoch-boundary checkpoint with the survivors and COLD caches.
  void trigger_checkpoint_restart() {
    if (restart_scheduled_) return;  // one requeue per crash
    restart_scheduled_ = true;
    restart_pending_ = false;  // supersedes any barrier-time restart
    ++result_.restarts;
    epoch_failure_ = true;
    FTC_LOG(kInfo, "destim")
        << "job crashed; requeueing from checkpoint at "
        << simtime::to_string(sim_.now());
    for (auto& per_node : cached_) {
      per_node.assign(per_node.size(), false);
    }
    cache_bytes_.assign(cache_bytes_.size(), 0);
    inflight_.clear();
    // The requeued incarnation hashes over its own (surviving) allocation.
    modulo_members_ = elastic_.alive_nodes();
    ++attempt_generation_;  // void all in-flight work immediately
    sim_.schedule(config_.checkpoint_restart_overhead, [this] {
      if (config_.checkpoint_write_bytes > 0) {
        // Load the model state back from the PFS before resuming.
        pfs_.read_file(config_.checkpoint_write_bytes, [this] {
          restart_scheduled_ = false;
          start_attempt();
        });
      } else {
        restart_scheduled_ = false;
        start_attempt();
      }
    });
  }

  void issue_prefetch(NodeId node_id, std::uint32_t step) {
    if (step >= steps_in_attempt_) return;
    Node& node = *nodes_[node_id];
    node.prefetched_step = step;
    node.waiting_for_prefetch = false;
    const std::vector<std::uint32_t> files = step_files(node, step);
    node.prefetch_outstanding = static_cast<std::uint32_t>(files.size());
    // Prefetch reads can outlive an elastic restart; the generation tag
    // voids completions from a superseded attempt.
    const std::uint64_t generation = attempt_generation_;
    for (const std::uint32_t file : files) {
      read_file(node_id, file, [this, node_id, generation] {
        if (generation != attempt_generation_) return;
        Node& n = *nodes_[node_id];
        if (--n.prefetch_outstanding == 0 && n.waiting_for_prefetch) {
          n.waiting_for_prefetch = false;
          start_compute(node_id);
        }
      });
    }
  }

  void node_step_complete(NodeId node_id) {
    if (aborted_) return;
    (void)node_id;
    if (++nodes_done_ < expected_done_) return;
    // Barrier released: the allreduce either succeeds (advance) or fails
    // because a participant died (Horovod elastic rollback).
    if (restart_pending_) {
      if (config_.mode == FtMode::kNone && config_.checkpoint_restart) {
        // Even if no survivor touched the dead node this step, the failed
        // allreduce crashes the job; requeue from the checkpoint.
        trigger_checkpoint_restart();
        return;
      }
      restart_pending_ = false;
      ++result_.restarts;
      sim_.schedule(config_.elastic_restart_overhead,
                    [this] { start_attempt(); });
      return;
    }
    if (in_validation_) {
      ++current_val_step_;
      if (current_val_step_ < val_steps_) {
        start_val_step();
      } else {
        in_validation_ = false;
        write_checkpoint_then_finish();
      }
      return;
    }
    ++current_step_;
    if (current_step_ < steps_in_attempt_) {
      start_step();
    } else if (config_.validation_file_count > 0) {
      start_validation();
    } else {
      write_checkpoint_then_finish();
    }
  }

  /// Epoch-boundary model checkpoint (one gathered write to the PFS; all
  /// ranks wait — the blocking-checkpoint baseline FastPersist-style
  /// systems optimize).
  void write_checkpoint_then_finish() {
    if (config_.checkpoint_write_bytes == 0) {
      finish_epoch();
      return;
    }
    const std::uint64_t generation = attempt_generation_;
    pfs_.write_file(config_.checkpoint_write_bytes, [this, generation] {
      if (aborted_ || generation != attempt_generation_) return;
      finish_epoch();
    });
  }

  // ---- Validation phase -----------------------------------------------------
  //
  // After the training steps, the epoch evaluates on the validation files:
  // fixed order (no shuffle), contiguous shard per surviving rank, the
  // same step-synchronized read+compute structure.  Validation files flow
  // through the same cache, so epoch 0 also warms them.

  void start_validation() {
    in_validation_ = true;
    const auto total = static_cast<std::uint32_t>(members_.size());
    std::uint32_t max_shard = 0;
    for (std::uint32_t rank = 0; rank < total; ++rank) {
      max_shard = std::max(max_shard, val_shard_size(rank, total));
    }
    val_steps_ = (max_shard + config_.files_per_step_per_node - 1) /
                 config_.files_per_step_per_node;
    if (val_steps_ == 0) val_steps_ = 1;
    current_val_step_ = 0;
    start_val_step();
  }

  [[nodiscard]] std::uint32_t val_shard_size(std::uint32_t rank,
                                             std::uint32_t total) const {
    const std::uint32_t base = config_.validation_file_count / total;
    const std::uint32_t remainder = config_.validation_file_count % total;
    return base + (rank < remainder ? 1 : 0);
  }

  [[nodiscard]] std::uint32_t val_shard_begin(std::uint32_t rank,
                                              std::uint32_t total) const {
    const std::uint32_t base = config_.validation_file_count / total;
    const std::uint32_t remainder = config_.validation_file_count % total;
    return rank * base + (rank < remainder ? rank : remainder);
  }

  void start_val_step() {
    if (aborted_) return;
    expected_done_ = 0;
    for (const NodeId member : members_) {
      if (nodes_[member]->alive) ++expected_done_;
    }
    if (expected_done_ == 0) {
      abort_run("all members died during validation");
      return;
    }
    nodes_done_ = 0;
    const auto total = static_cast<std::uint32_t>(members_.size());
    for (std::uint32_t rank = 0; rank < total; ++rank) {
      const NodeId member = members_[rank];
      if (nodes_[member]->alive) issue_node_val_step(member, rank, total);
    }
  }

  void issue_node_val_step(NodeId node_id, std::uint32_t rank,
                           std::uint32_t total) {
    Node& node = *nodes_[node_id];
    const std::uint32_t shard_begin = val_shard_begin(rank, total);
    const std::uint32_t shard_size = val_shard_size(rank, total);
    const std::uint32_t step_begin =
        current_val_step_ * config_.files_per_step_per_node;
    const std::uint32_t step_end = std::min(
        shard_size, step_begin + config_.files_per_step_per_node);
    const std::uint32_t reads =
        step_end > step_begin ? step_end - step_begin : 0;
    node.outstanding = reads;
    if (reads == 0) {
      start_compute(node_id);
      return;
    }
    const std::uint64_t generation = attempt_generation_;
    for (std::uint32_t i = step_begin; i < step_end; ++i) {
      const std::uint32_t file = config_.file_count + shard_begin + i;
      read_file(node_id, file, [this, node_id, generation] {
        if (generation != attempt_generation_) return;
        Node& n = *nodes_[node_id];
        if (--n.outstanding == 0) start_compute(node_id);
      });
    }
  }

  void finish_epoch() {
    EpochRecord record;
    record.epoch = epoch_;
    record.duration = sim_.now() - epoch_start_;
    record.attempts = epoch_attempts_;
    record.failure_during = epoch_failure_;
    record.pfs_reads = epoch_counters_.pfs_reads;
    record.local_reads = epoch_counters_.local_reads;
    record.remote_hits = epoch_counters_.remote_hits;
    record.remote_misses = epoch_counters_.remote_misses;
    record.timeouts = epoch_counters_.timeouts;
    record.false_timeouts = epoch_counters_.false_timeouts;
    result_.epochs.push_back(record);
    result_.total_pfs_reads += record.pfs_reads;
    result_.total_timeouts += record.timeouts;
    result_.total_false_timeouts += record.false_timeouts;

    ++epoch_;
    if (epoch_ < config_.epochs) {
      start_epoch();
    } else {
      finished_ = true;
      result_.completed = true;
      result_.total_time = sim_.now();
    }
  }

  void abort_run(std::string reason) {
    if (aborted_) return;
    aborted_ = true;
    result_.completed = false;
    result_.abort_reason = std::move(reason);
    result_.total_time = sim_.now();
  }

  // ---- State ----------------------------------------------------------------

  struct Counters {
    std::uint64_t pfs_reads = 0;
    std::uint64_t local_reads = 0;
    std::uint64_t remote_hits = 0;
    std::uint64_t remote_misses = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t false_timeouts = 0;
  };

  ExperimentConfig config_;
  std::uint32_t samples_per_file_;
  sim::Simulator sim_;
  storage::PfsModel pfs_;
  ring::ConsistentHashRing ring_;
  dl::EpochSampler sampler_;
  dl::ElasticCoordinator elastic_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint64_t> key_hash_;
  std::vector<std::uint64_t> modulo_hash_;
  std::vector<NodeId> modulo_members_;
  std::vector<std::vector<bool>> cached_;
  std::vector<std::uint64_t> cache_bytes_;
  /// (owner << 32 | file) -> waiters for an in-flight PFS fetch.
  std::unordered_map<std::uint64_t, std::vector<std::function<void()>>>
      inflight_;
  std::vector<cluster::PlannedFailure> failures_;
  std::size_t next_failure_ = 0;

  std::uint32_t epoch_ = 0;
  std::uint32_t epoch_attempts_ = 0;
  bool epoch_failure_ = false;
  SimTime epoch_start_ = 0;
  std::vector<NodeId> members_;
  std::uint32_t steps_in_attempt_ = 0;
  std::uint32_t current_step_ = 0;
  std::uint32_t nodes_done_ = 0;
  std::uint32_t expected_done_ = 0;
  std::uint64_t attempt_generation_ = 0;
  bool restart_pending_ = false;
  bool restart_scheduled_ = false;  ///< a checkpoint requeue is in flight
  std::uint32_t total_files_ = 0;   ///< training + validation files
  bool in_validation_ = false;
  std::uint32_t val_steps_ = 0;
  std::uint32_t current_val_step_ = 0;
  bool aborted_ = false;
  bool finished_ = false;

  Counters epoch_counters_;
  ExperimentResult result_;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // Same convention as the threaded constructors: a contradictory knob
  // set fails loudly before any event is scheduled, not as a quietly
  // wrong simulation.
  const Status prefetch_valid = config.prefetch.validate();
  if (!prefetch_valid.is_ok()) {
    throw std::invalid_argument("ExperimentConfig: " +
                                prefetch_valid.to_string());
  }
  Engine engine(config);
  return engine.run();
}

TrialSummary run_experiment_trials(const ExperimentConfig& base,
                                   std::uint32_t trials) {
  TrialSummary summary;
  summary.trials = trials;
  summary.results.reserve(trials);
  for (std::uint32_t t = 0; t < trials; ++t) {
    ExperimentConfig config = base;
    // Independent seeds per trial; 0x9E37... keeps streams uncorrelated.
    config.shuffle_seed = base.shuffle_seed + t * 0x9E3779B9ULL;
    config.pfs.seed = base.pfs.seed + t * 0xC0FFEEULL;
    ExperimentResult result = run_experiment(config);
    if (result.completed) {
      ++summary.completed;
      summary.total_minutes.add(result.total_minutes());
      summary.total_pfs_reads.add(
          static_cast<double>(result.total_pfs_reads));
      summary.restarts.add(static_cast<double>(result.restarts));
    }
    summary.results.push_back(std::move(result));
  }
  return summary;
}

}  // namespace ftc::destim
