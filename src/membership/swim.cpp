#include "membership/swim.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ftc::membership {

namespace {

MemberState claim_state(std::uint8_t raw) {
  switch (raw) {
    case 0: return MemberState::kAlive;
    case 1: return MemberState::kSuspect;
    default: return MemberState::kFailed;
  }
}

}  // namespace

Status SwimConfig::validate() const {
  using std::chrono::milliseconds;
  if (probe_period <= milliseconds::zero()) {
    return Status::invalid_argument("probe_period must be positive");
  }
  if (probe_timeout <= milliseconds::zero()) {
    return Status::invalid_argument("probe_timeout must be positive");
  }
  if (indirect_timeout < probe_timeout) {
    return Status::invalid_argument(
        "indirect_timeout must cover the proxy's nested probe_timeout");
  }
  if (suspicion_periods == 0) {
    return Status::invalid_argument("suspicion_periods must be >= 1");
  }
  if (suspicion_quorum == 0) {
    return Status::invalid_argument("suspicion_quorum must be >= 1");
  }
  if (claim_retransmits == 0 || max_piggyback == 0) {
    return Status::invalid_argument(
        "claim_retransmits and max_piggyback must be >= 1");
  }
  if (event_log_capacity == 0) {
    return Status::invalid_argument("event_log_capacity must be >= 1");
  }
  return Status::ok();
}

struct MembershipAgent::Impl : std::enable_shared_from_this<Impl> {
  using Clock = MemberTable::Clock;

  Impl(NodeId self_node, rpc::Transport& transport_ref, SwimConfig cfg,
       const ring::RingConfig& ring_config,
       const std::vector<NodeId>& members)
      : self(self_node),
        transport(transport_ref),
        config(cfg),
        table(cfg.max_rejoins),
        ring(ring_config, members, cfg.event_log_capacity),
        rng(Rng(cfg.seed).fork(self_node)) {
    for (const NodeId node : members) table.seed(node);
  }

  const NodeId self;
  rpc::Transport& transport;
  const SwimConfig config;

  // Lock order: `mutex` may be taken first and VersionedRing's internal
  // lock second (ring never calls back up).  The mutex is NEVER held
  // across transport.call/call_async: the transport may run the
  // completion inline on this thread (shutdown path), and the callback
  // re-locks — collect work under the lock, release, then send.
  mutable std::mutex mutex;
  MemberTable table;
  VersionedRing ring;
  std::uint64_t my_incarnation = 0;
  Rng rng;

  struct QueuedClaim {
    rpc::MembershipClaim claim;
    std::uint32_t budget = 0;
  };
  std::deque<QueuedClaim> claims;

  std::vector<NodeId> probe_order;
  std::size_t probe_index = 0;

  /// One outstanding indirect-probe round per target.  `awaiting` counts
  /// proxies that can still report: each proxy gives up its slot exactly
  /// once — either its accept fails, or its kSwimVerdict push arrives.
  /// A positive verdict closes the round immediately; when every slot
  /// drains negative (or the deadline passes with verdicts lost) the
  /// target becomes a suspect.  `incarnation` pins the subject's
  /// incarnation at round start — a refutation mid-round voids the
  /// round's negative evidence; `reported` makes verdict handling
  /// idempotent under duplicated delivery (each proxy's slot is spent at
  /// most once however many times its push arrives).
  struct IndirectRound {
    int awaiting = 0;
    Clock::time_point deadline;
    std::uint64_t incarnation = 0;
    std::vector<NodeId> reported;
  };
  std::unordered_map<NodeId, IndirectRound> indirect_rounds;

  /// Quorum-confirmed suspicion: who has accused `subject` at which
  /// incarnation.  Evidence arrives on traffic that flows anyway —
  /// non-alive gossip claims name their sender as an accuser, negative
  /// kSwimVerdict pushes name the proxy, and local suspicions name us.
  /// A refutation (higher incarnation) voids all accumulated accusers.
  struct SuspicionEvidence {
    std::uint64_t incarnation = 0;
    std::vector<NodeId> accusers;
  };
  std::unordered_map<NodeId, SuspicionEvidence> suspicion_evidence;
  /// Subjects *we* accused, for the false-suspicion metric: a refutation
  /// of a node in this set means our evidence was wrong (typically a
  /// partition, not a death).
  std::unordered_set<NodeId> my_accusations;

  Stats stats;

  /// Flight recorder (not owned; guarded by `mutex` like the rest of the
  /// mutable state).  Membership transitions are rare and load-bearing
  /// for postmortems, so they are recorded whenever a recorder is
  /// attached — no sampling gate.
  obs::FlightRecorder* recorder = nullptr;

  void record_ring_event_locked(const RingEvent& event) {
    if (recorder == nullptr) return;
    recorder->record_event(obs::RecordKind::kRingUpdate, obs::TraceContext{},
                           self, static_cast<std::uint32_t>(event.type),
                           event.epoch, ring_event_type_name(event.type));
  }

  void record_suspicion_locked(NodeId node, std::uint64_t incarnation) {
    if (recorder == nullptr) return;
    // Record.node carries the *suspect*; value carries its incarnation.
    recorder->record_event(obs::RecordKind::kSuspicion, obs::TraceContext{},
                           node, 0, incarnation, "swim_suspect");
  }

  // ---- claim queue ------------------------------------------------------

  rpc::MembershipClaim make_claim_locked(NodeId node) const {
    rpc::MembershipClaim claim;
    claim.subject = node;
    claim.state = static_cast<std::uint8_t>(table.state(node));
    claim.incarnation =
        node == self ? my_incarnation : table.incarnation(node);
    return claim;
  }

  void enqueue_claim_locked(const rpc::MembershipClaim& claim) {
    // Newest claim about a subject supersedes any queued one — SWIM
    // gossips current beliefs, not a history.
    claims.erase(std::remove_if(claims.begin(), claims.end(),
                                [&](const QueuedClaim& q) {
                                  return q.claim.subject == claim.subject;
                                }),
                 claims.end());
    claims.push_back(QueuedClaim{claim, config.claim_retransmits});
  }

  std::vector<rpc::MembershipClaim> take_piggyback_locked() {
    std::vector<rpc::MembershipClaim> out;
    const std::size_t take =
        std::min<std::size_t>(config.max_piggyback, claims.size());
    for (std::size_t i = 0; i < take; ++i) {
      QueuedClaim entry = claims.front();
      claims.pop_front();
      out.push_back(entry.claim);
      if (--entry.budget > 0) claims.push_back(entry);
    }
    stats.gossip_claims_sent += out.size();
    return out;
  }

  std::vector<rpc::MembershipClaim> full_dump_locked() const {
    std::vector<rpc::MembershipClaim> dump;
    for (const NodeId node : table.members()) {
      dump.push_back(make_claim_locked(node));
    }
    return dump;
  }

  // ---- suspicion quorum --------------------------------------------------

  void note_accuser_locked(NodeId subject, std::uint64_t incarnation,
                           NodeId accuser) {
    if (subject == self || subject == ftc::kInvalidNode ||
        accuser == ftc::kInvalidNode || accuser == subject) {
      return;
    }
    SuspicionEvidence& evidence = suspicion_evidence[subject];
    if (incarnation > evidence.incarnation) {
      evidence.incarnation = incarnation;
      evidence.accusers.clear();
    } else if (incarnation < evidence.incarnation) {
      return;  // stale testimony about a refuted incarnation
    }
    if (std::find(evidence.accusers.begin(), evidence.accusers.end(),
                  accuser) == evidence.accusers.end()) {
      evidence.accusers.push_back(accuser);
    }
    if (accuser == self) my_accusations.insert(subject);
  }

  /// Accusers needed before this agent originates a confirm.  Capped by
  /// how many accusers can even exist (serving peers minus the subject),
  /// so small clusters — and test harnesses — are never deadlocked by a
  /// quorum larger than the membership.
  [[nodiscard]] std::size_t quorum_needed_locked() const {
    const std::size_t peers = table.serving_members().size();
    const std::size_t cap = peers > 1 ? peers - 1 : 1;
    return std::min<std::size_t>(
        std::max<std::uint32_t>(1, config.suspicion_quorum), cap);
  }

  [[nodiscard]] bool quorum_met_locked(NodeId subject) const {
    if (config.suspicion_quorum <= 1) return true;  // classic SWIM
    const auto it = suspicion_evidence.find(subject);
    if (it == suspicion_evidence.end()) return false;
    if (it->second.incarnation < table.incarnation(subject)) return false;
    return it->second.accusers.size() >= quorum_needed_locked();
  }

  void clear_evidence_locked(NodeId subject) {
    suspicion_evidence.erase(subject);
    my_accusations.erase(subject);
  }

  // ---- claim / delta application ----------------------------------------

  /// Folds one claim into the table, maps the outcome onto ring events,
  /// and re-gossips anything newsworthy.  `min_epoch` carries a peer's
  /// epoch label when the claim replays an event-log delta.
  void apply_claim_locked(MemberState state, NodeId node,
                          std::uint64_t incarnation,
                          std::vector<RingEvent>& events,
                          std::uint64_t min_epoch = 0) {
    // Refutation: a non-alive rumor about *us* at our incarnation (or
    // ahead).  Only the subject mints its own incarnations — bump past
    // the rumor and gossip the proof of life.  A node whose endpoint is
    // killed is genuinely dead and must not argue.
    if (node == self && state != MemberState::kAlive &&
        !transport.is_killed(self)) {
      if (incarnation >= my_incarnation) {
        my_incarnation = incarnation + 1;
        table.apply(MemberState::kAlive, self, my_incarnation);
        enqueue_claim_locked(make_claim_locked(self));
        ++stats.refutations;
        return;
      }
      // A STALE rumor of our death is still circulating.  The original
      // refutation's retransmit budget can be long spent — a partition
      // lets the rumor outlive it on the far side, and if that side's own
      // gossip about us has also drained, nobody is left to correct them.
      // Re-announce the existing proof of life with a fresh budget; the
      // queue supersedes per subject, so sightings cannot pile up.
      enqueue_claim_locked(make_claim_locked(self));
      return;
    }

    const Applied applied = table.apply(state, node, incarnation);
    if (applied == Applied::kNone) return;
    ++stats.claims_applied;

    switch (applied) {
      case Applied::kJoined: {
        clear_evidence_locked(node);
        if (auto event = ring.apply(RingEventType::kJoin, node, incarnation,
                                    min_epoch)) {
          ++stats.joins;
          record_ring_event_locked(*event);
          events.push_back(*event);
        }
        enqueue_claim_locked(make_claim_locked(node));
        break;
      }
      case Applied::kSuspected: {
        ++stats.suspicions;
        record_suspicion_locked(node, incarnation);
        table.set_suspect_deadline(
            node, Clock::now() + config.suspicion_periods *
                                     config.probe_period);
        enqueue_claim_locked(make_claim_locked(node));
        break;
      }
      case Applied::kConfirmed: {
        ++stats.confirms;
        clear_evidence_locked(node);
        const RingEventType type =
            config.allow_rejoin && !table.is_terminal(node)
                ? RingEventType::kProbation
                : RingEventType::kConfirmFailed;
        if (auto event = ring.apply(type, node, table.incarnation(node),
                                    min_epoch)) {
          record_ring_event_locked(*event);
          events.push_back(*event);
        }
        enqueue_claim_locked(make_claim_locked(node));
        break;
      }
      case Applied::kReinstated: {
        ++stats.reinstatements;
        clear_evidence_locked(node);
        if (auto event = ring.apply(RingEventType::kReinstate, node,
                                    incarnation, min_epoch)) {
          record_ring_event_locked(*event);
          events.push_back(*event);
        }
        enqueue_claim_locked(make_claim_locked(node));
        break;
      }
      case Applied::kRefuted:
        // The subject minted a higher incarnation: every accusation below
        // it is void.  If we were among the accusers our verdict was
        // wrong — typically a severed link, not a death.
        if (my_accusations.erase(node) > 0) ++stats.false_suspicions;
        suspicion_evidence.erase(node);
        enqueue_claim_locked(make_claim_locked(node));
        break;
      case Applied::kRefreshed:
        enqueue_claim_locked(make_claim_locked(node));
        break;
      case Applied::kNone:
        break;
    }
  }

  /// `from` names the message's sender so non-alive claims double as
  /// suspicion testimony (quorum evidence rides the gossip that flows
  /// anyway).  kInvalidNode — e.g. ingesting a response, which carries no
  /// sender id — folds state without counting an accuser.
  void fold_gossip_locked(const std::vector<rpc::MembershipClaim>& gossip,
                          std::vector<RingEvent>& events,
                          NodeId from = ftc::kInvalidNode) {
    for (const rpc::MembershipClaim& claim : gossip) {
      if (claim.subject == ftc::kInvalidNode) continue;
      const MemberState state = claim_state(claim.state);
      if (from != ftc::kInvalidNode && state != MemberState::kAlive &&
          claim.incarnation >= table.incarnation(claim.subject)) {
        note_accuser_locked(claim.subject, claim.incarnation, from);
      }
      apply_claim_locked(state, claim.subject, claim.incarnation, events);
    }
  }

  std::vector<RingEvent> ingest_response(const rpc::RpcResponse& response) {
    std::vector<RingEvent> events;
    std::lock_guard<std::mutex> lock(mutex);
    fold_gossip_locked(response.gossip, events);
    if (response.view_hint == rpc::ViewHint::kStaleView) {
      ++stats.fast_forwards;
      for (const rpc::RingDelta& delta : response.view_delta) {
        const auto type = static_cast<RingEventType>(delta.kind);
        apply_claim_locked(ring_event_adds(type) ? MemberState::kAlive
                                                 : MemberState::kFailed,
                           delta.node, delta.incarnation, events,
                           delta.epoch);
      }
      // The responder shipped everything between our epoch and its own,
      // so its label is now ours too — even when every transition was
      // already known locally (gossip raced the delta) and the replay
      // above was a no-op.
      if (response.ring_epoch != rpc::kEpochUnaware) {
        ring.adopt_epoch(response.ring_epoch);
      }
    }
    return events;
  }

  // ---- probing ----------------------------------------------------------

  NodeId next_probe_target_locked() {
    std::vector<NodeId> serving = table.serving_members();
    serving.erase(std::remove(serving.begin(), serving.end(), self),
                  serving.end());
    if (serving.empty()) return ftc::kInvalidNode;
    // Randomized round robin (SWIM Sec 4.3): shuffle once, walk the
    // order, reshuffle when exhausted — bounds worst-case first-detection
    // time at one full round, unlike pure random choice.
    for (int pass = 0; pass < 2; ++pass) {
      while (probe_index < probe_order.size()) {
        const NodeId candidate = probe_order[probe_index++];
        if (candidate != self &&
            table.state(candidate) != MemberState::kFailed) {
          return candidate;
        }
      }
      probe_order = serving;
      rng.shuffle(probe_order);
      probe_index = 0;
    }
    return serving[rng.below(serving.size())];
  }

  void probe_tick() {
    NodeId target = ftc::kInvalidNode;
    rpc::RpcRequest request;
    {
      std::lock_guard<std::mutex> lock(mutex);
      // A crashed node must not keep probing: kill() only blocks the
      // inbound path, and a dead node that still sends would refute its
      // own death forever through piggybacked gossip.
      if (transport.is_killed(self)) return;

      std::vector<RingEvent> events;  // local bookkeeping only
      const Clock::time_point now = Clock::now();

      // Indirect rounds whose verdict window closed without vindication
      // (verdict pushes lost, proxies wedged): nobody vouched for the
      // target, so its suspicion starts now.
      std::vector<NodeId> overdue;
      for (const auto& [node, round] : indirect_rounds) {
        if (round.deadline <= now) overdue.push_back(node);
      }
      for (const NodeId node : overdue) {
        indirect_rounds.erase(node);
        note_accuser_locked(node, table.incarnation(node), self);
        apply_claim_locked(MemberState::kSuspect, node,
                           table.incarnation(node), events);
      }

      for (const NodeId expired : table.expired_suspects(now)) {
        // Suspicion ran its course unrefuted.  Quorum gate: originating a
        // confirm needs k distinct accusers on record at the suspect's
        // current incarnation — a minority cut off from the majority can
        // never muster them, so it defers (and re-arms the window) instead
        // of mass-evicting healthy nodes.  Confirms gossiped BY others are
        // still indisputable and are applied in fold_gossip as usual.
        if (!quorum_met_locked(expired)) {
          ++stats.confirms_deferred;
          table.set_suspect_deadline(expired, now + config.probe_period);
          continue;
        }
        apply_claim_locked(MemberState::kFailed, expired,
                           table.incarnation(expired), events);
      }

      target = next_probe_target_locked();
      if (target == ftc::kInvalidNode) return;
      request.op = rpc::Op::kSwimPing;
      request.client_node = self;
      request.ring_epoch = ring.epoch();
      request.ring_fingerprint = ring.view()->fingerprint();
      request.gossip = take_piggyback_locked();
      ++stats.probes_sent;
    }

    auto impl = shared_from_this();
    transport.call_async(
        target, std::move(request), config.probe_timeout,
        [impl, target](const StatusOr<rpc::RpcResponse>& result) {
          if (result.is_ok() && result.value().code == StatusCode::kOk) {
            {
              std::lock_guard<std::mutex> lock(impl->mutex);
              ++impl->stats.acks_received;
            }
            impl->ingest_response(result.value());
          } else {
            impl->on_probe_timeout(target);
          }
        });
  }

  void on_probe_timeout(NodeId target) {
    std::vector<NodeId> proxies;
    rpc::RpcRequest request;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (transport.is_killed(self)) return;
      if (table.state(target) == MemberState::kFailed) return;
      // One outstanding round per target; re-probes of a slow node must
      // not multiply the verdict bookkeeping.
      if (indirect_rounds.count(target) != 0) return;

      std::vector<NodeId> candidates = table.serving_members();
      candidates.erase(
          std::remove_if(candidates.begin(), candidates.end(),
                         [&](NodeId n) { return n == self || n == target; }),
          candidates.end());
      rng.shuffle(candidates);
      const std::size_t k = std::min<std::size_t>(config.indirect_proxies,
                                                  candidates.size());
      proxies.assign(candidates.begin(), candidates.begin() + k);
      if (proxies.empty()) {
        // Nobody left to ask: our word alone starts the suspicion.
        std::vector<RingEvent> events;
        note_accuser_locked(target, table.incarnation(target), self);
        apply_claim_locked(MemberState::kSuspect, target,
                           table.incarnation(target), events);
        return;
      }
      IndirectRound round;
      round.awaiting = static_cast<int>(proxies.size());
      round.deadline = Clock::now() + config.indirect_timeout;
      round.incarnation = table.incarnation(target);
      indirect_rounds[target] = std::move(round);
      request.op = rpc::Op::kSwimPingReq;
      request.client_node = self;
      request.subject = target;
      request.ring_epoch = ring.epoch();
      request.ring_fingerprint = ring.view()->fingerprint();
      request.gossip = take_piggyback_locked();
      stats.indirect_probes_sent += proxies.size();
    }

    auto impl = shared_from_this();
    for (const NodeId proxy : proxies) {
      transport.call_async(
          proxy, request, config.probe_timeout,
          [impl, target](const StatusOr<rpc::RpcResponse>& result) {
            if (result.is_ok()) {
              // The proxy accepted the errand; its reachability verdict
              // arrives later as a kSwimVerdict push.  The accept itself
              // still carries gossip.
              impl->ingest_response(result.value());
            } else {
              // This proxy will never report back: its slot is gone.
              impl->indirect_slot_lost(target);
            }
          });
    }
  }

  void indirect_slot_lost(NodeId target) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = indirect_rounds.find(target);
    if (it == indirect_rounds.end()) return;
    if (--it->second.awaiting > 0) return;
    indirect_rounds.erase(it);
    if (transport.is_killed(self)) return;
    std::vector<RingEvent> events;
    note_accuser_locked(target, table.incarnation(target), self);
    apply_claim_locked(MemberState::kSuspect, target,
                       table.incarnation(target), events);
  }

  /// Proxy side: report the outcome of a kSwimPingReq errand back to the
  /// node that asked.  Fire-and-forget; a lost push is covered by the
  /// origin's round deadline.
  void push_verdict(NodeId origin, NodeId subject, bool reachable) {
    rpc::RpcRequest verdict;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (transport.is_killed(self)) return;
      verdict.op = rpc::Op::kSwimVerdict;
      verdict.client_node = self;
      verdict.subject = subject;
      verdict.subject_reachable = reachable;
      verdict.ring_epoch = ring.epoch();
      verdict.ring_fingerprint = ring.view()->fingerprint();
      verdict.gossip = take_piggyback_locked();
      ++stats.verdicts_sent;
    }
    auto impl = shared_from_this();
    transport.call_async(
        origin, std::move(verdict), config.probe_timeout,
        [impl](const StatusOr<rpc::RpcResponse>& result) {
          if (result.is_ok()) impl->ingest_response(result.value());
        });
  }

  // ---- server-side handling ---------------------------------------------

  void stamp_response_locked(const rpc::RpcRequest& request,
                             rpc::RpcResponse& response) {
    const std::uint64_t local_epoch = ring.epoch();
    response.ring_epoch = local_epoch;
    // Epoch labels are per-node counters: after a partition heals, both
    // sides can present the SAME label for DIFFERENT rings (each burned
    // its own transitions while split).  The numeric comparison below is
    // blind to that, so a matching label with a mismatched fingerprint
    // gets the full-dump treatment — claims are idempotent and the
    // incarnation gates decide per member which side is right.
    if (request.ring_epoch == local_epoch && request.ring_fingerprint != 0 &&
        request.ring_fingerprint != ring.view()->fingerprint()) {
      response.view_hint = rpc::ViewHint::kStaleView;
      ++stats.stale_view_hints_sent;
      response.gossip = full_dump_locked();
      ++stats.full_syncs_served;
      return;
    }
    if (request.ring_epoch != rpc::kEpochUnaware &&
        request.ring_epoch < local_epoch) {
      response.view_hint = rpc::ViewHint::kStaleView;
      ++stats.stale_view_hints_sent;
      if (auto delta = ring.delta_since(request.ring_epoch)) {
        for (const RingEvent& event : *delta) {
          response.view_delta.push_back(rpc::RingDelta{
              event.epoch, static_cast<std::uint8_t>(event.type), event.node,
              event.incarnation});
        }
        ++stats.deltas_served;
      } else {
        // The retained log cannot cover the requester's gap (truncated,
        // or our label jumped past the last event via adopt_epoch): ship
        // the full state as claims instead — claims are idempotent and
        // complete; the requester reconciles and adopts our label.
        // Decided BEFORE the piggyback draw so queued claims keep their
        // retransmit budgets instead of being popped and overwritten.
        response.gossip = full_dump_locked();
        ++stats.full_syncs_served;
        return;
      }
    }
    response.gossip = take_piggyback_locked();
  }

  rpc::RpcResponse handle(const rpc::RpcRequest& request) {
    rpc::RpcResponse response;
    switch (request.op) {
      case rpc::Op::kSwimPing: {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<RingEvent> events;
        fold_gossip_locked(request.gossip, events, request.client_node);
        response.code = StatusCode::kOk;
        stamp_response_locked(request, response);
        return response;
      }
      case rpc::Op::kSwimPingReq: {
        const NodeId origin = request.client_node;
        const NodeId subject = request.subject;
        rpc::RpcRequest nested;
        {
          std::lock_guard<std::mutex> lock(mutex);
          std::vector<RingEvent> events;
          fold_gossip_locked(request.gossip, events, request.client_node);
          nested.op = rpc::Op::kSwimPing;
          nested.client_node = self;
          nested.ring_epoch = ring.epoch();
          nested.ring_fingerprint = ring.view()->fingerprint();
          nested.gossip = take_piggyback_locked();
          // Accepted — NOT a reachability verdict.  That comes back to
          // the origin as a kSwimVerdict push once the nested ping
          // resolves.  Blocking here would monopolize this server worker
          // for probe_timeout and time out every request queued behind
          // it, converting one dead node into false suspicions of live
          // ones — a self-sustaining cascade.
          response.code = StatusCode::kOk;
          stamp_response_locked(request, response);
        }
        auto impl = shared_from_this();
        transport.call_async(
            subject, std::move(nested), config.probe_timeout,
            [impl, origin, subject](const StatusOr<rpc::RpcResponse>& result) {
              const bool reachable = result.is_ok() &&
                                     result.value().code == StatusCode::kOk;
              if (result.is_ok()) impl->ingest_response(result.value());
              impl->push_verdict(origin, subject, reachable);
            });
        return response;
      }
      case rpc::Op::kSwimVerdict: {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<RingEvent> events;
        fold_gossip_locked(request.gossip, events, request.client_node);
        ++stats.verdicts_received;
        if (!request.subject_reachable) ++stats.verdicts_unreachable;
        const auto it = indirect_rounds.find(request.subject);
        if (it != indirect_rounds.end()) {
          IndirectRound& round = it->second;
          const NodeId proxy = request.client_node;
          if (std::find(round.reported.begin(), round.reported.end(),
                        proxy) != round.reported.end()) {
            // Duplicated delivery (at-least-once fabric re-send): this
            // proxy's slot is already spent — folding it again would let
            // one proxy's verdict count twice and suspect the subject on
            // a single opinion.  Gossip above was still folded (claims
            // are idempotent); the round state must not move.
            ++stats.duplicate_verdicts;
          } else {
            round.reported.push_back(proxy);
            if (request.subject_reachable) {
              // Someone reached the subject: vindicated, round closed.
              indirect_rounds.erase(it);
            } else {
              // Negative verdicts are testimony at the incarnation the
              // round was opened for.
              note_accuser_locked(request.subject, round.incarnation, proxy);
              if (--round.awaiting <= 0) {
                const std::uint64_t opened_at = round.incarnation;
                indirect_rounds.erase(it);
                // Incarnation gate: a refutation that landed mid-round
                // voids the round's negative evidence — suspecting the
                // subject's NEW incarnation on OLD testimony is exactly
                // the false-cascade quorum suspicion exists to stop.
                if (table.incarnation(request.subject) == opened_at) {
                  note_accuser_locked(request.subject, opened_at, self);
                  apply_claim_locked(MemberState::kSuspect, request.subject,
                                     table.incarnation(request.subject),
                                     events);
                }
              }
            }
          }
        }
        response.code = StatusCode::kOk;
        stamp_response_locked(request, response);
        return response;
      }
      case rpc::Op::kMembershipSync: {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<RingEvent> events;
        fold_gossip_locked(request.gossip, events, request.client_node);
        response.code = StatusCode::kOk;
        response.ring_epoch = ring.epoch();
        // Force full adoption: an explicit sync always ships the whole
        // state and the requester takes our epoch label with it.
        response.view_hint = rpc::ViewHint::kStaleView;
        response.gossip = full_dump_locked();
        ++stats.full_syncs_served;
        return response;
      }
      default:
        response.code = StatusCode::kInvalidArgument;
        return response;
    }
  }
};

MembershipAgent::MembershipAgent(NodeId self, rpc::Transport& transport,
                                 SwimConfig config,
                                 const ring::RingConfig& ring_config,
                                 const std::vector<NodeId>& members)
    : impl_(std::make_shared<Impl>(self, transport, config, ring_config,
                                   members)) {}

MembershipAgent::~MembershipAgent() = default;

void MembershipAgent::probe_tick() { impl_->probe_tick(); }

void MembershipAgent::stamp_request(rpc::RpcRequest& request) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  request.ring_epoch = impl_->ring.epoch();
  request.ring_fingerprint = impl_->ring.view()->fingerprint();
  request.gossip = impl_->take_piggyback_locked();
}

std::vector<RingEvent> MembershipAgent::ingest(
    const rpc::RpcResponse& response) {
  return impl_->ingest_response(response);
}

void MembershipAgent::observe_request(const rpc::RpcRequest& request) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<RingEvent> events;
  impl_->fold_gossip_locked(request.gossip, events, request.client_node);
}

void MembershipAgent::stamp_response(const rpc::RpcRequest& request,
                                     rpc::RpcResponse& response) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->stamp_response_locked(request, response);
}

rpc::RpcResponse MembershipAgent::handle(const rpc::RpcRequest& request) {
  return impl_->handle(request);
}

void MembershipAgent::suspect(NodeId node) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (node == impl_->self) return;
  std::vector<RingEvent> events;
  impl_->note_accuser_locked(node, impl_->table.incarnation(node),
                             impl_->self);
  impl_->apply_claim_locked(MemberState::kSuspect, node,
                            impl_->table.incarnation(node), events);
}

void MembershipAgent::join(NodeId node) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<RingEvent> events;
  impl_->apply_claim_locked(MemberState::kAlive, node, 0, events);
}

std::shared_ptr<const RingView> MembershipAgent::ring_view() const {
  return impl_->ring.view();
}

const VersionedRing& MembershipAgent::ring() const { return impl_->ring; }

std::uint64_t MembershipAgent::epoch() const { return impl_->ring.epoch(); }

std::uint64_t MembershipAgent::ring_fingerprint() const {
  return impl_->ring.view()->fingerprint();
}

NodeId MembershipAgent::self() const { return impl_->self; }

bool MembershipAgent::is_serving(NodeId node) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->table.contains(node) &&
         impl_->table.state(node) != MemberState::kFailed;
}

bool MembershipAgent::is_suspect(NodeId node) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->table.state(node) == MemberState::kSuspect;
}

MemberState MembershipAgent::member_state(NodeId node) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->table.state(node);
}

std::uint64_t MembershipAgent::incarnation(NodeId node) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return node == impl_->self ? impl_->my_incarnation
                             : impl_->table.incarnation(node);
}

MembershipAgent::Stats MembershipAgent::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Stats stats = impl_->stats;
  stats.epoch = impl_->ring.epoch();
  stats.members_alive = impl_->table.alive_count();
  stats.members_suspect = impl_->table.suspect_count();
  stats.members_failed = impl_->table.failed_count();
  return stats;
}

void MembershipAgent::set_flight_recorder(obs::FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->recorder = recorder;
}

}  // namespace ftc::membership
