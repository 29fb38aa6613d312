#include "store/eviction.hpp"

#include <list>
#include <map>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ftc::store {

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kS3Fifo: return "s3fifo";
    case PolicyKind::kGdsf: return "gdsf";
  }
  return "?";
}

StatusOr<PolicyKind> parse_policy_kind(const std::string& name) {
  if (name == "lru") return PolicyKind::kLru;
  if (name == "fifo") return PolicyKind::kFifo;
  if (name == "s3fifo") return PolicyKind::kS3Fifo;
  if (name == "gdsf") return PolicyKind::kGdsf;
  return Status::invalid_argument("unknown eviction policy: " + name +
                                  " (want lru|fifo|s3fifo|gdsf)");
}

namespace {

// ---------------------------------------------------------------------
// LRU / FIFO share one list+map skeleton; only the hit behaviour differs.
class ListPolicy : public EvictionPolicy {
 public:
  explicit ListPolicy(bool refresh_on_hit) : refresh_on_hit_(refresh_on_hit) {}

  [[nodiscard]] PolicyKind kind() const override {
    return refresh_on_hit_ ? PolicyKind::kLru : PolicyKind::kFifo;
  }

  void on_insert(const std::string& key, std::uint64_t) override {
    // Re-insert of a tracked key moves it to the newest position.
    if (const auto it = index_.find(key); it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(key);
    index_.emplace(order_.front(), order_.begin());
  }

  void on_hit(const std::string& key) override {
    if (!refresh_on_hit_) return;
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }

  void on_erase(const std::string& key) override {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    const auto node = it->second;
    index_.erase(it);  // before the node: the index key views its string
    order_.erase(node);
  }

  std::optional<std::string> pop_victim() override {
    if (order_.empty()) return std::nullopt;
    index_.erase(order_.back());
    std::string victim = std::move(order_.back());
    order_.pop_back();
    return victim;
  }

  [[nodiscard]] std::size_t tracked() const override { return index_.size(); }

  void reset() override {
    index_.clear();
    order_.clear();
  }

 private:
  bool refresh_on_hit_;
  std::list<std::string> order_;  ///< front = newest
  /// Keys view the strings in `order_` (list nodes never move), so each
  /// key is stored once.
  std::unordered_map<std::string_view, std::list<std::string>::iterator>
      index_;
};

// ---------------------------------------------------------------------
// S3-FIFO (Yang et al., SOSP'23), key-granularity variant.  Three FIFO
// queues: `small_` holds probationary new keys (~10% of tracked bytes),
// `main_` holds graduated keys, `ghost_` remembers recently evicted
// small-queue keys (metadata only) so a quick re-reference re-enters
// main directly.  Reads only set a saturating frequency counter — no
// list surgery on the hit path.
class S3FifoPolicy : public EvictionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kS3Fifo; }

  void on_insert(const std::string& key, std::uint64_t bytes) override {
    if (const auto it = index_.find(key); it != index_.end()) unlink(it);
    Meta meta;
    meta.bytes = bytes;
    if (ghost_index_.erase(key) > 0) {
      // Remembered casualty: it proved reuse beyond the small window.
      meta.in_main = true;
      main_.push_front(key);
      meta.it = main_.begin();
      main_bytes_ += bytes;
    } else {
      meta.in_main = false;
      small_.push_front(key);
      meta.it = small_.begin();
      small_bytes_ += bytes;
    }
    index_[key] = meta;
  }

  void on_hit(const std::string& key) override {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    if (it->second.freq < kMaxFreq) ++it->second.freq;
  }

  void on_erase(const std::string& key) override {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    unlink(it);
  }

  std::optional<std::string> pop_victim() override {
    // Evict from small while it exceeds its ~10% byte share (or main is
    // empty); otherwise scan main.  Terminates: every pass either evicts,
    // moves a key small->main (small shrinks), or decays a main key's
    // frequency toward zero.
    while (!small_.empty() || !main_.empty()) {
      const bool from_small =
          !small_.empty() &&
          (main_.empty() ||
           small_bytes_ * 10 >= (small_bytes_ + main_bytes_));
      if (from_small) {
        const std::string key = small_.back();
        const auto it = index_.find(key);
        const std::uint64_t bytes = it->second.bytes;
        const bool graduate = it->second.freq > 0;
        unlink(it);
        if (graduate) {
          // Re-referenced while probationary: graduate to main.
          Meta meta;
          meta.bytes = bytes;
          meta.in_main = true;
          main_.push_front(key);
          meta.it = main_.begin();
          main_bytes_ += bytes;
          index_[key] = meta;
          continue;
        }
        // freq == 0: genuine one-touch entry — evict and remember it in
        // the ghost queue so a near-future re-reference skips small.
        remember_ghost(key);
        return key;
      }
      const std::string key = main_.back();
      const auto it = index_.find(key);
      if (it->second.freq > 0) {
        // Second chance: decay and recycle to the head.
        --it->second.freq;
        main_.splice(main_.begin(), main_, it->second.it);
        it->second.it = main_.begin();
        continue;
      }
      unlink(it);
      return key;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t tracked() const override { return index_.size(); }

  void reset() override {
    small_.clear();
    main_.clear();
    ghost_.clear();
    ghost_index_.clear();
    index_.clear();
    small_bytes_ = main_bytes_ = 0;
  }

 private:
  static constexpr std::uint8_t kMaxFreq = 3;

  struct Meta {
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator it;
    bool in_main = false;
    std::uint8_t freq = 0;
  };

  void unlink(std::unordered_map<std::string, Meta>::iterator it) {
    if (it->second.in_main) {
      main_bytes_ -= it->second.bytes;
      main_.erase(it->second.it);
    } else {
      small_bytes_ -= it->second.bytes;
      small_.erase(it->second.it);
    }
    index_.erase(it);
  }

  void remember_ghost(const std::string& key) {
    ghost_.push_front(key);
    ghost_index_.insert(key);
    // Bound the ghost to the number of resident keys (the classic
    // sizing: as many ghosts as main can hold).
    const std::size_t cap = index_.size() + 1;
    while (ghost_.size() > cap) {
      ghost_index_.erase(ghost_.back());
      ghost_.pop_back();
    }
  }

  std::list<std::string> small_;  ///< front = newest
  std::list<std::string> main_;
  std::list<std::string> ghost_;
  std::unordered_map<std::string, Meta> index_;
  std::unordered_set<std::string> ghost_index_;
  std::uint64_t small_bytes_ = 0;
  std::uint64_t main_bytes_ = 0;
};

// ---------------------------------------------------------------------
// GDSF: H(entry) = L + freq / size_kb.  The global inflation term L is
// raised to each victim's priority, so long-idle frequent entries age
// out instead of squatting forever (the flaw of plain LFU).  Scan
// traffic enters with freq=1 and the smallest possible H above L —
// evicted first while the reused hot set floats above the waterline.
class GdsfPolicy : public EvictionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kGdsf; }

  void on_insert(const std::string& key, std::uint64_t bytes) override {
    on_erase(key);  // re-insert of a tracked key replaces its state
    Meta meta;
    meta.bytes = bytes;
    meta.freq = 1;
    link(key, meta);
  }

  void on_hit(const std::string& key) override {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    Meta meta = it->second;
    ++meta.freq;
    queue_.erase(meta.qit);
    index_.erase(it);
    link(key, meta);
  }

  void on_erase(const std::string& key) override {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    queue_.erase(it->second.qit);
    index_.erase(it);
  }

  std::optional<std::string> pop_victim() override {
    if (queue_.empty()) return std::nullopt;
    const auto qit = queue_.begin();  // minimal priority
    inflation_ = qit->first.first;
    std::string victim = qit->second;
    index_.erase(victim);
    queue_.erase(qit);
    return victim;
  }

  [[nodiscard]] std::size_t tracked() const override { return index_.size(); }

  void reset() override {
    queue_.clear();
    index_.clear();
    inflation_ = 0.0;
    seq_ = 0;
  }

 private:
  /// (priority, insertion seq) — the seq breaks ties FIFO so equal-H
  /// entries (same size, same freq) evict in deterministic order.
  using Key = std::pair<double, std::uint64_t>;

  struct Meta {
    std::uint64_t bytes = 0;
    std::uint64_t freq = 0;
    std::map<Key, std::string>::iterator qit;
  };

  void link(const std::string& key, Meta meta) {
    const double size_kb =
        static_cast<double>(meta.bytes < 1024 ? 1024 : meta.bytes) / 1024.0;
    const double priority =
        inflation_ + static_cast<double>(meta.freq) / size_kb;
    meta.qit = queue_.emplace(Key{priority, seq_++}, key).first;
    index_[key] = meta;
  }

  std::map<Key, std::string> queue_;  ///< begin() = next victim
  std::unordered_map<std::string, Meta> index_;
  double inflation_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace

std::unique_ptr<EvictionPolicy> make_eviction_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return std::make_unique<ListPolicy>(true);
    case PolicyKind::kFifo: return std::make_unique<ListPolicy>(false);
    case PolicyKind::kS3Fifo: return std::make_unique<S3FifoPolicy>();
    case PolicyKind::kGdsf: return std::make_unique<GdsfPolicy>();
  }
  return nullptr;
}

}  // namespace ftc::store
