// buffer.hpp - Immutable, refcounted payload bytes.
//
// The zero-copy currency of the data path: a Buffer wraps a shared,
// immutable byte string, so handing a cached file to an RPC response, a
// write-behind recache, or a replication request is a refcount bump
// instead of an O(size) memcpy.  The CRC of a payload is memoized in the shared
// control block, so integrity checksums are computed once per payload
// lifetime instead of once per read.
//
// Ownership discipline (see DESIGN.md "Zero-copy data path"):
//   - bytes are immutable after construction; nobody may mutate through a
//     Buffer.  Anything that must alter bytes (e.g. the transport's wire-
//     corruption fault injection) builds a *new* Buffer from a copy.
//   - constructing from std::string takes ownership (move, no copy);
//     `copy_of` is the explicit deep-copy escape hatch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace ftc::common {

class Buffer {
 public:
  /// Empty payload (kNotFound responses, metadata-only cache entries).
  Buffer() = default;

  /// Takes ownership of `bytes` (move in; no copy for rvalues).  Implicit
  /// so existing `payload = some_string` call sites keep working.
  Buffer(std::string bytes)  // NOLINT(google-explicit-constructor)
      : rep_(bytes.empty() ? nullptr
                           : std::make_shared<const Rep>(std::move(bytes))) {}

  /// Literal convenience (tests, stats payloads).
  Buffer(const char* bytes)  // NOLINT(google-explicit-constructor)
      : Buffer(std::string(bytes)) {}

  /// Explicit deep copy — the only way to duplicate payload bytes.
  static Buffer copy_of(std::string_view bytes) {
    return Buffer(std::string(bytes));
  }

  [[nodiscard]] std::size_t size() const {
    return rep_ ? rep_->bytes.size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::string_view view() const {
    return rep_ ? std::string_view(rep_->bytes) : std::string_view{};
  }
  [[nodiscard]] const char* data() const {
    return rep_ ? rep_->bytes.data() : nullptr;
  }

  /// Materializes an owned copy (O(size); callers that only need to look
  /// at bytes should use view()).
  [[nodiscard]] std::string to_string() const {
    return std::string(view());
  }

  /// Memoized checksum: `compute` runs at most once per payload (shared
  /// across all Buffers referencing the same bytes); subsequent calls
  /// return the cached value.  Racing computations store the same
  /// deterministic result, so the benign double-compute is harmless.
  template <typename Fn>
  std::uint32_t checksum(Fn&& compute) const {
    if (!rep_) return static_cast<std::uint32_t>(compute(std::string_view{}));
    if (rep_->crc_valid.load(std::memory_order_acquire)) {
      return rep_->crc.load(std::memory_order_relaxed);
    }
    const auto value =
        static_cast<std::uint32_t>(compute(std::string_view(rep_->bytes)));
    rep_->crc.store(value, std::memory_order_relaxed);
    rep_->crc_valid.store(true, std::memory_order_release);
    return value;
  }

  /// True when both Buffers reference the same underlying bytes (refcount
  /// sharing, not byte equality) — the zero-copy assertion hook.
  [[nodiscard]] bool shares_storage(const Buffer& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  /// Number of Buffers referencing these bytes (0 for the empty buffer).
  [[nodiscard]] long use_count() const { return rep_ ? rep_.use_count() : 0; }

 private:
  struct Rep {
    explicit Rep(std::string b) : bytes(std::move(b)) {}
    const std::string bytes;
    mutable std::atomic<std::uint32_t> crc{0};
    mutable std::atomic<bool> crc_valid{false};
  };

  std::shared_ptr<const Rep> rep_;
};

// One canonical equality over bytes; strings/literals reach it through the
// implicit constructors (comparison cost is fine — it's a test/debug path).
inline bool operator==(const Buffer& a, const Buffer& b) {
  return a.view() == b.view();
}

inline std::ostream& operator<<(std::ostream& os, const Buffer& buffer) {
  constexpr std::size_t kPreview = 64;
  const std::string_view v = buffer.view();
  os << "Buffer(" << v.size() << "B";
  if (!v.empty()) {
    os << ", \"" << v.substr(0, kPreview)
       << (v.size() > kPreview ? "\"..." : "\"");
  }
  return os << ")";
}

}  // namespace ftc::common
