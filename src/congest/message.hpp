/// \file message.hpp
/// \brief Wire messages and the varint codec.
///
/// The CONGEST model bounds each link to O(log n) bits per round (paper
/// §2.1). To keep the accounting honest, every message in the simulator is a
/// real byte buffer produced by a codec — algorithms cannot smuggle
/// unbounded state through pointers. Bit sizes feed the per-round link
/// statistics and the bandwidth-normalized round metric (DESIGN.md §3.4).
///
/// Encoding: LEB128-style varints (7 bits per byte), so an ID costs
/// ⌈bits(id)/7⌉ bytes — proportional to log n, as the model assumes.
///
/// Storage: messages carry small-buffer inline storage (kInlineCapacity
/// bytes). A legal CONGEST payload is O(log n) bits — a couple of varints —
/// so in practice payloads live entirely inline and moving a Message through
/// the simulator's delivery arena never touches the heap (DESIGN.md §4).
/// Oversized payloads (the harness sometimes ships diagnostic bundles) spill
/// to a heap buffer transparently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace decycle::congest {

/// An opaque payload travelling over one link in one round.
class Message {
 public:
  /// Bytes held inline before spilling to the heap. Sized so a handful of
  /// worst-case 10-byte varints (one u64 each) still fit without allocating.
  static constexpr std::size_t kInlineCapacity = 24;

  // User-provided (not defaulted) so `const Message m;` is legal without
  // zero-filling the inline buffer.
  Message() noexcept {}  // NOLINT(modernize-use-equals-default)

  /// Compatibility constructor: copies the bytes into inline or heap
  /// storage as size dictates.
  explicit Message(const std::vector<std::uint8_t>& bytes) { assign(bytes.data(), bytes.size()); }
  explicit Message(std::span<const std::uint8_t> bytes) { assign(bytes.data(), bytes.size()); }

  Message(const Message& other) { assign(other.data(), other.size_); }
  Message& operator=(const Message& other) {
    if (this != &other) assign(other.data(), other.size_);
    return *this;
  }

  Message(Message&& other) noexcept { steal(other); }
  Message& operator=(Message&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~Message() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t byte_size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t bit_size() const noexcept { return std::uint64_t{size_} * 8; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return {data(), size_}; }
  [[nodiscard]] bool on_heap() const noexcept { return heap_ != nullptr; }

 private:
  friend class MessageWriter;

  [[nodiscard]] std::uint8_t* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }

  void assign(const std::uint8_t* src, std::size_t n) {
    reserve(n);
    if (n != 0) std::memcpy(data(), src, n);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Grows capacity to at least \p want, preserving contents.
  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    const std::size_t new_cap = want > 2 * std::size_t{capacity_} ? want : 2 * capacity_;
    auto* fresh = new std::uint8_t[new_cap];
    if (size_ != 0) std::memcpy(fresh, data(), size_);
    delete[] heap_;
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(new_cap);
  }

  void steal(Message& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      heap_ = nullptr;
      capacity_ = kInlineCapacity;
      size_ = other.size_;
      if (size_ != 0) std::memcpy(inline_, other.inline_, size_);
      other.size_ = 0;
    }
  }

  void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
    size_ = 0;
  }

  std::uint8_t* heap_ = nullptr;  ///< nullptr: payload lives in inline_
  std::uint32_t capacity_ = kInlineCapacity;
  std::uint32_t size_ = 0;
  std::uint8_t inline_[kInlineCapacity];
};

/// Serializes unsigned integers into a Message. Builds directly into the
/// message's (inline-first) storage, so writing a typical payload performs
/// no heap allocation.
class MessageWriter {
 public:
  MessageWriter& put_u64(std::uint64_t value) {
    // Encode to a stack scratch first so the message grows by the exact
    // byte count (a speculative worst-case reserve would spill near-full
    // inline payloads to the heap for nothing).
    std::uint8_t scratch[kMaxVarintBytes];
    std::uint32_t n = 0;
    while (value >= 0x80) {
      scratch[n++] = static_cast<std::uint8_t>(value | 0x80);
      value >>= 7;
    }
    scratch[n++] = static_cast<std::uint8_t>(value);
    msg_.reserve(msg_.size_ + n);
    std::memcpy(msg_.data() + msg_.size_, scratch, n);
    msg_.size_ += n;
    return *this;
  }

  [[nodiscard]] Message finish() { return std::move(msg_); }

 private:
  static constexpr std::uint32_t kMaxVarintBytes = 10;  ///< ⌈64/7⌉

  Message msg_;
};

/// Deserializes in the same order the writer produced. Holds a view into
/// the message, so the Message must outlive the reader (binding a temporary
/// is rejected at compile time).
class MessageReader {
 public:
  explicit MessageReader(const Message& msg) : bytes_(msg.bytes()) {}
  explicit MessageReader(Message&&) = delete;

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace decycle::congest
