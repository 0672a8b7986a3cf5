// Cache-line / page aligned storage for grid data.
//
// Pochoir owns the layout of its arrays (the paper's copy-in/copy-out
// rationale, §2); aligning the backing store to 64 bytes keeps grid rows on
// predictable cache-line boundaries and enables vectorized base cases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "support/assertion.hpp"
#include "support/error.hpp"

namespace pochoir {

/// Owning, aligned, fixed-size buffer of trivially relocatable elements.
template <typename T>
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;

  /// Throws pochoir::Error when count elements overflow a byte count.
  explicit AlignedBuffer(std::size_t count) : size_(count) {
    if (count == 0) return;
    // A plain throw, not check_usage: the compiler must see that the loop
    // below is unreachable for a constant count that overflows.
    if (count > (SIZE_MAX - kAlignment) / sizeof(T)) {
      throw Error("buffer size overflows");
    }
    const std::size_t bytes = round_up(count * sizeof(T));
    data_ = static_cast<T*>(::operator new(bytes, std::align_val_t(kAlignment)));
    for (std::size_t i = 0; i < count; ++i) new (data_ + i) T();
  }

  AlignedBuffer(const AlignedBuffer& other) : AlignedBuffer(other.size_) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      AlignedBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedBuffer() {
    if (data_ == nullptr) return;
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    ::operator delete(data_, std::align_val_t(kAlignment));
  }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    POCHOIR_DEBUG_ASSERT(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    POCHOIR_DEBUG_ASSERT(i < size_);
    return data_[i];
  }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pochoir
