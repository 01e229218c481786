#ifndef PRIVSHAPE_COMMON_SPAN_H_
#define PRIVSHAPE_COMMON_SPAN_H_

#include <cstddef>
#include <type_traits>
#include <vector>

namespace privshape {

/// Minimal non-owning view over a contiguous array (C++17 stand-in for
/// std::span). Used for SAX words (dist::SymbolView) so callers can pass a
/// word or a prefix of one without copying.
template <typename T>
class Span {
 public:
  Span() : data_(nullptr), size_(0) {}
  Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Implicit view over a vector (also binds Span<const T> to vector<T>).
  Span(const std::vector<std::remove_const_t<T>>& v)  // NOLINT
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// View of at most `count` elements starting at `offset` (clamped).
  Span<T> Sub(size_t offset, size_t count) const {
    if (offset >= size_) return Span<T>();
    size_t n = size_ - offset;
    return Span<T>(data_ + offset, count < n ? count : n);
  }

 private:
  const T* data_;
  size_t size_;
};

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_SPAN_H_
