#ifndef PRIVSHAPE_PROTOCOL_CODEC_H_
#define PRIVSHAPE_PROTOCOL_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace privshape::proto {

/// Minimal binary codec for report messages: LEB128 varints for integers,
/// fixed 8-byte little-endian IEEE754 for doubles, length-prefixed byte
/// strings.
///
/// An Encoder either owns its buffer (default constructor — Release()
/// hands it back) or appends into a caller-owned string (the batched
/// hot path: many reports, one buffer, zero per-report allocation).
class Encoder {
 public:
  Encoder() : out_(&owned_) {}
  /// Appends into `*out` (which must outlive the encoder). Release() is
  /// meaningless in this mode; the caller already holds the bytes.
  explicit Encoder(std::string* out) : out_(out) {}

  void PutVarint(uint64_t value);
  void PutDouble(double value);
  /// Length-prefixed byte string: the length varint, then the bytes
  /// appended as one block (PutString's framing).
  void PutBytes(const std::vector<uint8_t>& bytes);
  /// Length-prefixed raw byte string — same framing as PutBytes, but
  /// sourced from any contiguous bytes (the network layer nests encoded
  /// messages this way without copying them into a vector first).
  void PutString(std::string_view bytes);

  const std::string& buffer() const { return *out_; }
  std::string Release() { return std::move(owned_); }

 private:
  std::string owned_;
  std::string* out_;
};

/// Streaming decoder over an encoded buffer. Every getter returns a
/// Status-bearing Result so truncated or corrupt reports surface as
/// errors, never as silent garbage.
///
/// Construction from an rvalue std::string takes ownership; construction
/// from a string_view only borrows (the hot ingest path decodes slices of
/// a flat batch buffer without copying them) — the viewed bytes must then
/// outlive the decoder.
class Decoder {
 public:
  explicit Decoder(std::string buffer)
      : owned_(std::move(buffer)), view_(owned_) {}
  // No const char* overload: encoded reports routinely contain NUL
  // bytes, which a C-string constructor would silently truncate at.
  explicit Decoder(std::string_view buffer) : view_(buffer) {}

  // view_ points into owned_ when owning; a move would dangle it.
  Decoder(const Decoder&) = delete;
  Decoder& operator=(const Decoder&) = delete;

  Result<uint64_t> GetVarint();
  Result<double> GetDouble();
  /// Length-prefixed byte string, copied in one block out of the
  /// GetStringView view.
  Result<std::vector<uint8_t>> GetBytes();
  /// Length-prefixed byte string as a borrowed view into the decoder's
  /// buffer (valid only while the decoder — or, for a borrowing decoder,
  /// the viewed bytes — lives). Same wire form as GetBytes, no copy.
  Result<std::string_view> GetStringView();

  /// True once the whole buffer is consumed.
  bool AtEnd() const { return pos_ == view_.size(); }
  size_t remaining() const { return view_.size() - pos_; }

 private:
  std::string owned_;
  std::string_view view_;
  size_t pos_ = 0;
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_CODEC_H_
