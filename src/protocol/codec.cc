#include "protocol/codec.h"

#include <cstring>

namespace privshape::proto {

void Encoder::PutVarint(uint64_t value) {
  while (value >= 0x80) {
    out_->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out_->push_back(static_cast<char>(value));
}

void Encoder::PutDouble(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutBytes(const std::vector<uint8_t>& bytes) {
  PutString(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

void Encoder::PutString(std::string_view bytes) {
  PutVarint(bytes.size());
  out_->append(bytes.data(), bytes.size());
}

Result<uint64_t> Decoder::GetVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= view_.size()) {
      return Status::OutOfRange("truncated varint");
    }
    if (shift > 63) {
      return Status::InvalidArgument("varint overflow");
    }
    uint8_t byte = static_cast<uint8_t>(view_[pos_++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

Result<double> Decoder::GetDouble() {
  if (pos_ + 8 > view_.size()) {
    return Status::OutOfRange("truncated double");
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(view_[pos_ + static_cast<size_t>(i)]))
            << (8 * i);
  }
  pos_ += 8;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::vector<uint8_t>> Decoder::GetBytes() {
  auto bytes = GetStringView();
  if (!bytes.ok()) return bytes.status();
  const auto* data = reinterpret_cast<const uint8_t*>(bytes->data());
  return std::vector<uint8_t>(data, data + bytes->size());
}

Result<std::string_view> Decoder::GetStringView() {
  auto len = GetVarint();
  if (!len.ok()) return len.status();
  // Compare against the remainder, never `pos_ + *len`: a corrupt length
  // varint near 2^64 would wrap that sum past the check, and a caller
  // sizing a buffer from the length would abort the process instead of
  // getting a Status.
  if (*len > view_.size() - pos_) {
    return Status::OutOfRange("truncated byte string");
  }
  std::string_view out = view_.substr(pos_, *len);
  pos_ += *len;
  return out;
}

}  // namespace privshape::proto
