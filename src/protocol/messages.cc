#include "protocol/messages.h"

#include <limits>

#include "ldp/estimator_utils.h"
#include "protocol/codec.h"

namespace privshape::proto {

namespace {

/// Decodes a varint that must fit a non-negative int (the length/alphabet
/// parameters): anything larger is corrupt, not a 2^63-length range.
Result<int> GetSmallInt(Decoder& dec, const char* what) {
  auto value = dec.GetVarint();
  if (!value.ok()) return value.status();
  if (*value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(std::string(what) + " out of range");
  }
  return static_cast<int>(*value);
}

}  // namespace

std::vector<double> DebiasTally(ReportKind kind,
                                const std::vector<size_t>& tally,
                                size_t reports, double epsilon) {
  if (kind == ReportKind::kSelection) {
    return std::vector<double>(tally.begin(), tally.end());
  }
  if (kind == ReportKind::kClassRefine) {
    return ldp::DebiasOueCounts(tally, reports, epsilon);
  }
  return ldp::DebiasGrrCounts(tally, reports, epsilon);
}

std::string EncodeReport(const Report& report) {
  std::string out;
  EncodeReportTo(report, &out);
  return out;
}

void EncodeReportTo(const Report& report, std::string* out) {
  Encoder enc(out);
  enc.PutVarint(kWireVersion);
  enc.PutVarint(static_cast<uint64_t>(report.kind));
  enc.PutVarint(report.level);
  enc.PutVarint(report.value);
  enc.PutBytes(report.bits);
}

void ReportBatch::Append(const Report& report) {
  EncodeReportTo(report, &buffer_);
  ends_.push_back(buffer_.size());
}

Status DecodeReportInto(std::string_view buffer, Report* out) {
  Decoder dec(buffer);
  auto version = dec.GetVarint();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  auto kind = dec.GetVarint();
  if (!kind.ok()) return kind.status();
  if (*kind < 1 || *kind > 5) {
    return Status::InvalidArgument("unknown report kind");
  }
  out->kind = static_cast<ReportKind>(*kind);
  auto level = dec.GetVarint();
  if (!level.ok()) return level.status();
  out->level = *level;
  auto value = dec.GetVarint();
  if (!value.ok()) return value.status();
  out->value = *value;
  auto bits = dec.GetStringView();
  if (!bits.ok()) return bits.status();
  const auto* data = reinterpret_cast<const uint8_t*>(bits->data());
  out->bits.assign(data, data + bits->size());
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after report");
  }
  return Status::Ok();
}

Result<Report> DecodeReport(std::string_view buffer) {
  Report report;
  PRIVSHAPE_RETURN_IF_ERROR(DecodeReportInto(buffer, &report));
  return report;
}

std::string EncodeCandidateRequest(const CandidateRequest& request) {
  Encoder enc;
  enc.PutVarint(kWireVersion);
  enc.PutVarint(request.level);
  enc.PutDouble(request.epsilon);
  enc.PutVarint(request.candidates.size());
  for (const auto& candidate : request.candidates) {
    enc.PutBytes(candidate);
  }
  return enc.Release();
}

Result<CandidateRequest> DecodeCandidateRequest(std::string_view buffer) {
  Decoder dec(buffer);
  auto version = dec.GetVarint();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  CandidateRequest request;
  auto level = dec.GetVarint();
  if (!level.ok()) return level.status();
  request.level = *level;
  auto epsilon = dec.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  request.epsilon = *epsilon;
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto candidate = dec.GetBytes();
    if (!candidate.ok()) return candidate.status();
    request.candidates.push_back(std::move(*candidate));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  return request;
}

std::string EncodeLengthRequest(const LengthRequest& request) {
  Encoder enc;
  enc.PutVarint(kWireVersion);
  enc.PutVarint(static_cast<uint64_t>(request.ell_low));
  enc.PutVarint(static_cast<uint64_t>(request.ell_high));
  enc.PutDouble(request.epsilon);
  return enc.Release();
}

Result<LengthRequest> DecodeLengthRequest(std::string_view buffer) {
  Decoder dec(buffer);
  auto version = dec.GetVarint();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  LengthRequest request;
  auto ell_low = GetSmallInt(dec, "ell_low");
  if (!ell_low.ok()) return ell_low.status();
  request.ell_low = *ell_low;
  auto ell_high = GetSmallInt(dec, "ell_high");
  if (!ell_high.ok()) return ell_high.status();
  request.ell_high = *ell_high;
  auto epsilon = dec.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  request.epsilon = *epsilon;
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  return request;
}

std::string EncodeSubShapeRequest(const SubShapeRequest& request) {
  Encoder enc;
  enc.PutVarint(kWireVersion);
  enc.PutVarint(static_cast<uint64_t>(request.alphabet));
  enc.PutVarint(static_cast<uint64_t>(request.ell_s));
  enc.PutDouble(request.epsilon);
  enc.PutVarint(request.allow_repeats ? 1 : 0);
  return enc.Release();
}

Result<SubShapeRequest> DecodeSubShapeRequest(std::string_view buffer) {
  Decoder dec(buffer);
  auto version = dec.GetVarint();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  SubShapeRequest request;
  auto alphabet = GetSmallInt(dec, "alphabet");
  if (!alphabet.ok()) return alphabet.status();
  request.alphabet = *alphabet;
  auto ell_s = GetSmallInt(dec, "ell_s");
  if (!ell_s.ok()) return ell_s.status();
  request.ell_s = *ell_s;
  auto epsilon = dec.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  request.epsilon = *epsilon;
  auto repeats = dec.GetVarint();
  if (!repeats.ok()) return repeats.status();
  if (*repeats > 1) {
    return Status::InvalidArgument("allow_repeats must be 0 or 1");
  }
  request.allow_repeats = *repeats == 1;
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  return request;
}

std::string EncodeClassRefineRequest(const ClassRefineRequest& request) {
  Encoder enc;
  enc.PutVarint(kWireVersion);
  enc.PutDouble(request.epsilon);
  enc.PutVarint(request.num_classes);
  enc.PutVarint(request.candidates.size());
  for (const auto& candidate : request.candidates) {
    enc.PutBytes(candidate);
  }
  return enc.Release();
}

Result<ClassRefineRequest> DecodeClassRefineRequest(std::string_view buffer) {
  Decoder dec(buffer);
  auto version = dec.GetVarint();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  ClassRefineRequest request;
  auto epsilon = dec.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  request.epsilon = *epsilon;
  auto num_classes = dec.GetVarint();
  if (!num_classes.ok()) return num_classes.status();
  request.num_classes = *num_classes;
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto candidate = dec.GetBytes();
    if (!candidate.ok()) return candidate.status();
    request.candidates.push_back(std::move(*candidate));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  return request;
}

}  // namespace privshape::proto
