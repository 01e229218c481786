/// \file
/// Fuzz target: the proto codec layer — primitive decode loops, every
/// request/report decoder, and ReportBatch reassembly from hostile
/// wire views. This is the surface the drainer threads run on every
/// uploaded batch, so "clean Status, never a crash or oversized
/// allocation" is a serving-availability invariant, not a nicety.
///
/// The first input byte selects a decoder; the rest is the buffer.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "protocol/codec.h"
#include "protocol/messages.h"

namespace proto = privshape::proto;

namespace {

/// Walks primitives until the decoder errors or the buffer ends; the
/// walk order is data-driven so varint/double/bytes interleavings vary.
void WalkPrimitives(std::string_view buffer) {
  proto::Decoder dec(buffer);
  size_t step = 0;
  while (!dec.AtEnd()) {
    bool ok = false;
    switch (step++ % 4) {
      case 0:
        ok = dec.GetVarint().ok();
        break;
      case 1:
        ok = dec.GetDouble().ok();
        break;
      case 2:
        ok = dec.GetBytes().ok();
        break;
      default:
        ok = dec.GetStringView().ok();
        break;
    }
    if (!ok) break;
  }
}

/// Re-assembles a ReportBatch the way the daemon does from uploaded
/// views, then decodes every report out of it the way a drainer does,
/// into one reused Report, and aborts unless each decode agrees with a
/// fresh DecodeReport: the same status and, on success, the same fields.
void BatchRoundTrip(std::string_view buffer) {
  proto::ReportBatch batch;
  // Split the buffer into pseudo-reports at data-derived boundaries.
  size_t pos = 0;
  size_t len = 1;
  while (pos < buffer.size() && batch.size() < 64) {
    size_t take = std::min(len, buffer.size() - pos);
    batch.AppendEncoded(buffer.substr(pos, take));
    pos += take;
    len = len * 2 + 1;
  }
  proto::Report reused;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto fresh = proto::DecodeReport(batch.view(i));
    privshape::Status into = proto::DecodeReportInto(batch.view(i), &reused);
    if (!(into == fresh.status()) || (into.ok() && !(reused == *fresh))) {
      std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  std::string_view buffer(reinterpret_cast<const char*>(data + 1), size - 1);
  switch (data[0] % 7) {
    case 0:
      (void)proto::DecodeReport(buffer);
      break;
    case 1:
      (void)proto::DecodeCandidateRequest(buffer);
      break;
    case 2:
      (void)proto::DecodeLengthRequest(buffer);
      break;
    case 3:
      (void)proto::DecodeSubShapeRequest(buffer);
      break;
    case 4:
      (void)proto::DecodeClassRefineRequest(buffer);
      break;
    case 5:
      WalkPrimitives(buffer);
      break;
    default:
      BatchRoundTrip(buffer);
      break;
  }
  return 0;
}
