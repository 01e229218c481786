/// \file
/// Module `net` — the wire layer between `privshape_collectord` and its
/// clients: length-prefixed frames over TCP carrying the handshake and
/// round-lifecycle messages (hello / round-advertise / batch-upload /
/// round-done / complete). Framing reuses proto::Codec for every body, so
/// the collector's report and request encodings travel unchanged inside
/// frames. Invariant: no frame, however hostile, can make a decoder
/// allocate more than kMaxFramePayload bytes or crash — every malformed
/// input surfaces as a clean Status.
///
/// Frame layout (all little-endian):
///   [u32 payload_len][payload]
///   payload = [varint msg_type][message body]
/// payload_len counts the whole payload (type varint included) and must
/// be in (0, kMaxFramePayload]; a violating prefix is a protocol error
/// detected before any payload allocation.

#ifndef PRIVSHAPE_NET_FRAME_H_
#define PRIVSHAPE_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "protocol/messages.h"
#include "series/sequence.h"

namespace privshape::net {

/// Version of the daemon <-> client wire protocol, exchanged in the
/// handshake; a mismatch rejects the connection before any round runs.
inline constexpr uint64_t kNetVersion = 1;

/// "PSHP" — the first varint of every Hello. Random bytes or a stray
/// HTTP request hitting the port fail the handshake immediately.
inline constexpr uint64_t kHelloMagic = 0x50534850;

/// Hard cap on a frame payload. A hostile length prefix beyond this is
/// rejected without allocating (the fuzz suite's multi-GB-prefix case).
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// Message kinds carried in frames.
enum class MsgType : uint64_t {
  kHello = 1,        ///< client -> server: magic, version, fleet size
  kWelcome = 2,      ///< server -> client: version, conn id, config echo
  kRoundBegin = 3,   ///< server -> client: request + this conn's users
  kBatchUpload = 4,  ///< client -> server: framed ReportBatch
  kRoundDone = 5,    ///< client -> server: round barrier + error count
  kComplete = 6,     ///< server -> client: extracted shapes; close next
  kError = 7,        ///< server -> client: terminal error before drop
};

/// One decoded frame: the message type plus its body bytes (everything
/// after the type varint).
struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Appends one whole frame (length prefix, type varint, body) to `*out`.
void AppendFrame(MsgType type, std::string_view body, std::string* out);

/// Incremental frame assembly over an arbitrary byte stream: feed reads
/// of any size (frames may split at every byte boundary), pull complete
/// frames out. A bad length prefix or type varint is a permanent error —
/// the connection carrying the stream must be dropped.
class FrameReader {
 public:
  /// `max_payload` caps accepted frames (tests shrink it to probe the
  /// boundary; the daemon uses the default).
  explicit FrameReader(uint32_t max_payload = kMaxFramePayload);

  /// Appends raw bytes from the stream.
  void Append(std::string_view bytes);

  /// Extracts the next complete frame into `*out`. Returns true when a
  /// frame was produced, false when more bytes are needed. A malformed
  /// prefix (zero or oversized length, unparseable type varint) returns
  /// a non-OK status, after which the reader is poisoned: every further
  /// call fails with the same status.
  Result<bool> Next(Frame* out);

  /// Bytes currently buffered (fed but not yet consumed as frames).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;  ///< parsed-and-released prefix of buffer_
  Status error_;         ///< sticky protocol error
};

// --- Handshake and round-lifecycle messages ------------------------------

/// Client -> server greeting. `fleet_users` is the total simulated-device
/// count this client believes in; the daemon requires every connection to
/// agree with its own --users so a misconfigured loadgen fails loudly in
/// the handshake instead of silently skewing the population split.
struct HelloMsg {
  uint64_t version = kNetVersion;
  uint64_t fleet_users = 0;

  bool operator==(const HelloMsg& o) const {
    return version == o.version && fleet_users == o.fleet_users;
  }
};

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(std::string_view body);

/// Server -> client handshake reply: the connection id plus an echo of
/// the daemon's run parameters. The loadgen refuses a welcome whose
/// version, user count or seed differs from its own, or that announces
/// classes (num_classes > 0) to an unlabeled fleet; it does not check
/// epsilon.
struct WelcomeMsg {
  uint64_t version = kNetVersion;
  uint64_t conn_id = 0;
  uint64_t num_users = 0;
  uint64_t num_classes = 0;
  uint64_t seed = 0;
  double epsilon = 0.0;

  bool operator==(const WelcomeMsg& o) const {
    return version == o.version && conn_id == o.conn_id &&
           num_users == o.num_users && num_classes == o.num_classes &&
           seed == o.seed && epsilon == o.epsilon;
  }
};

std::string EncodeWelcome(const WelcomeMsg& msg);
Result<WelcomeMsg> DecodeWelcome(std::string_view body);

/// Server -> client round advertisement: the round id, the stage kind,
/// the stage's encoded broadcast request (LengthRequest /
/// SubShapeRequest / CandidateRequest / ClassRefineRequest bytes,
/// unchanged from the in-process protocol), and the user ids this
/// connection must answer for.
struct RoundBeginMsg {
  uint64_t round_id = 0;
  proto::ReportKind kind = proto::ReportKind::kLength;
  std::string request;
  std::vector<uint64_t> users;

  bool operator==(const RoundBeginMsg& o) const {
    return round_id == o.round_id && kind == o.kind &&
           request == o.request && users == o.users;
  }
};

std::string EncodeRoundBegin(const RoundBeginMsg& msg);
Result<RoundBeginMsg> DecodeRoundBegin(std::string_view body);

/// Client -> server report upload: one proto::ReportBatch, each report
/// length-prefixed inside the body. Encoded straight from the batch's
/// flat buffer; decoded as borrowed views so the daemon re-assembles a
/// ReportBatch without copying report bytes twice.
std::string EncodeBatchUpload(uint64_t round_id,
                              const proto::ReportBatch& batch);

/// Decoded upload: `reports` are views into the frame body the caller
/// passed — they live only as long as that buffer.
struct BatchUploadView {
  uint64_t round_id = 0;
  std::vector<std::string_view> reports;
};

Result<BatchUploadView> DecodeBatchUpload(std::string_view body);

/// Client -> server round barrier: how many assigned users were answered
/// and how many failed client-side (never produced a report).
struct RoundDoneMsg {
  uint64_t round_id = 0;
  uint64_t answered = 0;
  uint64_t client_errors = 0;

  bool operator==(const RoundDoneMsg& o) const {
    return round_id == o.round_id && answered == o.answered &&
           client_errors == o.client_errors;
  }
};

std::string EncodeRoundDone(const RoundDoneMsg& msg);
Result<RoundDoneMsg> DecodeRoundDone(std::string_view body);

/// One extracted shape on the wire (label -1 = unlabeled run).
struct WireShape {
  Sequence shape;
  int label = -1;
  double frequency = 0.0;

  bool operator==(const WireShape& o) const {
    return shape == o.shape && label == o.label && frequency == o.frequency;
  }
};

/// Server -> client protocol end: the final extracted shapes, so a
/// loadgen can verify the run (--check) without any side channel.
struct CompleteMsg {
  uint64_t frequent_length = 0;
  std::vector<WireShape> shapes;

  bool operator==(const CompleteMsg& o) const {
    return frequent_length == o.frequent_length && shapes == o.shapes;
  }
};

std::string EncodeComplete(const CompleteMsg& msg);
Result<CompleteMsg> DecodeComplete(std::string_view body);

/// Server -> client terminal error, sent best-effort before the drop.
std::string EncodeError(std::string_view message);
Result<std::string> DecodeError(std::string_view body);

}  // namespace privshape::net

#endif  // PRIVSHAPE_NET_FRAME_H_
