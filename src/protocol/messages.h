#ifndef PRIVSHAPE_PROTOCOL_MESSAGES_H_
#define PRIVSHAPE_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "series/sequence.h"

namespace privshape::proto {

/// Wire version stamped on every report so a deployed fleet can roll
/// forward without ambiguity.
inline constexpr uint64_t kWireVersion = 1;

/// Which stage produced a report.
enum class ReportKind : uint64_t {
  kLength = 1,       ///< P_a: GRR-perturbed clipped sequence length
  kSubShape = 2,     ///< P_b: (level, GRR-perturbed pair index)
  kSelection = 3,    ///< P_c: (level, EM-selected candidate index)
  kRefinement = 4,   ///< P_d (clustering): GRR candidate index
  kClassRefine = 5,  ///< P_e (classification): OUE candidate x class bits
};

/// The server's one kind -> debias dispatch: the estimated counts of a
/// round's integer `tally` over its `reports` accepted reports at budget
/// `epsilon`. Raw counts for kSelection, ldp::DebiasOueCounts of the set
/// bits per cell for kClassRefine, ldp::DebiasGrrCounts for the GRR kinds.
/// The in-process runner calls the same two debiases, so identical
/// integer tallies give byte-identical estimates.
std::vector<double> DebiasTally(ReportKind kind,
                                const std::vector<size_t>& tally,
                                size_t reports, double epsilon);

/// One user's report. Exactly one payload group is meaningful per kind:
///  kLength      -> value
///  kSubShape    -> level + value
///  kSelection   -> level + value
///  kRefinement  -> value (GRR)
///  kClassRefine -> bits (OUE over candidate x class cells)
struct Report {
  ReportKind kind = ReportKind::kLength;
  uint64_t level = 0;
  uint64_t value = 0;
  std::vector<uint8_t> bits;

  bool operator==(const Report& other) const {
    return kind == other.kind && level == other.level &&
           value == other.value && bits == other.bits;
  }
};

/// Serializes a report (version, kind, level, value, bits).
std::string EncodeReport(const Report& report);

/// Appends the serialized report to `*out` — the batched form: many
/// reports share one caller-owned buffer, so encoding a streaming batch
/// costs one allocation per batch, not one per report. Byte-identical
/// framing to EncodeReport.
void EncodeReportTo(const Report& report, std::string* out);

/// Parses a report into `*out`, reusing the capacity of `out->bits`, so
/// a drainer that decodes every report of a batch into one Report
/// allocates nothing once its bits have grown to the widest report.
/// Rejects unknown versions, unknown kinds, truncation and trailing
/// garbage with exactly the status DecodeReport returns. On success every
/// field of `*out` is the decoded one, whatever it held before; on error
/// `*out` is partly overwritten and must not be read. Borrows `buffer`
/// for the duration of the call only.
Status DecodeReportInto(std::string_view buffer, Report* out);

/// DecodeReportInto into a fresh Report.
Result<Report> DecodeReport(std::string_view buffer);

/// A flat batch of encoded reports: one contiguous byte buffer plus end
/// offsets, so producing a batch allocates O(1) times and ingesting it
/// decodes in-place views. This is the unit the streaming queues carry.
class ReportBatch {
 public:
  /// Encodes `report` onto the end of the buffer.
  void Append(const Report& report);

  /// Appends an already-encoded report verbatim (the daemon re-assembles
  /// uploaded batches from wire views without decoding them first).
  void AppendEncoded(std::string_view encoded) {
    buffer_.append(encoded.data(), encoded.size());
    ends_.push_back(buffer_.size());
  }

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// View of the i-th encoded report; valid until the next mutation.
  std::string_view view(size_t i) const {
    size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(buffer_).substr(begin, ends_[i] - begin);
  }

  /// Total encoded bytes across the batch.
  size_t bytes() const { return buffer_.size(); }

  /// Forgets the reports but keeps both buffers' capacity — a producer
  /// reuses one ReportBatch for its whole stripe.
  void Clear() {
    buffer_.clear();
    ends_.clear();
  }

  /// Pre-sizes for `reports` reports of ~`bytes_per_report` bytes.
  void Reserve(size_t reports, size_t bytes_per_report = 8) {
    ends_.reserve(reports);
    buffer_.reserve(reports * bytes_per_report);
  }

 private:
  std::string buffer_;
  std::vector<size_t> ends_;
};

/// Server -> client task descriptions. Candidates are symbol words; the
/// client matches locally and answers with a Report.
struct CandidateRequest {
  uint64_t level = 0;
  double epsilon = 0.0;
  std::vector<Sequence> candidates;

  bool operator==(const CandidateRequest& other) const {
    return level == other.level && epsilon == other.epsilon &&
           candidates == other.candidates;
  }
};

std::string EncodeCandidateRequest(const CandidateRequest& request);
Result<CandidateRequest> DecodeCandidateRequest(std::string_view buffer);

/// P_a broadcast: announce the clipped length range and the stage budget.
/// Encoded once per round — these are the bytes a wire deployment ships to
/// every P_a user, and what the collector's bytes_down metric accounts.
struct LengthRequest {
  int ell_low = 1;
  int ell_high = 1;
  double epsilon = 0.0;

  bool operator==(const LengthRequest& other) const {
    return ell_low == other.ell_low && ell_high == other.ell_high &&
           epsilon == other.epsilon;
  }
};

std::string EncodeLengthRequest(const LengthRequest& request);
Result<LengthRequest> DecodeLengthRequest(std::string_view buffer);

/// P_b broadcast: the announced trie height ell_s, the SAX alphabet, and
/// whether repeated adjacent symbols are legal (the "No Compression"
/// ablation).
struct SubShapeRequest {
  int alphabet = 0;
  int ell_s = 0;
  double epsilon = 0.0;
  bool allow_repeats = false;

  bool operator==(const SubShapeRequest& other) const {
    return alphabet == other.alphabet && ell_s == other.ell_s &&
           epsilon == other.epsilon && allow_repeats == other.allow_repeats;
  }
};

std::string EncodeSubShapeRequest(const SubShapeRequest& request);
Result<SubShapeRequest> DecodeSubShapeRequest(std::string_view buffer);

/// P_e broadcast (classification refinement, §V-E): the surviving
/// candidate shapes plus the class count. The client answers with an OUE
/// bit vector over the candidates.size() x num_classes cell grid.
struct ClassRefineRequest {
  double epsilon = 0.0;
  uint64_t num_classes = 0;
  std::vector<Sequence> candidates;

  bool operator==(const ClassRefineRequest& other) const {
    return epsilon == other.epsilon && num_classes == other.num_classes &&
           candidates == other.candidates;
  }
};

std::string EncodeClassRefineRequest(const ClassRefineRequest& request);
Result<ClassRefineRequest> DecodeClassRefineRequest(std::string_view buffer);

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_MESSAGES_H_
