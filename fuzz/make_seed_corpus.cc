/// \file
/// Seed-corpus generator for the fuzz harnesses: emits small valid (and
/// near-valid) inputs built with the real encoders, one subdirectory
/// per harness, so fuzzing starts at the interesting surface instead of
/// random noise. Checked-in binaries are avoided on purpose — CI and
/// the ctest smoke regenerate the corpus from this program, which keeps
/// seeds in lockstep with the wire format.
///
/// Usage: make_seed_corpus OUTDIR
/// Writes OUTDIR/{frame_reader,codec,csv,candidate_table}/NNN_name files.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "net/frame.h"
#include "protocol/codec.h"
#include "protocol/messages.h"

namespace net = privshape::net;
namespace proto = privshape::proto;
using privshape::Sequence;

namespace {

bool WriteSeed(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "make_seed_corpus: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  std::fprintf(stderr, "make_seed_corpus: cannot mkdir %s\n", path.c_str());
  return false;
}

/// Prefix byte steering the harness (chunking pattern / decoder pick),
/// then the payload.
std::string Steered(uint8_t selector, const std::string& payload) {
  std::string out(1, static_cast<char>(selector));
  out += payload;
  return out;
}

std::string SampleReportBytes(proto::ReportKind kind) {
  proto::Report report;
  report.kind = kind;
  report.level = 3;
  report.value = 17;
  if (kind == proto::ReportKind::kClassRefine) {
    report.bits = {1, 0, 1, 1, 0, 0};
  }
  return proto::EncodeReport(report);
}

bool EmitFrameReaderSeeds(const std::string& dir) {
  // One valid frame of every message type, each under all four chunking
  // patterns via the selector byte.
  std::vector<std::pair<std::string, std::string>> frames;

  net::HelloMsg hello;
  hello.fleet_users = 20000;
  std::string f;
  net::AppendFrame(net::MsgType::kHello, net::EncodeHello(hello), &f);
  frames.emplace_back("hello", f);

  net::WelcomeMsg welcome;
  welcome.conn_id = 7;
  welcome.num_users = 20000;
  welcome.num_classes = 3;
  welcome.seed = 42;
  welcome.epsilon = 4.0;
  f.clear();
  net::AppendFrame(net::MsgType::kWelcome, net::EncodeWelcome(welcome), &f);
  frames.emplace_back("welcome", f);

  net::RoundBeginMsg begin;
  begin.round_id = 2;
  begin.kind = proto::ReportKind::kSelection;
  proto::CandidateRequest creq;
  creq.level = 2;
  creq.epsilon = 1.0;
  creq.candidates = {Sequence{0, 1, 2}, Sequence{2, 1, 0}};
  begin.request = proto::EncodeCandidateRequest(creq);
  begin.users = {0, 1, 2, 5, 8};
  f.clear();
  net::AppendFrame(net::MsgType::kRoundBegin, net::EncodeRoundBegin(begin),
                   &f);
  frames.emplace_back("round_begin", f);

  proto::ReportBatch batch;
  batch.AppendEncoded(SampleReportBytes(proto::ReportKind::kLength));
  batch.AppendEncoded(SampleReportBytes(proto::ReportKind::kSelection));
  batch.AppendEncoded(SampleReportBytes(proto::ReportKind::kClassRefine));
  f.clear();
  net::AppendFrame(net::MsgType::kBatchUpload,
                   net::EncodeBatchUpload(2, batch), &f);
  frames.emplace_back("batch_upload", f);

  net::RoundDoneMsg done;
  done.round_id = 2;
  done.answered = 4;
  done.client_errors = 1;
  f.clear();
  net::AppendFrame(net::MsgType::kRoundDone, net::EncodeRoundDone(done), &f);
  frames.emplace_back("round_done", f);

  net::CompleteMsg complete;
  complete.frequent_length = 8;
  net::WireShape shape;
  shape.shape = Sequence{0, 2, 1};
  shape.label = 1;
  shape.frequency = 0.25;
  complete.shapes.push_back(shape);
  f.clear();
  net::AppendFrame(net::MsgType::kComplete, net::EncodeComplete(complete),
                   &f);
  frames.emplace_back("complete", f);

  f.clear();
  net::AppendFrame(net::MsgType::kError, net::EncodeError("deadline"), &f);
  frames.emplace_back("error", f);

  // A back-to-back pair, so split points land across frame boundaries.
  std::string pair = frames[0].second + frames[4].second;
  frames.emplace_back("hello_then_done", pair);

  for (const auto& [name, bytes] : frames) {
    for (uint8_t chunking = 0; chunking < 4; ++chunking) {
      if (!WriteSeed(dir, "frame_" + name + "_c" + std::to_string(chunking),
                     Steered(chunking, bytes))) {
        return false;
      }
    }
  }
  return true;
}

bool EmitCodecSeeds(const std::string& dir) {
  bool ok = true;
  ok &= WriteSeed(dir, "report_length",
                  Steered(0, SampleReportBytes(proto::ReportKind::kLength)));
  ok &= WriteSeed(
      dir, "report_class",
      Steered(0, SampleReportBytes(proto::ReportKind::kClassRefine)));

  proto::CandidateRequest creq;
  creq.level = 4;
  creq.epsilon = 2.0;
  creq.candidates = {Sequence{0, 1, 0}, Sequence{1, 2, 3}, Sequence{3, 0}};
  ok &= WriteSeed(dir, "candidate_request",
                  Steered(1, proto::EncodeCandidateRequest(creq)));

  proto::LengthRequest lreq;
  lreq.ell_low = 2;
  lreq.ell_high = 16;
  lreq.epsilon = 1.0;
  ok &= WriteSeed(dir, "length_request",
                  Steered(2, proto::EncodeLengthRequest(lreq)));

  proto::SubShapeRequest sreq;
  sreq.alphabet = 4;
  sreq.ell_s = 3;
  sreq.epsilon = 1.0;
  sreq.allow_repeats = true;
  ok &= WriteSeed(dir, "subshape_request",
                  Steered(3, proto::EncodeSubShapeRequest(sreq)));

  proto::ClassRefineRequest xreq;
  xreq.epsilon = 2.0;
  xreq.num_classes = 3;
  xreq.candidates = {Sequence{0, 1}, Sequence{1, 0}};
  ok &= WriteSeed(dir, "class_refine_request",
                  Steered(4, proto::EncodeClassRefineRequest(xreq)));

  // Primitive soup for the walker and the batch splitter.
  proto::Encoder enc;
  enc.PutVarint(300);
  enc.PutDouble(2.5);
  enc.PutString("abc");
  enc.PutVarint(0);
  std::string soup = enc.Release();
  ok &= WriteSeed(dir, "primitive_walk", Steered(5, soup));
  ok &= WriteSeed(dir, "batch_roundtrip",
                  Steered(6, SampleReportBytes(proto::ReportKind::kSubShape) +
                                 soup));
  return ok;
}

bool EmitCandidateTableSeeds(const std::string& dir) {
  // Format: selector (bits 0-1 the metric: 0 DTW, 1 SED, 2 Euclidean,
  // 3 Hausdorff; bit 2 prefix mode), the block byte (1 + byte %
  // (2 * kI16Lanes + 1) words), each word as length + symbols, then a run
  // of length-prefixed candidates. Seeds target the trie and the lane
  // arithmetic: mixed lengths, shared prefixes, empties, duplicates,
  // exact ties, sibling runs wider than two lane blocks, blocks of mixed
  // words and the int16 range guard. Most seeds hold one word (block
  // byte 0).
  bool ok = true;
  auto seq = [](std::initializer_list<uint8_t> bytes) {
    return std::string(bytes.begin(), bytes.end());
  };
  auto one_word = [](uint8_t selector, const std::string& payload) {
    return Steered(selector, std::string(1, '\0') + payload);
  };
  // DTW, no prefix: candidates of lengths 1/3/3/1, word length 4.
  ok &= WriteSeed(dir, "mixed_lengths",
                  one_word(0, seq({4, 1, 2, 0, 3,            // word
                                   1, 3,                     // {3}
                                   3, 0, 1, 2,               // {0,1,2}
                                   3, 2, 2, 2,               // {2,2,2}
                                   1, 4})));                 // {4}
  // SED + prefix: word longer than every candidate.
  ok &= WriteSeed(dir, "sed_prefix",
                  one_word(5, seq({6, 0, 1, 2, 3, 4, 0,
                                   2, 1, 2,
                                   2, 0, 1,
                                   3, 4, 4, 4})));
  // Euclidean + prefix: mixed lengths pad the shorter word with its last
  // symbol, and a tie between the two {1, 2} candidates.
  ok &= WriteSeed(dir, "euclidean_prefix",
                  one_word(6, seq({4, 1, 2, 2, 0,
                                   2, 1, 2,
                                   5, 0, 0, 3, 3, 3,
                                   2, 1, 2,
                                   1, 2})));
  // Hausdorff, no prefix: an empty candidate (distance +infinity) first,
  // so the argmin must still move off index 0.
  ok &= WriteSeed(dir, "hausdorff_empty_first",
                  one_word(3, seq({3, 2, 0, 2,
                                   0,
                                   3, 2, 0, 2,
                                   1, 1,
                                   4, 0, 1, 2, 3})));
  // Empty word and an empty candidate: the degenerate DP branches.
  ok &= WriteSeed(dir, "empties",
                  one_word(0, seq({0,
                                   0,                        // empty candidate
                                   2, 1, 3,
                                   1, 0})));
  // Five identical candidates: all distances tie, argmin must stay 0.
  ok &= WriteSeed(dir, "all_ties",
                  one_word(1, seq({2, 2, 2,
                                   2, 1, 3, 2, 1, 3, 2, 1, 3,
                                   2, 1, 3, 2, 1, 3})));
  // 40 length-3 candidates over the byte extremes: a trie of four-way
  // sibling runs at every depth.
  const uint8_t kExtremes[] = {0, 1, 254, 255};
  std::string wide = seq({5, 0, 255, 1, 254, 3});
  for (size_t c = 0; c < 40; ++c) {
    wide.push_back(3);
    for (size_t j = 0; j < 3; ++j) {
      wide.push_back(static_cast<char>(kExtremes[(c >> (2 * j)) & 3]));
    }
  }
  ok &= WriteSeed(dir, "wide_group", one_word(0, wide));
  // All-255 word (n = 64) and candidate (m = 65): n + m = 129, the
  // first size past the int16 range guard.
  std::string guard(1, 64);
  guard.append(64, static_cast<char>(255));
  guard.push_back(65);
  guard.append(65, static_cast<char>(255));
  ok &= WriteSeed(dir, "guard_boundary", one_word(0, guard));
  // All-255 word against an all-0 candidate, 130 symbols each: a DTW
  // distance of 130 * 255, past INT16_MAX, which only the guard keeps
  // off the int16 lanes.
  std::string beyond(1, static_cast<char>(130));
  beyond.append(130, static_cast<char>(255));
  beyond.push_back(static_cast<char>(130));
  beyond.append(130, '\0');
  ok &= WriteSeed(dir, "past_int16", one_word(0, beyond));
  // The widest block the harness draws: 2 * kI16Lanes + 1 words.
  const size_t widest = 2 * privshape::simd::kI16Lanes + 1;
  // A P_c frontier at depth 11, DTW with the prefix reading: 18 parents
  // (no symbol repeated next to itself, as compressed words) x the 5
  // children that differ from each parent's last symbol, against up to
  // nine words from empty to longer than every candidate.
  const size_t frontier_words = std::min<size_t>(9, widest);
  std::string frontier(1, static_cast<char>(frontier_words - 1));
  for (size_t w = 0; w < frontier_words; ++w) {
    size_t length = (w * 7) % 17;
    frontier.push_back(static_cast<char>(length));
    for (size_t j = 0; j < length; ++j) {
      frontier.push_back(static_cast<char>((w + 2 * j) % 6));
    }
  }
  for (size_t parent = 0; parent < 18; ++parent) {
    std::string path;
    for (size_t j = 0; j < 10; ++j) {
      path.push_back(static_cast<char>((parent + j * (1 + parent % 5)) % 6));
      if (j > 0 && path[j] == path[j - 1]) path[j] = (path[j] + 1) % 6;
    }
    for (char next = 0; next < 6; ++next) {
      if (next == path.back()) continue;
      frontier.push_back(11);
      frontier += path;
      frontier.push_back(next);
    }
  }
  ok &= WriteSeed(dir, "trie_frontier", Steered(4, frontier));
  // SED over the widest block of words of 0..45 symbols over the whole
  // byte, against duplicates, a candidate that is a prefix of others and
  // an empty one.
  std::string block(1, static_cast<char>(widest - 1));
  for (size_t w = 0; w < widest; ++w) {
    size_t length = (w * 11) % 46;
    block.push_back(static_cast<char>(length));
    for (size_t j = 0; j < length; ++j) {
      block.push_back(static_cast<char>((w * 37 + j * 101) % 256));
    }
  }
  block += seq({3, 1, 2, 3,
                2, 1, 2,
                0,
                3, 1, 2, 3,
                5, 1, 2, 3, 4, 5});
  ok &= WriteSeed(dir, "mixed_block", Steered(1, block));
  return ok;
}

bool EmitCsvSeeds(const std::string& dir) {
  bool ok = true;
  ok &= WriteSeed(dir, "plain", "a,b,c\r\n1,2,3\r\n");
  ok &= WriteSeed(dir, "quoted",
                  "\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\r\nx,y,z\r\n");
  ok &= WriteSeed(dir, "bom_crlf", "\xEF\xBB\xBFh1,h2\r\n\r\n0.5,-3e4\r\n");
  ok &= WriteSeed(dir, "ragged", "a,b\r\n1\r\n1,2,3\r\n");
  ok &= WriteSeed(dir, "labels", "user,label\n0,2\n1,0\n2,1\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus OUTDIR\n");
    return 2;
  }
  std::string root = argv[1];
  if (!MakeDir(root)) return 1;
  struct Target {
    const char* name;
    bool (*emit)(const std::string&);
  };
  const Target targets[] = {
      {"frame_reader", EmitFrameReaderSeeds},
      {"codec", EmitCodecSeeds},
      {"csv", EmitCsvSeeds},
      {"candidate_table", EmitCandidateTableSeeds},
  };
  for (const auto& target : targets) {
    std::string dir = root + "/" + target.name;
    if (!MakeDir(dir) || !target.emit(dir)) return 1;
  }
  std::printf("make_seed_corpus: wrote seeds under %s\n", root.c_str());
  return 0;
}
