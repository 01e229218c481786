#include "collector/loadgen.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "net/frame.h"
#include "protocol/round_context.h"
#include "protocol/session.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::collector {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What one connection thread produced.
struct ConnOutcome {
  net::CompleteMsg complete;
  size_t rounds = 0;
  size_t reports_sent = 0;
  size_t client_errors = 0;
  size_t bytes_up = 0;
  size_t bytes_down = 0;
  /// (stage name, RoundBegin->RoundDone nanoseconds) per served round.
  std::vector<std::pair<std::string, uint64_t>> round_latency;
};

/// Protocol-stage name of a round, derived from its report kind and how
/// many selection rounds this connection has already served: the daemon
/// broadcasts P_c levels in order, so the per-connection count IS the
/// trie level.
std::string StageName(proto::ReportKind kind, size_t selection_rounds) {
  switch (kind) {
    case proto::ReportKind::kLength:
      return "Pa";
    case proto::ReportKind::kSubShape:
      return "Pb";
    case proto::ReportKind::kSelection:
      return "Pc.level" + std::to_string(selection_rounds);
    case proto::ReportKind::kRefinement:
      return "Pd";
    case proto::ReportKind::kClassRefine:
      return "Pe";
  }
  return "unknown";
}

/// Blocks until the next whole frame arrives (reads bounded by the
/// socket's SO_RCVTIMEO). A server-sent Error frame is surfaced as the
/// daemon's message, not as a framing failure.
Result<net::Frame> ReadFrame(int fd, net::FrameReader* reader,
                             size_t* bytes_down) {
  char buf[64 * 1024];
  while (true) {
    net::Frame frame;
    auto next = reader->Next(&frame);
    if (!next.ok()) return next.status();
    if (*next) {
      if (frame.type == net::MsgType::kError) {
        auto message = net::DecodeError(frame.payload);
        return Status::Internal(
            "server error: " +
            (message.ok() ? *message : message.status().message()));
      }
      return frame;
    }
    auto read = ReadSome(fd, buf, sizeof(buf));
    if (!read.ok()) return read.status();
    if (*read == 0) {
      return Status::Internal("server closed the connection");
    }
    *bytes_down += *read;
    reader->Append(std::string_view(buf, *read));
  }
}

Status SendFrame(int fd, net::MsgType type, std::string_view body,
                 size_t* bytes_up) {
  std::string frame;
  net::AppendFrame(type, body, &frame);
  *bytes_up += frame.size();
  return WriteAll(fd, frame);
}

/// One connection's whole lifecycle: handshake, rounds, Complete.
Result<ConnOutcome> RunConnection(const ClientFleet& fleet,
                                  const LoadgenOptions& options) {
  auto connected = TcpConnect(options.host, options.port);
  if (!connected.ok()) return connected.status();
  UniqueFd fd = std::move(*connected);
  PRIVSHAPE_RETURN_IF_ERROR(SetNoDelay(fd.get()));
  PRIVSHAPE_RETURN_IF_ERROR(
      SetRecvTimeout(fd.get(), options.timeout_seconds));

  ConnOutcome outcome;
  net::FrameReader reader;

  net::HelloMsg hello;
  hello.fleet_users = fleet.num_users();
  PRIVSHAPE_RETURN_IF_ERROR(SendFrame(fd.get(), net::MsgType::kHello,
                                      net::EncodeHello(hello),
                                      &outcome.bytes_up));
  auto welcome_frame = ReadFrame(fd.get(), &reader, &outcome.bytes_down);
  if (!welcome_frame.ok()) return welcome_frame.status();
  if (welcome_frame->type != net::MsgType::kWelcome) {
    return Status::Internal("expected Welcome, got frame type " +
                            std::to_string(static_cast<uint64_t>(
                                welcome_frame->type)));
  }
  auto welcome = net::DecodeWelcome(welcome_frame->payload);
  if (!welcome.ok()) return welcome.status();
  // The handshake echo is the last line of defense of the determinism
  // contract: a daemon configured for a different fleet must fail here,
  // not produce silently different shapes.
  if (welcome->version != net::kNetVersion) {
    return Status::FailedPrecondition(
        "protocol version mismatch: daemon speaks v" +
        std::to_string(welcome->version));
  }
  if (welcome->num_users != fleet.num_users()) {
    return Status::FailedPrecondition(
        "daemon runs " + std::to_string(welcome->num_users) +
        " users, fleet has " + std::to_string(fleet.num_users()));
  }
  if (welcome->seed != fleet.seed()) {
    return Status::FailedPrecondition(
        "daemon seed " + std::to_string(welcome->seed) +
        " != fleet seed " + std::to_string(fleet.seed()));
  }
  if (welcome->num_classes > 0 && !fleet.labeled()) {
    return Status::FailedPrecondition(
        "daemon serves classification (num_classes=" +
        std::to_string(welcome->num_classes) + ") but the fleet is unlabeled");
  }

  size_t batch_size = options.batch_size > 0 ? options.batch_size : 1;
  auto block = std::make_unique<ClientFleet::SessionBlock>();
  size_t selection_rounds = 0;
  while (true) {
    auto frame = ReadFrame(fd.get(), &reader, &outcome.bytes_down);
    if (!frame.ok()) return frame.status();
    if (frame->type == net::MsgType::kComplete) {
      auto complete = net::DecodeComplete(frame->payload);
      if (!complete.ok()) return complete.status();
      outcome.complete = std::move(*complete);
      return outcome;
    }
    if (frame->type != net::MsgType::kRoundBegin) {
      return Status::Internal(
          "expected RoundBegin or Complete, got frame type " +
          std::to_string(static_cast<uint64_t>(frame->type)));
    }
    auto round = net::DecodeRoundBegin(frame->payload);
    if (!round.ok()) return round.status();
    // The client-observed latency clock starts here: the round is in
    // hand, everything until RoundDone is this connection's work.
    uint64_t round_start_ns = NowNs();
    std::string stage = StageName(round->kind, selection_rounds);
    if (round->kind == proto::ReportKind::kSelection) ++selection_rounds;
    telemetry::TraceSpan round_span(telemetry::GlobalTrace(), stage,
                                    "client");
    // The shared context every assigned user answers against, built from
    // the broadcast bytes exactly as the in-process coordinator builds it.
    auto ctx = proto::RoundContext::FromRequest(round->kind, round->request,
                                                fleet.metric());
    if (!ctx.ok()) return ctx.status();

    // Sessions are built a block ahead of answering, so the whole
    // assignment is checked before the first one is built.
    for (uint64_t user : round->users) {
      if (user >= fleet.num_users()) {
        return Status::Internal("assigned out-of-range user " +
                                std::to_string(user));
      }
    }

    // Same answer path as the in-process stripes: one scratch, one flat
    // batch buffer and one session block reused across the assignment,
    // answered in assignment order.
    proto::AnswerScratch scratch;
    proto::ReportBatch batch;
    batch.Reserve(batch_size);
    size_t errors = 0;
    const std::vector<uint64_t>& users = round->users;
    for (size_t first = 0; first < users.size();
         first += ClientFleet::kSessionBlock) {
      size_t count = std::min(ClientFleet::kSessionBlock, users.size() - first);
      size_t ids[ClientFleet::kSessionBlock];
      std::copy(users.begin() + first, users.begin() + first + count, ids);
      fleet.MakeSessions(ids, count, ctx->kind(), ctx->domain(),
                         block.get());
      for (size_t j = 0; j < count; ++j) {
        Status answered = (*block)[j]->AnswerTo(*ctx, &scratch, &batch);
        if (!answered.ok()) {
          ++errors;
          continue;
        }
        if (batch.size() >= batch_size) {
          outcome.reports_sent += batch.size();
          PRIVSHAPE_RETURN_IF_ERROR(
              SendFrame(fd.get(), net::MsgType::kBatchUpload,
                        net::EncodeBatchUpload(round->round_id, batch),
                        &outcome.bytes_up));
          batch = proto::ReportBatch();
          batch.Reserve(batch_size);
        }
      }
    }
    if (!batch.empty()) {
      outcome.reports_sent += batch.size();
      PRIVSHAPE_RETURN_IF_ERROR(
          SendFrame(fd.get(), net::MsgType::kBatchUpload,
                    net::EncodeBatchUpload(round->round_id, batch),
                    &outcome.bytes_up));
    }
    net::RoundDoneMsg done;
    done.round_id = round->round_id;
    done.answered = round->users.size() - errors;
    done.client_errors = errors;
    PRIVSHAPE_RETURN_IF_ERROR(SendFrame(fd.get(), net::MsgType::kRoundDone,
                                        net::EncodeRoundDone(done),
                                        &outcome.bytes_up));
    round_span.Close();
    outcome.round_latency.emplace_back(std::move(stage),
                                       NowNs() - round_start_ns);
    outcome.client_errors += errors;
    ++outcome.rounds;
  }
}

}  // namespace

Result<LoadgenOutcome> RunLoadgen(const ClientFleet& fleet,
                                  const LoadgenOptions& options) {
  if (options.connections == 0) {
    return Status::InvalidArgument("connections must be >= 1");
  }
  if (options.port == 0) {
    return Status::InvalidArgument("port must be set");
  }

  size_t n = options.connections;
  std::vector<ConnOutcome> outcomes(n);
  std::vector<Status> statuses(n, Status::Ok());
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        auto run = RunConnection(fleet, options);
        if (run.ok()) {
          outcomes[i] = std::move(*run);
        } else {
          statuses[i] = run.status();
        }
      } catch (const std::exception& e) {
        statuses[i] = Status::Internal(std::string("connection ") +
                                       std::to_string(i) + ": " + e.what());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "connection " + std::to_string(i) +
                                            ": " + statuses[i].message());
    }
  }

  // The Complete broadcast is one encode fanned out to every connection;
  // any divergence means the transport corrupted it.
  for (size_t i = 1; i < n; ++i) {
    if (!(outcomes[i].complete == outcomes[0].complete)) {
      return Status::Internal("divergent Complete broadcasts across " +
                              std::to_string(n) + " connections");
    }
  }

  LoadgenOutcome total;
  total.result.frequent_length =
      static_cast<int>(outcomes[0].complete.frequent_length);
  total.result.shapes.reserve(outcomes[0].complete.shapes.size());
  for (const auto& shape : outcomes[0].complete.shapes) {
    core::ShapeCandidate candidate;
    candidate.shape = shape.shape;
    candidate.frequency = shape.frequency;
    candidate.label = shape.label;
    total.result.shapes.push_back(std::move(candidate));
  }
  for (const auto& outcome : outcomes) {
    total.rounds = std::max(total.rounds, outcome.rounds);
    total.reports_sent += outcome.reports_sent;
    total.client_errors += outcome.client_errors;
    total.bytes_up += outcome.bytes_up;
    total.bytes_down += outcome.bytes_down;
  }

  // Fold every connection's per-round samples into one histogram per
  // stage (first-appearance order = protocol order, since connection 0
  // serves every round) and derive the client-observed percentiles.
  std::vector<std::string> stage_order;
  std::map<std::string, std::unique_ptr<telemetry::Histogram>> by_stage;
  for (const auto& outcome : outcomes) {
    for (const auto& [stage, ns] : outcome.round_latency) {
      auto [it, inserted] = by_stage.try_emplace(stage, nullptr);
      if (inserted) {
        it->second = std::make_unique<telemetry::Histogram>();
        stage_order.push_back(stage);
      }
      it->second->Record(ns);
    }
  }
  total.stage_latency.reserve(stage_order.size());
  for (const std::string& stage : stage_order) {
    telemetry::HistogramSnapshot snap = by_stage[stage]->Snapshot();
    StageLatency lat;
    lat.stage = stage;
    lat.samples = snap.count;
    lat.p50_ns = snap.Quantile(0.50);
    lat.p95_ns = snap.Quantile(0.95);
    lat.p99_ns = snap.Quantile(0.99);
    lat.max_ns = snap.max;
    lat.mean_ns = snap.Mean();
    total.stage_latency.push_back(std::move(lat));
  }
  return total;
}

}  // namespace privshape::collector
