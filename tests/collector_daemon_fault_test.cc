/// Loopback fault injection against the CollectorDaemon: clients that
/// send garbage, lie in the handshake, upload stale or over-cap batches,
/// double-send the round barrier, vanish mid-round, or stall past the
/// deadline. In every case the protocol must complete with the surviving
/// clients, the failure must land in the right counter (protocol_errors /
/// stale_batches / deadline_drops / per-round client_errors), and a clean
/// re-run afterwards must still be byte-identical to the core pipeline.
/// The other way round, a scripted server that assigns an out-of-range
/// user must make the loadgen fail before it uploads anything.
/// Runs under the "concurrency" label so the TSan CI job hunts races in
/// the event loop + drainer-thread handoff.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/shapes_io.h"
#include "common/rng.h"
#include "common/socket.h"
#include "core/privshape.h"
#include "net/frame.h"
#include "protocol/messages.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorDaemon;
using collector::CollectorMetrics;
using collector::DaemonOptions;
using collector::LoadgenOptions;
using core::MechanismConfig;

constexpr size_t kUsers = 600;

Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double u = rng.Uniform();
  if (u < 0.6) return {0, 1, 2};
  if (u < 0.9) return {2, 1, 0};
  return {1, 0, 1};
}

MechanismConfig TestConfig() {
  MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.seed = 23;
  return config;
}

ClientFleet TestFleet(const MechanismConfig& config) {
  return ClientFleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
}

// --- Raw scripted-client plumbing ---------------------------------------

Result<net::Frame> ReadFrameBlocking(int fd, net::FrameReader* reader) {
  char buf[4096];
  while (true) {
    net::Frame frame;
    auto next = reader->Next(&frame);
    if (!next.ok()) return next.status();
    if (*next) return frame;
    auto n = ReadSome(fd, buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::Internal("connection closed");
    reader->Append(std::string_view(buf, *n));
  }
}

Status SendFrameTo(int fd, net::MsgType type, std::string_view body) {
  std::string frame;
  net::AppendFrame(type, body, &frame);
  return WriteAll(fd, frame);
}

Result<UniqueFd> ConnectAndHandshake(uint16_t port,
                                     net::FrameReader* reader,
                                     uint64_t fleet_users = kUsers) {
  auto fd = TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  PRIVSHAPE_RETURN_IF_ERROR(SetRecvTimeout(fd->get(), 30.0));
  net::HelloMsg hello;
  hello.fleet_users = fleet_users;
  PRIVSHAPE_RETURN_IF_ERROR(
      SendFrameTo(fd->get(), net::MsgType::kHello, net::EncodeHello(hello)));
  auto welcome = ReadFrameBlocking(fd->get(), reader);
  if (!welcome.ok()) return welcome.status();
  if (welcome->type != net::MsgType::kWelcome) {
    return Status::Internal("expected Welcome, got type " +
                            std::to_string(static_cast<uint64_t>(
                                welcome->type)));
  }
  return fd;
}

/// Handshakes and then follows the rounds with a caller-chosen behavior
/// until the daemon completes, drops the connection, or errors it out.
/// Returns the number of rounds seen.
size_t RunScripted(
    uint16_t port,
    const std::function<Status(int fd, const net::RoundBeginMsg&)>&
        on_round) {
  net::FrameReader reader;
  auto fd = ConnectAndHandshake(port, &reader);
  if (!fd.ok()) return 0;
  size_t rounds = 0;
  while (true) {
    auto frame = ReadFrameBlocking(fd->get(), &reader);
    if (!frame.ok()) return rounds;  // dropped or closed: scripted exit
    if (frame->type == net::MsgType::kComplete) return rounds;
    if (frame->type == net::MsgType::kError) continue;  // drop follows
    if (frame->type != net::MsgType::kRoundBegin) return rounds;
    auto round = net::DecodeRoundBegin(frame->payload);
    if (!round.ok()) return rounds;
    ++rounds;
    if (!on_round(fd->get(), *round).ok()) return rounds;
  }
}

/// Starts a daemon plus an honest single-connection loadgen thread, runs
/// `fault` inline against the same port, and returns the daemon's result.
struct FaultRun {
  Result<core::MechanismResult> served = Status::Internal("not run");
  Result<collector::LoadgenOutcome> loadgen = Status::Internal("not run");
  CollectorMetrics metrics;
  collector::DaemonStats stats;
};

FaultRun RunWithFault(const MechanismConfig& config, const ClientFleet& fleet,
                      size_t min_clients, double round_deadline,
                      const std::function<void(uint16_t port)>& fault,
                      bool fault_before_loadgen = false) {
  DaemonOptions options;
  options.port = 0;
  options.min_clients = min_clients;
  options.num_drainers = 2;
  options.accept_timeout_seconds = 60.0;
  options.round_deadline_seconds = round_deadline;
  CollectorDaemon daemon(config, fleet.num_users(), options);
  FaultRun run;
  Status started = daemon.Start();
  if (!started.ok()) {
    run.served = started;
    return run;
  }
  uint16_t port = daemon.port();
  std::thread serve([&] { run.served = daemon.Serve(&run.metrics); });
  // Some scenarios need the fault fully processed before the honest
  // client arrives (so round one deterministically excludes it).
  if (fault_before_loadgen) fault(port);
  std::thread honest([&] {
    LoadgenOptions client;
    client.port = port;
    client.connections = 1;
    client.batch_size = 64;
    client.timeout_seconds = 120.0;
    run.loadgen = collector::RunLoadgen(fleet, client);
  });
  if (!fault_before_loadgen) fault(port);
  honest.join();
  serve.join();
  run.stats = daemon.stats();
  return run;
}

// --- Scenarios -----------------------------------------------------------

TEST(CollectorDaemonFaultTest, GarbageBeforeHandshakeIsDroppedAndCounted) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/1, /*round_deadline=*/60.0,
      [](uint16_t port) {
        auto fd = TcpConnect("127.0.0.1", port);
        ASSERT_TRUE(fd.ok()) << fd.status();
        ASSERT_TRUE(SetRecvTimeout(fd->get(), 30.0).ok());
        // A stray HTTP client: the "length prefix" decodes to ~0.5 GB,
        // rejected before any allocation; the connection is dropped.
        ASSERT_TRUE(
            WriteAll(fd->get(), "GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
        char buf[4096];
        while (true) {  // drain until the daemon resets the connection
          auto n = ReadSome(fd->get(), buf, sizeof(buf));
          if (!n.ok() || *n == 0) break;
        }
      },
      /*fault_before_loadgen=*/true);

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.protocol_errors, 1u);
  EXPECT_GE(run.stats.disconnects, 1u);
  EXPECT_EQ(run.stats.handshakes, 1u);  // only the honest client

  // The garbage connection never handshaked, so it was never assigned
  // users: full parity with the core pipeline must survive the attack.
  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(collector::SameShapes(*expected, *run.served));
  EXPECT_TRUE(collector::SameShapes(*expected, run.loadgen->result));
}

TEST(CollectorDaemonFaultTest, FleetSizeMismatchHelloIsRejected) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/1, /*round_deadline=*/60.0,
      [](uint16_t port) {
        net::FrameReader reader;
        auto fd = ConnectAndHandshake(port, &reader, /*fleet_users=*/999);
        // The daemon must refuse the handshake (Error frame, then close),
        // so ConnectAndHandshake cannot have returned a Welcome.
        EXPECT_FALSE(fd.ok());
      },
      /*fault_before_loadgen=*/true);

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.protocol_errors, 1u);
  EXPECT_EQ(run.stats.handshakes, 1u);
}

TEST(CollectorDaemonFaultTest, UnknownFrameKindAfterHandshakeDrops) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/60.0,
      [](uint16_t port) {
        // Participate in the handshake and wait for an assignment, then
        // answer with a message kind the protocol has never heard of.
        // Sending it mid-round keeps the scenario deterministic: the
        // honest client is already counted toward min_clients, so the
        // drop cannot stall the accept barrier.
        size_t rounds = RunScripted(
            port, [](int fd, const net::RoundBeginMsg&) {
              return SendFrameTo(fd, static_cast<net::MsgType>(42),
                                 "mystery");
            });
        EXPECT_EQ(rounds, 1u);
      });

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.protocol_errors, 1u);
  EXPECT_GE(run.stats.disconnects, 1u);
}

TEST(CollectorDaemonFaultTest, DisconnectMidRoundCompletesWithSurvivors) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/60.0,
      [](uint16_t port) {
        size_t rounds = RunScripted(port, [](int, const net::RoundBeginMsg&) {
          // Receive the first assignment, then vanish without a word.
          return Status::Internal("disconnect now");
        });
        EXPECT_EQ(rounds, 1u);
      });

  // The round must complete with the honest survivor's reports, the
  // protocol must run to the end, and the defectors' users must be
  // accounted as client errors in round one.
  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.disconnects, 1u);
  ASSERT_FALSE(run.metrics.rounds.empty());
  EXPECT_GT(run.metrics.rounds[0].client_errors, 0u);
  EXPECT_EQ(run.stats.deadline_drops, 0u);
}

TEST(CollectorDaemonFaultTest, StaleUploadsAreDiscardedAndCounted) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/60.0,
      [](uint16_t port) {
        RunScripted(port, [](int fd, const net::RoundBeginMsg& round) {
          // A batch for the previous round: must be discarded (counted
          // stale), never aggregated, and must not kill the connection.
          proto::ReportBatch stale;
          stale.AppendEncoded("not-a-report");
          PRIVSHAPE_RETURN_IF_ERROR(
              SendFrameTo(fd, net::MsgType::kBatchUpload,
                          net::EncodeBatchUpload(round.round_id - 1, stale)));
          // Then barrier honestly, declaring every assigned user failed.
          net::RoundDoneMsg done;
          done.round_id = round.round_id;
          done.answered = 0;
          done.client_errors = round.users.size();
          return SendFrameTo(fd, net::MsgType::kRoundDone,
                             net::EncodeRoundDone(done));
        });
      });

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.stale_batches, 1u);
  EXPECT_EQ(run.stats.protocol_errors, 0u);  // stale != violation
  ASSERT_FALSE(run.metrics.rounds.empty());
  EXPECT_GT(run.metrics.rounds[0].client_errors, 0u);
}

TEST(CollectorDaemonFaultTest, OverCapUploadDropsConnection) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/60.0,
      [](uint16_t port) {
        size_t rounds = RunScripted(
            port, [](int fd, const net::RoundBeginMsg& round) {
              // One report more than the assignment: the cap is the only
              // thing standing between a duplicate-happy client and
              // double-counted estimates, so the connection must die.
              proto::ReportBatch flood;
              for (size_t i = 0; i <= round.users.size(); ++i) {
                flood.AppendEncoded("x");
              }
              return SendFrameTo(
                  fd, net::MsgType::kBatchUpload,
                  net::EncodeBatchUpload(round.round_id, flood));
            });
        EXPECT_EQ(rounds, 1u);
      });

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.protocol_errors, 1u);
  EXPECT_GE(run.stats.disconnects, 1u);
  ASSERT_FALSE(run.metrics.rounds.empty());
  EXPECT_GT(run.metrics.rounds[0].client_errors, 0u);
}

TEST(CollectorDaemonFaultTest, DuplicateRoundDoneDropsConnection) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/60.0,
      [](uint16_t port) {
        RunScripted(port, [](int fd, const net::RoundBeginMsg& round) {
          net::RoundDoneMsg done;
          done.round_id = round.round_id;
          done.answered = 0;
          done.client_errors = round.users.size();
          std::string body = net::EncodeRoundDone(done);
          PRIVSHAPE_RETURN_IF_ERROR(
              SendFrameTo(fd, net::MsgType::kRoundDone, body));
          return SendFrameTo(fd, net::MsgType::kRoundDone, body);
        });
      });

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.protocol_errors, 1u);
}

TEST(CollectorDaemonFaultTest, StallPastDeadlineIsDroppedRoundCompletes) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(
      config, fleet, /*min_clients=*/2, /*round_deadline=*/1.5,
      [](uint16_t port) {
        size_t rounds = RunScripted(port, [](int, const net::RoundBeginMsg&) {
          // Say nothing, send nothing: just keep the socket open. The
          // daemon's deadline must cut us loose (read returns EOF).
          return Status::Ok();
        });
        EXPECT_EQ(rounds, 1u);
      });

  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  EXPECT_GE(run.stats.deadline_drops, 1u);
  EXPECT_GE(run.stats.disconnects, 1u);
  ASSERT_FALSE(run.metrics.rounds.empty());
  EXPECT_GT(run.metrics.rounds[0].client_errors, 0u);
}

TEST(CollectorDaemonFaultTest, CleanRerunAfterFaultsMatchesCore) {
  // Faulty runs leave no residue: a fresh daemon + clean loadgen right
  // after the fault suite still satisfies the byte-identical contract.
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  FaultRun run = RunWithFault(config, fleet, /*min_clients=*/1,
                              /*round_deadline=*/60.0, [](uint16_t) {});
  ASSERT_TRUE(run.served.ok()) << run.served.status();
  ASSERT_TRUE(run.loadgen.ok()) << run.loadgen.status();
  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(collector::SameShapes(*expected, *run.served));
  EXPECT_TRUE(collector::SameShapes(*expected, run.loadgen->result));
  EXPECT_EQ(run.stats.protocol_errors, 0u);
  EXPECT_EQ(run.stats.disconnects, 0u);
}

TEST(CollectorDaemonFaultTest, LoadgenRejectsOutOfRangeAssignmentUpFront) {
  // A hostile or buggy daemon assigns user id num_users after a run of
  // valid ids longer than a BatchUpload: the loadgen must refuse the
  // whole round before answering anyone, so no report leaves it.
  MechanismConfig config = TestConfig();
  ClientFleet fleet = TestFleet(config);
  auto listener = TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok()) << port.status();

  std::vector<net::MsgType> received;  // client frames after Hello
  Status served = Status::Internal("not run");
  std::thread server([&] {
    served = [&]() -> Status {
      auto conn = TcpAccept(listener->get());
      if (!conn.ok()) return conn.status();
      PRIVSHAPE_RETURN_IF_ERROR(SetRecvTimeout(conn->get(), 30.0));
      net::FrameReader reader;
      auto hello = ReadFrameBlocking(conn->get(), &reader);
      if (!hello.ok()) return hello.status();
      if (hello->type != net::MsgType::kHello) {
        return Status::Internal("expected Hello");
      }
      net::WelcomeMsg welcome;
      welcome.num_users = kUsers;
      welcome.seed = config.seed;
      welcome.epsilon = config.epsilon;
      PRIVSHAPE_RETURN_IF_ERROR(SendFrameTo(
          conn->get(), net::MsgType::kWelcome, net::EncodeWelcome(welcome)));
      net::RoundBeginMsg round;
      round.round_id = 1;
      round.kind = proto::ReportKind::kLength;
      round.request = proto::EncodeLengthRequest(
          {config.ell_low, config.ell_high, config.epsilon});
      for (uint64_t user = 0; user < 40; ++user) round.users.push_back(user);
      round.users.push_back(kUsers);
      PRIVSHAPE_RETURN_IF_ERROR(SendFrameTo(conn->get(),
                                            net::MsgType::kRoundBegin,
                                            net::EncodeRoundBegin(round)));
      // Everything the client sends until it hangs up.
      while (true) {
        auto frame = ReadFrameBlocking(conn->get(), &reader);
        if (!frame.ok()) return Status::Ok();
        received.push_back(frame->type);
      }
    }();
  });

  LoadgenOptions options;
  options.port = *port;
  options.connections = 1;
  options.batch_size = 4;
  options.timeout_seconds = 30.0;
  auto run = collector::RunLoadgen(fleet, options);
  server.join();
  ASSERT_TRUE(served.ok()) << served;
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("assigned out-of-range user " +
                                        std::to_string(kUsers)),
            std::string::npos)
      << run.status();
  for (net::MsgType type : received) {
    EXPECT_NE(type, net::MsgType::kBatchUpload);
  }
}

}  // namespace
}  // namespace privshape
