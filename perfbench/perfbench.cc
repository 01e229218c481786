/// \file
/// privshape_perfbench: runs one benchmark workload and prints one JSON
/// document (metrics with units, correctness, build stamp) as its last
/// stdout line. perfbench/run.py builds and drives it; see
/// perfbench/README.md for the workloads and what each metric means.
///
///   privshape_perfbench --dataset trace --transport inproc --users 400000
///       --pool 24576 --setups 5 --seed 1 --seconds 10 --trace 0
///
/// Trace fleets are clustered (P_d), Symbols fleets self-labelled and
/// classified (P_e). Serving uses kThreads pool threads in process, or
/// kConnections loopback connections over TCP.
///
/// Set-up (raw-series synthesis, SAX transform of the word pool, fleet and
/// thread-pool construction) runs --setups times and is timed apart from
/// the protocol. The timed region then runs whole protocols back to back
/// for --seconds. Protocol run i uses the privacy seed DeriveSeed(seed, i):
/// the frequent length the server estimates, and with it the number of
/// P_c levels, depends on that seed (on Symbols it flips between two
/// near-equal modes), so a run covers many draws instead of resting on
/// one, and reports per-structure medians (GroupMedian). After the timed
/// region, every run's shapes are checked against the single-threaded
/// core::PrivShape on the same words and seed.
///
/// --trace 1 alternates instrumented and plain protocol runs, and adds a
/// pass over the other transport (in process or loopback TCP) so that every
/// layer is measured on the workload's own fleet.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/round_coordinator.h"
#include "collector/shapes_io.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/privshape.h"
#include "perfbench/layers.h"
#include "series/generators.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::perfbench {
namespace {

using collector::ClientFleet;
using collector::CollectorMetrics;

constexpr size_t kThreads = 2;      ///< in-process pool threads
constexpr size_t kConnections = 2;  ///< loopback TCP connections

struct Options {
  std::string dataset;    ///< "trace" or "symbols"
  bool classify = false;  ///< P_e on Symbols, P_d on Trace
  bool socket = false;    ///< loopback TCP instead of in process
  size_t users = 0;
  size_t pool = 0;
  size_t setups = 5;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string git_rev;
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- set-up

/// The workload's word pool: raw series synthesized exactly as
/// collector::GeneratedWordSource synthesizes users 0..n-1, then
/// SAX-transformed. The two steps run apart so each has its own time.
struct Pool {
  std::vector<Sequence> words;
  std::vector<int> labels;  ///< empty for clustering workloads
  double synth_s = 0.0;
  double transform_s = 0.0;
};

Result<Pool> BuildPool(const Options& opts) {
  bool symbols = opts.dataset == "symbols";
  auto classes = collector::GeneratedNumClasses(opts.dataset);
  if (!classes.ok()) return classes.status();
  size_t num_classes = static_cast<size_t>(*classes);
  uint64_t data_seed = DeriveSeed(opts.seed, 0x5eedda7aULL);
  series::GeneratorOptions gopts;
  core::TransformOptions transform;
  transform.t = symbols ? 6 : 4;
  transform.w = symbols ? 25 : 10;

  // Blocks of series, so the raw doubles never dominate peak memory.
  constexpr size_t kBlock = 256;
  Pool pool;
  pool.words.reserve(opts.pool);
  std::vector<std::vector<double>> raw;
  for (size_t begin = 0; begin < opts.pool; begin += kBlock) {
    size_t end = std::min(opts.pool, begin + kBlock);
    raw.clear();
    uint64_t t0 = NowNs();
    for (size_t i = begin; i < end; ++i) {
      Rng rng(DeriveSeed(data_seed, i));
      int label = static_cast<int>(i % num_classes);
      raw.push_back(
          symbols ? series::MakeSymbolsInstance(label, gopts, &rng).values
                  : series::MakeTraceInstance(label, gopts, &rng).values);
    }
    uint64_t t1 = NowNs();
    for (const auto& values : raw) {
      auto word = core::TransformSeries(values, transform);
      if (!word.ok()) return word.status();
      pool.words.push_back(std::move(*word));
    }
    pool.synth_s += Seconds(t1 - t0);
    pool.transform_s += Seconds(NowNs() - t1);
  }
  if (opts.classify) {
    for (size_t i = 0; i < opts.pool; ++i) {
      pool.labels.push_back(static_cast<int>(i % num_classes));
    }
  }
  return pool;
}

// ------------------------------------------------------------ one protocol

/// What one protocol run produced, on either transport.
struct Rep {
  uint64_t seed = 0;  ///< the run's privacy seed (config and fleet)
  core::MechanismResult result;
  CollectorMetrics metrics;
  telemetry::HistogramSnapshot ingest;  ///< this run's ConsumeBatch samples
  size_t attempted = 0;
  size_t accepted = 0;
  double wall_s = 0.0;  ///< first broadcast to MechanismResult
  double cpu_s = 0.0;   ///< process CPU time over the whole protocol run
  std::vector<std::pair<std::string, double>> rounds;  ///< label, seconds
  bool traced = false;
  std::optional<ProtocolLayers> layers;  ///< instrumented in-process runs
  // Loopback TCP runs only.
  collector::LoadgenOutcome loadgen;
  double handshake_s = 0.0;
};

telemetry::HistogramSnapshot IngestSnapshot() {
  // Every round folds its per-batch ingest histogram (the one RoundStats
  // percentiles come from) into this registry instrument.
  static telemetry::Histogram* hist =
      telemetry::Registry::Default().GetHistogram("collector_ingest_batch_ns");
  return hist->Snapshot();
}

telemetry::HistogramSnapshot Subtract(const telemetry::HistogramSnapshot& a,
                                      const telemetry::HistogramSnapshot& b) {
  telemetry::HistogramSnapshot d = a;
  for (size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
    d.buckets[i] -= b.buckets[i];
  }
  d.count -= b.count;
  d.sum -= b.sum;
  return d;
}

void FillFromMetrics(Rep* rep) {
  for (const auto& round : rep->metrics.rounds) {
    rep->attempted += round.users;
  }
  rep->accepted = rep->metrics.TotalAccepted();
  rep->wall_s = rep->metrics.total_seconds;
}

Result<Rep> RunInProcess(const core::MechanismConfig& config,
                         const ClientFleet& fleet, ThreadPool* pool,
                         LayerTracer* tracer,
                         telemetry::TraceRecorder* spans) {
  collector::RoundCoordinator coordinator(config, {}, pool);
  Rep rep;
  telemetry::HistogramSnapshot before = IngestSnapshot();
  Result<core::MechanismResult> result = Status::Internal("not run");
  if (tracer != nullptr) {
    tracer->BeginProtocol(fleet, spans);
    result = collector::DriveProtocol(config, fleet.num_users(),
                                      tracer->Runner(coordinator),
                                      &rep.metrics);
  } else {
    result = coordinator.Collect(fleet, &rep.metrics);
  }
  if (!result.ok()) return result.status();
  rep.ingest = Subtract(IngestSnapshot(), before);
  rep.result = std::move(*result);
  FillFromMetrics(&rep);
  if (tracer != nullptr) {
    rep.layers = tracer->TakeProtocol();
    rep.wall_s -= rep.layers->outside_s;
    for (const RoundLayers& round : rep.layers->rounds) {
      rep.rounds.emplace_back(round.label, round.span_s);
    }
  } else {
    for (const auto& round : rep.metrics.rounds) {
      rep.rounds.emplace_back(round.stage, round.seconds);
    }
  }
  return rep;
}

/// One protocol over loopback TCP: CollectorDaemon with one drainer on
/// this thread's event loop, RunLoadgen on a second thread.
Result<Rep> RunOverSocket(const core::MechanismConfig& config,
                          const ClientFleet& fleet) {
  collector::DaemonOptions dopts;
  dopts.port = 0;
  dopts.min_clients = kConnections;
  dopts.num_drainers = 1;
  dopts.accept_timeout_seconds = 60.0;
  dopts.round_deadline_seconds = 120.0;
  collector::CollectorDaemon daemon(config, fleet.num_users(), dopts);

  Rep rep;
  telemetry::HistogramSnapshot before = IngestSnapshot();
  uint64_t t0 = NowNs();
  Status started = daemon.Start();
  uint64_t t1 = NowNs();
  if (!started.ok()) return started;

  collector::LoadgenOptions lopts;
  lopts.port = daemon.port();
  lopts.connections = kConnections;
  lopts.timeout_seconds = 120.0;
  Result<collector::LoadgenOutcome> outcome = Status::Internal("not run");
  std::thread client([&] { outcome = collector::RunLoadgen(fleet, lopts); });
  uint64_t t2 = NowNs();
  Result<core::MechanismResult> served = daemon.Serve(&rep.metrics);
  uint64_t t3 = NowNs();
  client.join();
  if (!served.ok()) return served.status();
  if (!outcome.ok()) return outcome.status();

  rep.ingest = Subtract(IngestSnapshot(), before);
  rep.result = std::move(*served);
  rep.loadgen = std::move(*outcome);
  FillFromMetrics(&rep);
  // Serve = accept + handshakes, the protocol, then the Complete
  // broadcast; everything but the protocol is connection set-up.
  rep.handshake_s = Seconds(t1 - t0) + Seconds(t3 - t2) - rep.wall_s;
  for (const auto& round : rep.metrics.rounds) {
    rep.rounds.emplace_back(round.stage, round.seconds);
  }
  return rep;
}

// --------------------------------------------------------------- metrics

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Num(value));
    m.Set("unit", JsonValue::Str(unit));
    doc_.Set(name, std::move(m));
  }
  JsonValue Take() { return std::move(doc_); }

 private:
  JsonValue doc_ = JsonValue::Object();
};

/// Mean over runs: runs differ in their privacy seed, hence in their
/// round structure, so per-run figures are averaged rather than taking
/// the median of a mixture.
template <typename F>
double MeanOver(const std::vector<const Rep*>& reps, F f) {
  Mean mean;
  for (const Rep* rep : reps) mean.Add(f(*rep));
  return mean.Value();
}

/// Accepted reports over protocol wall time, across all `reps`.
double ReportsPerS(const std::vector<const Rep*>& reps) {
  double accepted = 0.0, wall = 0.0;
  for (const Rep* rep : reps) {
    accepted += static_cast<double>(rep->accepted);
    wall += rep->wall_s;
  }
  return wall > 0.0 ? accepted / wall : 0.0;
}

double RoundSum(const Rep& rep, const std::string& family) {
  double sum = 0.0;
  for (const auto& [label, seconds] : rep.rounds) {
    std::string fam = label.rfind("Pc.", 0) == 0 ? "Pc"
                      : (label == "Pd" || label == "Pe") ? "refine"
                                                         : label;
    if (fam == family) sum += seconds;
  }
  return sum;
}

/// Structures drawn by fewer protocol runs than this are left out of
/// GroupMedian, unless no structure has that many.
constexpr size_t kMinGroupRuns = 3;

/// The run's figure for a per-protocol measure `f`: protocol runs are
/// grouped by the frequent length they estimated (their round structure),
/// and the medians of the groups of at least kMinGroupRuns runs are
/// averaged. Grouping keeps the mix of structures a run happened to draw
/// out of the figure, and the minimum keeps a rarely drawn structure that
/// a faster build happens to reach from counting as much as a common one;
/// the median keeps out the bursts in which a shared host slows a few
/// protocol runs down.
template <typename F>
double GroupMedian(const std::vector<const Rep*>& reps, F f) {
  std::map<int, std::vector<double>> groups;
  size_t largest = 0;
  for (const Rep* rep : reps) {
    auto& group = groups[rep->result.frequent_length];
    group.push_back(f(*rep));
    largest = std::max(largest, group.size());
  }
  size_t min_runs = std::min(largest, kMinGroupRuns);
  Mean mean;
  for (const auto& group : groups) {
    if (group.second.size() >= min_runs) mean.Add(Median(group.second));
  }
  return mean.Value();
}

void AddEndToEnd(const std::vector<const Rep*>& reps, double rss_mb,
                 double setup_s, Metrics* out) {
  out->Add("reports_per_s", GroupMedian(reps, [](const Rep& r) {
             return static_cast<double>(r.accepted) / r.wall_s;
           }),
           "1/s");
  out->Add("round_ms_p50", 1e3 * GroupMedian(reps, [](const Rep& r) {
             std::vector<double> rounds;
             for (const auto& round : r.rounds) rounds.push_back(round.second);
             return Median(rounds);
           }),
           "ms");
  out->Add("round_ms_max", 1e3 * GroupMedian(reps, [](const Rep& r) {
             double worst = 0.0;
             for (const auto& round : r.rounds) {
               worst = std::max(worst, round.second);
             }
             return worst;
           }),
           "ms");
  out->Add("cpu_us_per_report", 1e6 * GroupMedian(reps, [](const Rep& r) {
             return r.cpu_s / static_cast<double>(r.accepted);
           }),
           "us");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", rss_mb, "MB");
}

/// The client time one in-process run's sampled per-user costs predict
/// for each round (by label), on `workers` concurrent producers.
std::map<std::string, double> ClientEstimates(const ProtocolLayers& layers,
                                              size_t workers) {
  std::map<std::string, double> est;
  for (RoundLayers round : layers.rounds) {
    round.stripes = workers;
    est[round.label] = round.EstimateS();
  }
  return est;
}

/// The slowest connection's round trip per stage label, in seconds.
std::map<std::string, double> SlowestRtt(const Rep& rep) {
  std::map<std::string, double> rtt;
  for (const auto& stage : rep.loadgen.stage_latency) {
    rtt[stage.stage] = static_cast<double>(stage.max_ns) / 1e9;
  }
  return rtt;
}

void AddLayers(double synth_us, double transform_us,
               const std::vector<const Rep*>& traced,
               const std::vector<const Rep*>& plain,
               const std::vector<const Rep*>& instrumented,
               const std::vector<const Rep*>& sockets, Metrics* out) {
  out->Add("series.synth_us_per_word", synth_us, "us");
  out->Add("sax.transform_us_per_word", transform_us, "us");

  // Client-side layers, from the instrumented in-process runs.
  Mean session, gap, match, draw, encode;
  std::map<std::string, Mean> answer;
  for (const Rep* rep : instrumented) {
    const ProtocolLayers& l = *rep->layers;
    for (const RoundLayers& round : l.rounds) {
      session.Merge(round.session_ns);
      gap.Merge(round.gap_ns);
      answer[round.family].Merge(round.answer_ns);
    }
    match.Merge(l.match_ns);
    draw.Merge(l.draw_ns);
    encode.Merge(l.encode_ns);
  }
  auto layers_mean = [&](auto f) {
    return MeanOver(instrumented, [&](const Rep& r) { return f(*r.layers); });
  };
  out->Add("collector.session_ns", session.Value(), "ns");
  out->Add("collector.gap_ns", gap.Value(), "ns");
  for (const char* fam : {"Pa", "Pb", "Pc", "refine"}) {
    out->Add(std::string("protocol.answer_ns.") + fam, answer[fam].Value(),
             "ns");
  }
  out->Add("distance.match_ns", match.Value(), "ns");
  out->Add("distance.dp_cells",
           layers_mean([](const ProtocolLayers& l) { return l.dp_cells; }),
           "count");
  out->Add("ldp.draw_ns", draw.Value(), "ns");
  out->Add("protocol.encode_ns", encode.Value(), "ns");
  out->Add("core.context_ms", layers_mean([](const ProtocolLayers& l) {
             return l.context_ns / 1e6;
           }),
           "ms");
  out->Add("core.candidates", layers_mean([](const ProtocolLayers& l) {
             return static_cast<double>(l.candidates);
           }),
           "count");
  out->Add("trace.self_ms", layers_mean([](const ProtocolLayers& l) {
             double self = 0.0;
             for (const RoundLayers& round : l.rounds) {
               self += round.self_ns / static_cast<double>(round.stripes);
             }
             return self / 1e6;
           }),
           "ms");

  // Serving layers, from the workload's own transport.
  for (const char* fam : {"Pa", "Pb", "Pc", "refine"}) {
    out->Add(std::string("collector.round_s.") + fam,
             MeanOver(traced, [&](const Rep& r) { return RoundSum(r, fam); }),
             "s");
  }
  telemetry::HistogramSnapshot ingest;
  for (const Rep* rep : traced) ingest.Merge(rep->ingest);
  out->Add("collector.ingest_us_p50", ingest.Quantile(0.50) / 1e3, "us");
  out->Add("collector.ingest_us_p99", ingest.Quantile(0.99) / 1e3, "us");
  out->Add("collector.ingest_busy_s", MeanOver(traced, [](const Rep& r) {
             return static_cast<double>(r.ingest.sum) / 1e9;
           }),
           "s");
  out->Add("collector.batches", MeanOver(traced, [](const Rep& r) {
             return static_cast<double>(r.ingest.count);
           }),
           "count");
  out->Add("core.driver_ms", 1e3 * MeanOver(traced, [](const Rep& r) {
             double rounds = 0.0;
             for (const auto& round : r.rounds) rounds += round.second;
             return r.wall_s - rounds;
           }),
           "ms");
  out->Add("protocol.report_bytes", MeanOver(traced, [](const Rep& r) {
             return static_cast<double>(r.metrics.TotalBytesUp());
           }),
           "B");

  // Transport layers, from the loopback TCP runs.
  out->Add("net.bytes_up", MeanOver(sockets, [](const Rep& r) {
             return static_cast<double>(r.loadgen.bytes_up);
           }),
           "B");
  out->Add("net.bytes_down", MeanOver(sockets, [](const Rep& r) {
             return static_cast<double>(r.loadgen.bytes_down);
           }),
           "B");
  out->Add("net.frames", MeanOver(sockets, [](const Rep& r) {
             return static_cast<double>(r.ingest.count);
           }),
           "count");
  std::vector<double> rtt_p50, handshake;
  for (const Rep* rep : sockets) {
    for (const auto& stage : rep->loadgen.stage_latency) {
      rtt_p50.push_back(stage.p50_ns / 1e6);
    }
    handshake.push_back(1e3 * rep->handshake_s);
  }
  out->Add("loadgen.rtt_ms_p50", Median(rtt_p50), "ms");
  out->Add("net.barrier_ms", 1e3 * MeanOver(sockets, [](const Rep& r) {
             std::map<std::string, double> rtt = SlowestRtt(r);
             double barrier = 0.0;
             for (const auto& [label, seconds] : r.rounds) {
               barrier += seconds - rtt[label];
             }
             return barrier;
           }),
           "ms");
  out->Add("collector.handshake_ms", Median(handshake), "ms");

  // Accounting: the share of the traced wall that the layers above leave
  // unexplained. In process, a round is explained by its producers'
  // directly timed per-user calls (MakeSession + answer on each of the
  // stripes, plus the instrumentation's own bookkeeping). Over TCP, the
  // daemon's round is the slowest client's round trip plus the barrier;
  // the round trip is explained by the same per-user calls on each
  // connection, measured in process on the same privacy seed, so only
  // the socket runs whose seed the in-process pass replayed count.
  std::map<uint64_t, const ProtocolLayers*> by_seed;
  for (const Rep* rep : instrumented) by_seed[rep->seed] = &*rep->layers;
  std::vector<const Rep*> accounted;
  for (const Rep* rep : traced) {
    if (rep->layers || by_seed.count(rep->seed) > 0) accounted.push_back(rep);
  }
  out->Add("trace.unaccounted_frac", MeanOver(accounted, [&](const Rep& r) {
             double unexplained = 0.0;
             if (r.layers) {
               for (const RoundLayers& round : r.layers->rounds) {
                 unexplained += round.span_s - round.EstimateS();
               }
             } else {
               std::map<std::string, double> est =
                   ClientEstimates(*by_seed.at(r.seed), kConnections);
               std::map<std::string, double> rtt = SlowestRtt(r);
               for (const auto& [label, seconds] : r.rounds) {
                 unexplained += rtt[label] - est[label];
               }
             }
             return std::abs(unexplained) / r.wall_s;
           }),
           "frac");
  double plain_rps = ReportsPerS(plain);
  out->Add("trace.overhead_frac",
           plain_rps > 0.0 ? 1.0 - ReportsPerS(traced) / plain_rps : 0.0,
           "frac");
}

// ------------------------------------------------------------------ main

Result<Options> ParseOptions(int argc, char** argv) {
  CliArgs args(argc, argv);
  Options opts;
  opts.dataset = args.GetString("dataset", "");
  std::string transport = args.GetString("transport", "");
  if (opts.dataset != "trace" && opts.dataset != "symbols") {
    return Status::InvalidArgument("--dataset must be trace or symbols");
  }
  if (transport != "inproc" && transport != "socket") {
    return Status::InvalidArgument("--transport must be inproc or socket");
  }
  opts.classify = opts.dataset == "symbols";
  opts.socket = transport == "socket";
  auto positive = [&](const std::string& name, int def) -> Result<size_t> {
    auto v = args.GetIntStatus(name, def);
    if (!v.ok()) return v.status();
    if (*v <= 0) return Status::InvalidArgument("--" + name + " must be > 0");
    return static_cast<size_t>(*v);
  };
  auto users = positive("users", 0);
  auto pool = positive("pool", 0);
  auto setups = positive("setups", 5);
  auto seed = args.GetIntStatus("seed", 1);
  auto seconds = args.GetDoubleStatus("seconds", 10.0);
  auto trace = args.GetIntStatus("trace", 0);
  for (const Status& s : {users.status(), pool.status(), setups.status(),
                          seed.status(), seconds.status(), trace.status()}) {
    if (!s.ok()) return s;
  }
  opts.users = *users;
  opts.pool = *pool;
  opts.setups = *setups;
  opts.seed = static_cast<uint64_t>(*seed);
  opts.seconds = *seconds;
  opts.trace = *trace != 0;
  opts.trace_file = args.GetString("trace-file", "");
  opts.git_rev = args.GetString("git-rev", "unknown");
  return opts;
}

JsonValue Stamp(const Options& opts) {
  JsonValue s = JsonValue::Object();
  s.Set("nproc", JsonValue::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  s.Set("compiler", JsonValue::Str(__VERSION__));
  s.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  s.Set("ndebug", JsonValue::Bool(true));
#else
  s.Set("ndebug", JsonValue::Bool(false));
#endif
  s.Set("simd", JsonValue::Str(simd::kLevelName));
  s.Set("git_rev", JsonValue::Str(opts.git_rev));
  s.Set("seed", JsonValue::Uint(opts.seed));
  s.Set("users", JsonValue::Uint(opts.users));
  s.Set("pool", JsonValue::Uint(opts.pool));
  return s;
}

int Fail(const Status& status) {
  std::cerr << "perfbench: " << status.ToString() << "\n";
  return 1;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  auto parsed = ParseOptions(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const Options opts = *parsed;

  auto base_config = collector::GeneratedDatasetConfig(opts.dataset);
  if (!base_config.ok()) return Fail(base_config.status());
  core::MechanismConfig config = *base_config;
  config.epsilon = 4.0;
  if (opts.classify) {
    config.num_classes = *collector::GeneratedNumClasses(opts.dataset);
  }
  auto config_for = [&](uint64_t run) {
    core::MechanismConfig c = config;
    c.seed = DeriveSeed(opts.seed, run);
    return c;
  };

  // Set-up, several times; the last pool and thread pool are served, and
  // of the others only the timings are kept.
  Pool pool;
  std::vector<double> setup_s, synth_us, transform_us;
  std::unique_ptr<ThreadPool> thread_pool;
  for (size_t i = 0; i < opts.setups; ++i) {
    uint64_t t0 = NowNs();
    auto built = BuildPool(opts);
    if (!built.ok()) return Fail(built.status());
    ClientFleet fleet = ClientFleet::FromWords(
        built->words, opts.users, config.metric, opts.seed, built->labels);
    thread_pool.reset();
    thread_pool = std::make_unique<ThreadPool>(kThreads);
    setup_s.push_back(Seconds(NowNs() - t0));
    double words = static_cast<double>(opts.pool);
    synth_us.push_back(1e6 * built->synth_s / words);
    transform_us.push_back(1e6 * built->transform_s / words);
    pool = std::move(*built);
  }
  LayerTracer tracer(pool.words, config.metric, /*sample_shift=*/5,
                     /*shadow_users=*/64);

  telemetry::TraceRecorder recorder;
  bool spans_recorded[2] = {false, false};  // per transport: in process, TCP
  uint64_t next_run = 0;
  auto run = [&](bool socket, bool traced) -> Result<Rep> {
    core::MechanismConfig run_config = config_for(next_run++);
    ClientFleet fleet = ClientFleet::FromWords(
        pool.words, opts.users, run_config.metric, run_config.seed,
        pool.labels);
    // Only the first traced run of each transport writes spans, so the
    // file stays small.
    telemetry::TraceRecorder* spans =
        traced && !spans_recorded[socket] ? &recorder : nullptr;
    spans_recorded[socket] = spans_recorded[socket] || spans != nullptr;
    telemetry::SetGlobalTrace(spans);
    double cpu0 = CpuSeconds();
    Result<Rep> rep =
        socket ? RunOverSocket(run_config, fleet)
               : RunInProcess(run_config, fleet, thread_pool.get(),
                              traced ? &tracer : nullptr, spans);
    telemetry::SetGlobalTrace(nullptr);
    if (rep.ok()) {
      rep->cpu_s = CpuSeconds() - cpu0;
      rep->seed = run_config.seed;
      rep->traced = traced;
    }
    return rep;
  };

  // The timed region: whole protocols back to back for --seconds (at
  // least three). With --trace 1, every other run is instrumented.
  std::vector<Rep> reps;
  uint64_t start = NowNs();
  while (reps.size() < 3 || Seconds(NowNs() - start) < opts.seconds) {
    bool traced = opts.trace && reps.size() % 2 == 0;
    auto rep = run(opts.socket, traced);
    if (!rep.ok()) return Fail(rep.status());
    reps.push_back(std::move(*rep));
  }
  double rss_mb = PeakRssMb();

  // The other transport's pass (traced runs only), so every layer is
  // measured on this fleet. Over TCP it replays the seeds of the first
  // instrumented runs, whose client estimates the accounting reuses.
  std::vector<Rep> side;
  if (opts.trace) {
    for (int i = 0; i < 2; ++i) {
      if (opts.socket) next_run = 2 * static_cast<uint64_t>(i);
      auto rep = run(!opts.socket, /*traced=*/true);
      if (!rep.ok()) return Fail(rep.status());
      side.push_back(std::move(*rep));
    }
  }

  // Correctness, outside the timed region: every run extracted exactly
  // the shapes of the single-threaded reference on the same words and
  // seed, and the pool holds the words GeneratedWordSource gives those
  // users.
  std::vector<const Rep*> all;
  for (const auto* list : {&reps, &side}) {
    for (const Rep& rep : *list) all.push_back(&rep);
  }
  ClientFleet served = ClientFleet::FromWords(
      pool.words, opts.users, config.metric, opts.seed, pool.labels);
  std::vector<Sequence> words = served.MaterializeWords();
  std::vector<int> labels = served.MaterializeLabels();
  std::vector<char> matches(all.size(), 0);
  {
    ThreadPool checkers(0);  // one thread per core
    checkers.ParallelFor(all.size(), [&](size_t i) {
      core::MechanismConfig c = config;
      c.seed = all[i]->seed;
      auto expected = core::PrivShape(c).Run(
          words, opts.classify ? &labels : nullptr);
      matches[i] = expected.ok() &&
                   collector::SameShapes(*expected, all[i]->result);
    });
  }
  bool correct = std::all_of(matches.begin(), matches.end(),
                             [](char m) { return m != 0; });
  auto source = collector::GeneratedWordSource(opts.dataset, opts.seed);
  if (!source.ok()) return Fail(source.status());
  for (size_t i = 0; i < std::min<size_t>(pool.words.size(), 64); ++i) {
    if ((*source)(i) != pool.words[i]) correct = false;
  }

  std::vector<const Rep*> timed, traced, plain, instrumented, sockets;
  for (const Rep* rep : all) {
    if (rep->layers) instrumented.push_back(rep);
    if (!rep->loadgen.stage_latency.empty()) sockets.push_back(rep);
  }
  size_t attempted = 0, accepted = 0;
  std::map<int, size_t> lengths;
  std::vector<double> handshake;
  for (const Rep& rep : reps) {
    timed.push_back(&rep);
    (rep.traced ? traced : plain).push_back(&rep);
    attempted += rep.attempted;
    accepted += rep.accepted;
    ++lengths[rep.result.frequent_length];
    handshake.push_back(rep.handshake_s);
  }
  double setup = Median(setup_s) + (opts.socket ? Median(handshake) : 0.0);

  Metrics metrics;
  if (opts.trace) {
    AddLayers(Median(synth_us), Median(transform_us), traced, plain,
              instrumented, sockets, &metrics);
    if (!opts.trace_file.empty()) {
      Status written = recorder.WriteJson(opts.trace_file);
      if (!written.ok()) return Fail(written);
    }
  } else {
    AddEndToEnd(timed, rss_mb, setup, &metrics);
  }

  JsonValue length_counts = JsonValue::Object();
  for (const auto& [length, count] : lengths) {
    length_counts.Set(std::to_string(length), JsonValue::Uint(count));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("correct", JsonValue::Bool(correct));
  doc.Set("attempted", JsonValue::Uint(attempted));
  doc.Set("failed", JsonValue::Uint(attempted - accepted));
  doc.Set("runs", JsonValue::Uint(reps.size()));
  doc.Set("frequent_lengths", std::move(length_counts));
  doc.Set("stamp", Stamp(opts));
  doc.Set("metrics", metrics.Take());
  std::cout << doc.Dump() << std::endl;
  return correct ? 0 : 2;
}

}  // namespace
}  // namespace privshape::perfbench

int main(int argc, char** argv) {
  return privshape::perfbench::Main(argc, argv);
}
