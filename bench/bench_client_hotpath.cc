/// \file
/// Per-report answer-path microbenchmark: reports/sec for each protocol
/// stage (P_a..P_d) on a single thread through the one serving loop,
/// ClientFleet::AnswerRound — a shared RoundContext (decode and mechanism
/// construction once per round), sessions built, seeded and matched a
/// block at a time, one scratch, batched encoding, zero allocation per
/// report. With --json, writes the client hot path's perf records
/// (BENCH_hotpath.json is the committed baseline).
///
///   bench_client_hotpath --users 20000 --trials 3 --json BENCH_hotpath.json
///
/// The floor of every stage is per-user privacy randomness: an
/// mt19937_64 stream seeded with DeriveSeed(seed, user), pinned by the
/// byte-identical determinism contract. The eager engine cost ~2.4us/user
/// in construction plus first twist; this repo's LazyMt64 (same bit
/// stream) costs ~0.4us for the handful of draws a client makes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "collector/client_fleet.h"
#include "common/rng.h"
#include "common/simd.h"
#include "distance/candidate_table.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

#ifndef PRIVSHAPE_BENCH_FLAGS
#define PRIVSHAPE_BENCH_FLAGS "(unknown)"
#endif

namespace privshape {
namespace {

using bench::ExperimentScale;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint64_t kSessionSeedBase = 0x40117;

// --- Benchmark scaffolding ---------------------------------------------

/// One benchmarked stage and the shared context its clients answer.
struct Stage {
  std::string name;
  proto::RoundContext context;
};

struct PathResult {
  double seconds = 0.0;
  double rate = 0.0;
  size_t bytes = 0;
};

/// Every stage over `users` of `fleet` through the serving loop,
/// ClientFleet::AnswerRound: sessions built, seeded and matched a block
/// at a time, answered in order into 256-report batches.
PathResult RunContextPath(const Stage& stage,
                          const collector::ClientFleet& fleet,
                          const std::vector<size_t>& users) {
  PathResult out;
  double start = Now();
  (void)fleet.AnswerRound(
      users.data(), users.size(), stage.context.kind(),
      stage.context.domain(), 256,
      [&stage](proto::ClientSession& session, size_t,
               proto::AnswerScratch& scratch, proto::ReportBatch& batch) {
        return session.AnswerTo(stage.context, &scratch, &batch);
      },
      [&out](proto::ReportBatch& batch) {
        out.bytes += batch.bytes();
        return Status::Ok();
      });
  out.seconds = Now() - start;
  out.rate =
      out.seconds > 0 ? static_cast<double>(users.size()) / out.seconds : 0;
  return out;
}

// --- Per-kernel micro-records ------------------------------------------
//
// The stage benchmarks above measure whole reports; these isolate the
// four kernels the SIMD work targets — DTW/SED matching against the
// candidate trie, the batched OUE bit fill, and the two-word GRR draw —
// each against the scalar per-candidate / per-cell path it replaced.
// Both variants live in every build (the scalar reference is
// always-built), so one binary yields the scalar-vs-SIMD speedup. The
// match records' `simd` path is MatchBlock over one int16 lane block of
// words, one word per op — the serving loop's block at SSE2 and AVX2 —
// and a `lone` path times the one-word MatchInto that only tests and
// replays still run.

struct KernelResult {
  double seconds = 0.0;
  double rate = 0.0;  ///< ops per second, best of trials
};

template <typename Body>
KernelResult MeasureKernel(size_t ops, int trials, Body&& body) {
  KernelResult best;
  for (int trial = 0; trial < std::max(trials, 1); ++trial) {
    double start = Now();
    for (size_t i = 0; i < ops; ++i) body(i);
    double seconds = Now() - start;
    double rate = seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
    if (rate > best.rate) best = KernelResult{seconds, rate};
  }
  return best;
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  ExperimentScale scale = bench::ScaleFromArgs(args, /*default_users=*/20000,
                                               /*default_trials=*/3);
  auto json = bench::MaybeJson(args);
  if (json != nullptr) {
    // Stamp the build so records are never compared across configs
    // (scalar vs SSE2 vs AVX2, different compilers/flags) unnoticed.
#if defined(__clang__)
    json->SetMeta("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    json->SetMeta("compiler", std::string("gcc ") + __VERSION__);
#else
    json->SetMeta("compiler", "unknown");
#endif
    json->SetMeta("cxx_flags", PRIVSHAPE_BENCH_FLAGS);
    json->SetMeta("simd_level", simd::kLevelName);
    json->SetMeta("simd_dp_lanes", static_cast<uint64_t>(simd::kI16Lanes));
  }
  const double epsilon = args.GetDouble("epsilon", 4.0);
  const dist::Metric metric = dist::Metric::kSed;  // Trace default

  // A representative word pool: 256 generated Trace-style compressed
  // words (t=4), tiled across the fleet — synthesis cost stays out of the
  // measured loop.
  auto source = collector::GeneratedWordSource("trace", scale.seed);
  if (!source.ok()) {
    bench::PrintTitle("hotpath bench setup failed: " +
                      source.status().ToString());
    return 1;
  }
  std::vector<Sequence> words;
  words.reserve(256);
  for (size_t u = 0; u < 256; ++u) words.push_back((*source)(u));

  // Candidate list for the P_c / P_d stages: paper-default c*k = 9
  // distinct words (P_c matches length-5 prefixes, P_d whole words).
  std::vector<Sequence> candidates;
  for (const Sequence& w : words) {
    Sequence cut(w.begin(),
                 w.begin() + static_cast<long>(std::min<size_t>(w.size(), 5)));
    if (std::find(candidates.begin(), candidates.end(), cut) ==
        candidates.end()) {
      candidates.push_back(cut);
    }
    if (candidates.size() == 9) break;
  }

  proto::CandidateRequest selection_request;
  selection_request.level = 4;
  selection_request.epsilon = epsilon;
  selection_request.candidates = candidates;
  proto::CandidateRequest refine_request;
  refine_request.level = 0;
  refine_request.epsilon = epsilon;
  refine_request.candidates = candidates;

  // The bench's users: word u % 256, randomness DeriveSeed(seed base, u).
  collector::ClientFleet fleet = collector::ClientFleet::FromWords(
      words, scale.users, metric, kSessionSeedBase);
  std::vector<size_t> users(scale.users);
  std::iota(users.begin(), users.end(), size_t{0});

  std::vector<Stage> stages;
  auto add_stage = [&stages](const char* name,
                             Result<proto::RoundContext> context) {
    stages.push_back(Stage{name, std::move(*context)});
  };
  add_stage("Pa", proto::RoundContext::Length(1, 10, epsilon));
  add_stage("Pb", proto::RoundContext::SubShape(4, 8, epsilon, false));
  add_stage("Pc", proto::RoundContext::Selection(selection_request, metric));
  add_stage("Pd", proto::RoundContext::Refinement(refine_request, metric));

  bench::PrintTitle("Client answer hot path (" +
                    std::to_string(scale.users) +
                    " reports/stage, single thread, shared context, "
                    "ClientFleet::AnswerRound)");
  bench::PrintHeader({"stage", "reports/s", "seconds"});

  for (const Stage& stage : stages) {
    PathResult best;
    for (int trial = 0; trial < std::max(scale.trials, 1); ++trial) {
      PathResult run = RunContextPath(stage, fleet, users);
      if (run.rate > best.rate) best = run;
    }
    bench::PrintRow({stage.name, FormatDouble(best.rate, 6),
                     FormatDouble(best.seconds, 4)});
    if (json != nullptr) {
      json->AddRecord("client_hotpath",
                      {{"stage", stage.name},
                       {"path", "context"},
                       {"users", std::to_string(scale.users)},
                       {"metric", dist::MetricName(metric)}},
                      {{"reports_per_sec", best.rate},
                       {"seconds", best.seconds},
                       {"bytes_up", static_cast<double>(best.bytes)}});
    }
  }

  // Kernel micro-records. `sink` folds every result into a value the
  // optimizer must keep, so the measured loops cannot be dead-code
  // eliminated.
  bench::PrintTitle(std::string("Per-kernel micro-records (simd level: ") +
                    simd::kLevelName + ", " +
                    std::to_string(simd::kI16Lanes) + " int16 DP lanes)");
  bench::PrintHeader({"kernel", "path", "ops/s", "seconds", "speedup"});
  double sink = 0.0;

  dist::CandidateTable table = dist::CandidateTable::Build(candidates);
  auto dtw = dist::MakeDistance(dist::Metric::kDtw);
  auto sed = dist::MakeDistance(dist::Metric::kSed);
  dist::TableScratch table_scratch;
  dist::DtwScratch dtw_scratch;
  std::vector<double> dists;

  const size_t cells = candidates.size() * 3;  // P_e grid, 3 classes
  auto oue = ldp::UnaryEncoding::Create(cells, epsilon);
  auto grr = ldp::Grr::Create(candidates.size(), epsilon);
  if (!oue.ok() || !grr.ok()) {
    bench::PrintTitle("kernel bench setup failed");
    return 1;
  }
  Rng kernel_rng(DeriveSeed(kSessionSeedBase, 0x5EED));
  std::vector<uint64_t> word_buf;
  std::vector<uint8_t> bit_buf;

  struct Kernel {
    std::string name;
    size_t ops;
    std::function<void(size_t)> scalar;
    std::function<void(size_t)> simd;
    std::function<void(size_t)> lone;  ///< the one-word match, if any
  };
  // Scalar reference of the two match records: the per-candidate
  // kernel the table replaced, reusing one DP scratch across calls.
  auto scalar_match = [&](const dist::SequenceDistance& distance, size_t i) {
    dist::SymbolView word(words[i % words.size()]);
    dists.resize(candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      dists[c] = distance.Distance(word, dist::SymbolView(candidates[c]),
                                   &dtw_scratch);
    }
    sink += dists[0];
  };
  // The block match: op i starting a lane block matches the block's
  // simd::kI16Lanes words (or the ops left) in one MatchBlock call.
  auto block_match = [&](const dist::SequenceDistance& distance, size_t i) {
    constexpr size_t kBlock = simd::kI16Lanes;
    if (i % kBlock != 0) return;
    dist::SymbolView block[kBlock];
    const size_t count = std::min(kBlock, scale.users - i);
    for (size_t k = 0; k < count; ++k) block[k] = words[(i + k) % words.size()];
    table.MatchBlock(block, count, distance, /*prefix_compare=*/false,
                     &table_scratch, &dists);
    sink += dists[0];
  };
  auto lone_match = [&](const dist::SequenceDistance& distance, size_t i) {
    table.MatchInto(words[i % words.size()], distance,
                    /*prefix_compare=*/false, &table_scratch, &dists);
    sink += dists[0];
  };
  std::vector<Kernel> kernels;
  kernels.push_back(Kernel{
      "dtw_vs_candidates", scale.users,
      [&](size_t i) { scalar_match(*dtw, i); },
      [&](size_t i) { block_match(*dtw, i); },
      [&](size_t i) { lone_match(*dtw, i); }});
  kernels.push_back(Kernel{
      "sed_vs_candidates", scale.users,
      [&](size_t i) { scalar_match(*sed, i); },
      [&](size_t i) { block_match(*sed, i); },
      [&](size_t i) { lone_match(*sed, i); }});
  kernels.push_back(Kernel{
      "oue_bit_fill", scale.users,
      // Scalar reference: the pre-batching per-cell Bernoulli loop
      // (one independent draw per cell against p or q).
      [&, cells](size_t i) {
        size_t value = i % cells;
        for (size_t cell = 0; cell < cells; ++cell) {
          sink += kernel_rng.Bernoulli(cell == value ? oue->p() : oue->q())
                      ? 1.0
                      : 0.0;
        }
      },
      [&, cells](size_t i) {
        oue->EncodeInto(i % cells, &kernel_rng, &word_buf, &bit_buf);
        sink += bit_buf[0];
      },
      nullptr});
  const size_t grr_domain = candidates.size();
  kernels.push_back(Kernel{
      "grr_draw", scale.users * 8,
      // Scalar reference: the pre-batching keep-or-resample draw
      // (Bernoulli(p), then a bounded index on flip).
      [&, grr_domain](size_t i) {
        size_t value = i % grr_domain;
        size_t out;
        if (kernel_rng.Bernoulli(grr->p())) {
          out = value;
        } else {
          size_t r = kernel_rng.Index(grr_domain - 1);
          out = r >= value ? r + 1 : r;
        }
        sink += static_cast<double>(out);
      },
      [&, grr_domain](size_t i) {
        sink += static_cast<double>(
            grr->PerturbValue(i % grr_domain, &kernel_rng));
      },
      nullptr});

  double best_kernel_speedup = 0.0;
  for (const Kernel& kernel : kernels) {
    KernelResult scalar = MeasureKernel(kernel.ops, scale.trials,
                                        kernel.scalar);
    KernelResult simd = MeasureKernel(kernel.ops, scale.trials, kernel.simd);
    double speedup = scalar.rate > 0 ? simd.rate / scalar.rate : 0.0;
    if (kernel.name == "dtw_vs_candidates" || kernel.name == "oue_bit_fill") {
      best_kernel_speedup = std::max(best_kernel_speedup, speedup);
    }
    bench::PrintRow({kernel.name, "scalar", FormatDouble(scalar.rate, 6),
                     FormatDouble(scalar.seconds, 4), "1.000"});
    bench::PrintRow({kernel.name, "simd", FormatDouble(simd.rate, 6),
                     FormatDouble(simd.seconds, 4),
                     FormatDouble(speedup, 3)});
    KernelResult lone;
    double lone_speedup = 0.0;
    if (kernel.lone) {
      lone = MeasureKernel(kernel.ops, scale.trials, kernel.lone);
      lone_speedup = scalar.rate > 0 ? lone.rate / scalar.rate : 0.0;
      bench::PrintRow({kernel.name, "lone", FormatDouble(lone.rate, 6),
                       FormatDouble(lone.seconds, 4),
                       FormatDouble(lone_speedup, 3)});
    }
    if (json != nullptr) {
      auto record = [&](const char* path, const KernelResult& r, double s) {
        json->AddRecord("hotpath_kernel",
                        {{"kernel", kernel.name},
                         {"path", path},
                         {"ops", std::to_string(kernel.ops)}},
                        {{"ops_per_sec", r.rate},
                         {"seconds", r.seconds},
                         {"speedup_vs_scalar", s}});
      };
      record("scalar", scalar, 1.0);
      record("simd", simd, speedup);
      if (kernel.lone) record("lone", lone, lone_speedup);
    }
  }
  // Keep `sink` observable without polluting the tables.
  volatile double sink_guard = sink;
  (void)sink_guard;

  if (simd::kLevel > 0 && best_kernel_speedup < 2.0) {
    bench::PrintTitle("WARNING: best SIMD kernel speedup " +
                      FormatDouble(best_kernel_speedup, 3) +
                      "x (dtw/oue) is below the 2x acceptance bar");
  }
  if (json != nullptr && !json->Flush()) {
    bench::PrintTitle("failed to write the --json baseline file");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace privshape

int main(int argc, char** argv) { return privshape::Main(argc, argv); }
