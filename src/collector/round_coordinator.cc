#include "collector/round_coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "common/shutdown.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::collector {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The round's broadcast request, encoded once — the bytes a wire
/// deployment ships to each of its users, and what bytes_down counts —
/// with the report kind it asks for.
std::pair<proto::ReportKind, std::string> EncodeRequest(
    const core::Round& round, const core::MechanismConfig& config) {
  switch (round.stage) {
    case core::Stage::kLength:
      return {proto::ReportKind::kLength,
              proto::EncodeLengthRequest(
                  {config.ell_low, config.ell_high, config.epsilon})};
    case core::Stage::kSubShape:
      // The level window [1, ell_S) announces ell_S.
      return {proto::ReportKind::kSubShape,
              proto::EncodeSubShapeRequest(
                  {config.t,
                   static_cast<int>(round.min_level + round.num_levels),
                   config.epsilon, config.allow_repeats})};
    case core::Stage::kSelection:
      return {proto::ReportKind::kSelection,
              proto::EncodeCandidateRequest(
                  {round.min_level, config.epsilon, round.candidates})};
    case core::Stage::kRefinement:
      return {proto::ReportKind::kRefinement,
              proto::EncodeCandidateRequest(
                  {round.min_level, config.epsilon, round.candidates})};
    case core::Stage::kClassRefine:
      return {proto::ReportKind::kClassRefine,
              proto::EncodeClassRefineRequest(
                  {config.epsilon, static_cast<uint64_t>(config.num_classes),
                   round.candidates})};
  }
  return {proto::ReportKind::kLength, std::string()};
}

/// What the server aggregates, read off the context the clients answer
/// against: exactly the domain and levels the broadcast announced.
StageSpec SpecFor(const proto::RoundContext& ctx) {
  StageSpec spec;
  spec.kind = ctx.kind();
  spec.domain = ctx.domain();
  spec.epsilon = ctx.epsilon();
  if (ctx.kind() == proto::ReportKind::kSubShape) {
    spec.min_level = 1;  // one level per adjacent pair: [1, ell_s)
    spec.num_levels = static_cast<size_t>(ctx.ell_s() - 1);
  } else {
    spec.min_level = ctx.level();
  }
  return spec;
}

/// Times one round, runs it (under a chrome-trace span when tracing is
/// on), fills its RoundStats, publishes that record to the process
/// registry, and appends it to `metrics` when non-null.
RoundOutcome RunTimedRound(const RoundRunner& run_round,
                           const std::vector<size_t>& population,
                           const StageSpec& spec,
                           const std::string& encoded_request,
                           const AnswerFn& answer, const std::string& stage,
                           CollectorMetrics* metrics) {
  // Resolved once per process; Set through the cached pointer is the
  // lock-free path the registry's contract promises.
  static telemetry::Gauge* round_users =
      telemetry::Registry::Default().GetGauge("collector_round_users");

  telemetry::TraceSpan span(telemetry::GlobalTrace(), stage, "round");
  round_users->Set(static_cast<int64_t>(population.size()));
  double start = Now();
  RoundOutcome outcome = run_round(population, spec, encoded_request, answer);
  double seconds = Now() - start;
  span.Close();
  round_users->Set(0);

  RoundStats stats;
  stats.stage = stage;
  stats.users = population.size();
  stats.accepted = outcome.agg.accepted();
  stats.rejected = outcome.agg.rejected();
  stats.client_errors = outcome.client_errors;
  stats.bytes_up = outcome.agg.bytes_ingested();
  stats.bytes_down = encoded_request.size() * population.size();
  stats.seconds = seconds;
  const telemetry::HistogramSnapshot& lat = outcome.ingest_latency;
  if (!lat.empty()) {
    stats.ingest_batches = lat.count;
    stats.ingest_p50_ns = lat.Quantile(0.50);
    stats.ingest_p95_ns = lat.Quantile(0.95);
    stats.ingest_p99_ns = lat.Quantile(0.99);
    stats.ingest_max_ns = lat.max;
    stats.ingest_mean_ns = lat.Mean();
  }
  PublishRound(stats, lat);
  if (metrics != nullptr) metrics->rounds.push_back(std::move(stats));
  return outcome;
}

}  // namespace

RoundIngest::RoundIngest(const StageSpec& spec, size_t num_lanes,
                         size_t num_drainers, size_t queue_depth,
                         const std::string& gauge_prefix)
    : outcome_{ShardedAggregator(spec, num_lanes), 0, {}},
      latency_(std::make_unique<telemetry::Histogram>()) {
  num_drainers = std::max<size_t>(1, std::min(num_drainers, num_lanes));
  errors_.resize(num_drainers);
  for (size_t d = 0; d < num_drainers; ++d) {
    queues_.push_back(std::make_unique<BatchQueue<LaneBatch>>(queue_depth));
    if (gauge_prefix.empty()) continue;
    queues_.back()->set_depth_gauge(
        telemetry::Registry::Default()
            .GetGauge(gauge_prefix + "_queue_depth_d" + std::to_string(d))
            ->raw());
  }
  drainers_.reserve(num_drainers);
  for (size_t d = 0; d < num_drainers; ++d) {
    drainers_.emplace_back([this, d] {
      // An exception escaping a std::thread body would terminate the
      // process; capture it for Finish to rethrow. The dying drainer
      // closes its own queue so producers blocked on it unblock (their
      // remaining pushes are dropped — the round is being abandoned).
      try {
        LaneBatch item;
        while (queues_[d]->Pop(&item)) {
          uint64_t t0 = NowNs();
          outcome_.agg.ConsumeBatch(item.lane, item.reports);
          latency_->Record(NowNs() - t0);
        }
      } catch (...) {
        errors_[d] = std::current_exception();
        queues_[d]->Close();
      }
    });
  }
}

RoundIngest::~RoundIngest() { CloseAndJoin(); }

void RoundIngest::CloseAndJoin() {
  for (auto& queue : queues_) queue->Close();
  for (auto& drainer : drainers_) {
    if (drainer.joinable()) drainer.join();
  }
}

void RoundIngest::Push(size_t lane, proto::ReportBatch batch) {
  queues_[lane % queues_.size()]->Push(LaneBatch{lane, std::move(batch)});
}

RoundOutcome RoundIngest::Finish() {
  CloseAndJoin();
  for (const auto& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
  outcome_.ingest_latency = latency_->Snapshot();
  return std::move(outcome_);
}

RoundCoordinator::RoundCoordinator(core::MechanismConfig config,
                                   CollectorOptions options,
                                   ThreadPool* pool)
    : config_(config), options_(options), pool_(pool) {}

size_t RoundCoordinator::EffectiveThreads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

size_t RoundCoordinator::EffectiveShards() const {
  size_t shards =
      options_.num_shards > 0 ? options_.num_shards : EffectiveThreads();
  return shards > 0 ? shards : 1;
}

RoundOutcome RoundCoordinator::RunRound(const ClientFleet& fleet,
                                        const std::vector<size_t>& population,
                                        const StageSpec& spec,
                                        const AnswerFn& answer) const {
  size_t num_shards = EffectiveShards();
  size_t batch_size = options_.batch_size > 0 ? options_.batch_size : 1;
  // Drainers count against the thread budget: ceil(threads/2) of them, so
  // a T-thread round schedules at most 1.5T runnable threads —
  // decode+count is far cheaper than answering, so half the workers
  // absorb it.
  RoundIngest ingest(spec, num_shards, (EffectiveThreads() + 1) / 2,
                     options_.queue_depth, "collector");
  std::atomic<size_t> client_errors{0};

  // Shard s owns the contiguous stripe [n*s/S, n*(s+1)/S) of the
  // population and feeds lane s. Integer-count merging makes the final
  // estimates independent of this partition (and of which lane ingests
  // what).
  auto produce_stripe = [&](size_t shard) {
    size_t n = population.size();
    size_t begin = n * shard / num_shards;
    size_t end = n * (shard + 1) / num_shards;
    size_t errors = 0;
    // One scratch per stripe: the answer path reuses its DP rows and
    // score buffers across every user of the stripe, and reports encode
    // into the batch's flat buffer — no per-report allocation. Sessions
    // are built a block at a time into one reused block, which seeds
    // their engines together; users still answer in population order.
    proto::AnswerScratch scratch;
    proto::ReportBatch batch;
    batch.Reserve(batch_size);
    auto block = std::make_unique<ClientFleet::SessionBlock>();
    bool stopped = false;
    for (size_t first = begin; first < end && !stopped;
         first += ClientFleet::kSessionBlock) {
      size_t count = std::min(ClientFleet::kSessionBlock, end - first);
      fleet.MakeSessions(&population[first], count, spec.kind, spec.domain,
                         block.get());
      for (size_t j = 0; j < count; ++j) {
        // Graceful shutdown: stop producing new reports mid-stripe. The
        // already-pushed batches drain normally, so the partial round's
        // accounting stays exact; DriveProtocol turns the flag into a
        // Cancelled status before any server-side decision.
        if (ShutdownRequested()) {
          stopped = true;
          break;
        }
        size_t user = population[first + j];
        Status answered = answer(*(*block)[j], user, scratch, batch);
        if (!answered.ok()) {
          ++errors;
          continue;
        }
        if (batch.size() >= batch_size) {
          ingest.Push(shard, std::move(batch));
          batch = proto::ReportBatch();
          batch.Reserve(batch_size);
        }
      }
    }
    if (!batch.empty()) ingest.Push(shard, std::move(batch));
    client_errors.fetch_add(errors);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(num_shards, produce_stripe);
  } else {
    for (size_t shard = 0; shard < num_shards; ++shard) {
      produce_stripe(shard);
    }
  }
  RoundOutcome outcome = ingest.Finish();
  outcome.client_errors = client_errors.load();
  return outcome;
}

Result<core::MechanismResult> DriveProtocol(
    const core::MechanismConfig& config, size_t num_users,
    const RoundRunner& run_round, CollectorMetrics* metrics) {
  if (metrics != nullptr) metrics->num_users = num_users;
  // The wire runner: one encode, one context and one spec per round, and
  // the same AnswerTo for every user of it.
  auto wire_round =
      [&](const core::Round& round) -> Result<core::RoundCounts> {
    auto [kind, request] = EncodeRequest(round, config);
    auto context =
        proto::RoundContext::FromRequest(kind, request, config.metric);
    if (!context.ok()) return context.status();
    const proto::RoundContext& ctx = *context;
    StageSpec spec = SpecFor(ctx);
    RoundOutcome outcome = RunTimedRound(
        run_round, round.population, spec, request,
        [&ctx](proto::ClientSession& session, size_t,
               proto::AnswerScratch& scratch, proto::ReportBatch& out) {
          return session.AnswerTo(ctx, &scratch, &out);
        },
        round.label, metrics);
    // A set shutdown flag turns the partial round just recorded into a
    // Cancelled protocol result — never into a server-side decision.
    if (ShutdownRequested()) {
      return Status::Cancelled("shutdown requested mid-protocol");
    }
    core::RoundCounts counts;
    for (size_t bucket = 0; bucket < spec.num_levels; ++bucket) {
      counts.push_back(outcome.agg.DebiasedCounts(bucket));
    }
    return counts;
  };
  double start = Now();
  auto stamp_total = [&] {
    if (metrics != nullptr) metrics->total_seconds = Now() - start;
  };
  try {
    auto result = core::RunProtocol(config, num_users, wire_round);
    stamp_total();
    return result;
  } catch (...) {
    stamp_total();  // a transport abort unwinding through the runner
    throw;
  }
}

Result<core::MechanismResult> RoundCoordinator::Collect(
    const ClientFleet& fleet, CollectorMetrics* metrics) {
  if (config_.num_classes > 0 && !fleet.labeled()) {
    return Status::FailedPrecondition(
        "classification refinement requires a labeled fleet");
  }
  if (metrics != nullptr) {
    metrics->num_shards = EffectiveShards();
    metrics->num_threads = EffectiveThreads();
    metrics->queue_depth = options_.queue_depth;
  }
  return DriveProtocol(
      config_, fleet.num_users(),
      [this, &fleet](const std::vector<size_t>& population,
                     const StageSpec& spec, const std::string&,
                     const AnswerFn& answer) {
        return RunRound(fleet, population, spec, answer);
      },
      metrics);
}

}  // namespace privshape::collector
