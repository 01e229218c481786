#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

namespace privshape::perfbench {

namespace {

using collector::StageSpec;
using proto::ReportKind;

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Rebuilds the round's shared client context from its broadcast bytes,
/// exactly as a wire client (the loadgen) does.
Result<proto::RoundContext> ContextFor(const StageSpec& spec,
                                       const std::string& encoded_request,
                                       dist::Metric metric) {
  switch (spec.kind) {
    case ReportKind::kLength: {
      auto request = proto::DecodeLengthRequest(encoded_request);
      if (!request.ok()) return request.status();
      return proto::RoundContext::Length(*request);
    }
    case ReportKind::kSubShape: {
      auto request = proto::DecodeSubShapeRequest(encoded_request);
      if (!request.ok()) return request.status();
      return proto::RoundContext::SubShape(*request);
    }
    case ReportKind::kSelection:
      return proto::RoundContext::Selection(
          std::string_view(encoded_request), metric);
    case ReportKind::kRefinement:
      return proto::RoundContext::Refinement(
          std::string_view(encoded_request), metric);
    case ReportKind::kClassRefine:
      return proto::RoundContext::ClassRefinement(
          std::string_view(encoded_request), metric);
  }
  return Status::InvalidArgument("unknown report kind");
}

/// Distinguishes tracers in the thread-local slot cache, so a slot
/// pointer is never reused across tracer lifetimes.
std::atomic<uint64_t> next_tracer_id{1};

struct SlotCache {
  uint64_t tracer = 0;
  void* slot = nullptr;
};
thread_local SlotCache slot_cache;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string RoundLabel(const StageSpec& spec) {
  switch (spec.kind) {
    case ReportKind::kLength:
      return "Pa";
    case ReportKind::kSubShape:
      return "Pb";
    case ReportKind::kSelection:
      return "Pc.level" + std::to_string(spec.min_level);
    case ReportKind::kRefinement:
      return "Pd";
    case ReportKind::kClassRefine:
      return "Pe";
  }
  return "unknown";
}

std::string StageFamily(const StageSpec& spec) {
  switch (spec.kind) {
    case ReportKind::kLength:
      return "Pa";
    case ReportKind::kSubShape:
      return "Pb";
    case ReportKind::kSelection:
      return "Pc";
    case ReportKind::kRefinement:
    case ReportKind::kClassRefine:
      return "refine";
  }
  return "unknown";
}

double RoundLayers::EstimateS() const {
  double per_user_ns = session_ns.Value() + answer_ns.Value();
  double stripes_d = static_cast<double>(std::max<size_t>(stripes, 1));
  return (static_cast<double>(users) * per_user_ns + self_ns) / stripes_d /
         1e9;
}

LayerTracer::LayerTracer(const std::vector<Sequence>& pool,
                         dist::Metric metric, unsigned sample_shift,
                         size_t shadow_users)
    : pool_(pool),
      metric_(metric),
      sample_shift_(sample_shift),
      shadow_users_(shadow_users),
      id_(next_tracer_id.fetch_add(1)) {}

void LayerTracer::BeginProtocol(const collector::ClientFleet& fleet,
                                telemetry::TraceRecorder* spans) {
  fleet_ = &fleet;
  spans_ = spans;
  current_ = ProtocolLayers();
}

bool LayerTracer::Sampled(size_t user) const {
  // Fibonacci hashing: the top bits of u * 2^64/phi are well mixed, so
  // the sample is spread over the whole tiled pool.
  uint64_t h = static_cast<uint64_t>(user) * 0x9e3779b97f4a7c15ULL;
  return (h >> (64 - sample_shift_)) == 0;
}

LayerTracer::WorkerSlot& LayerTracer::Slot() {
  if (slot_cache.tracer != id_) {
    auto slot = std::make_unique<WorkerSlot>();
    WorkerSlot* raw = slot.get();
    {
      MutexLock lock(&slots_mu_);
      slots_.push_back(std::move(slot));
    }
    slot_cache.tracer = id_;
    slot_cache.slot = raw;
  }
  return *static_cast<WorkerSlot*>(slot_cache.slot);
}

collector::AnswerFn LayerTracer::Wrap(const collector::AnswerFn& answer,
                                      const std::string& label) {
  return [this, &answer, &label](proto::ClientSession& session, size_t user,
                                 proto::AnswerScratch& scratch,
                                 proto::ReportBatch& out) -> Status {
    WorkerSlot& slot = Slot();
    uint64_t round = round_.load(std::memory_order_relaxed);
    if (slot.gap_from_ns != 0) {
      // The worker's time since the previous sampled user's answer: the
      // stripe loop, the batch hand-off, and MakeSession for this user.
      uint64_t now = NowNs();
      if (slot.round == round) {
        slot.gap_ns.Add(static_cast<double>(now - slot.gap_from_ns));
        if (spans_ != nullptr) {
          spans_->RecordSpan("collector.gap_ns", label,
                             ToUs(slot.gap_from_ns), ToUs(now));
        }
      }
      slot.gap_from_ns = 0;
      slot.self_ns += NowNs() - now;
    }
    if (!Sampled(user)) return answer(session, user, scratch, out);
    uint64_t t0 = NowNs();
    Status answered = answer(session, user, scratch, out);
    uint64_t t1 = NowNs();
    slot.answer_ns.Add(static_cast<double>(t1 - t0));
    if (spans_ != nullptr) {
      spans_->RecordSpan("protocol.answer_ns", label, ToUs(t0), ToUs(t1));
    }
    slot.round = round;
    uint64_t t2 = NowNs();
    slot.self_ns += t2 - t1;
    slot.gap_from_ns = t2;
    return answered;
  };
}

collector::RoundRunner LayerTracer::Runner(
    const collector::RoundCoordinator& coordinator) {
  return [this, &coordinator](const std::vector<size_t>& population,
                              const StageSpec& spec,
                              const std::string& encoded_request,
                              const collector::AnswerFn& answer) {
    return RunRound(coordinator, population, spec, encoded_request, answer);
  };
}

collector::RoundOutcome LayerTracer::RunRound(
    const collector::RoundCoordinator& coordinator,
    const std::vector<size_t>& population, const StageSpec& spec,
    const std::string& encoded_request, const collector::AnswerFn& answer) {
  uint64_t enter = NowNs();
  RoundLayers round;
  round.label = RoundLabel(spec);
  round.family = StageFamily(spec);
  round.users = population.size();
  round.stripes = coordinator.EffectiveShards();
  round_.fetch_add(1, std::memory_order_relaxed);
  collector::AnswerFn wrapped = Wrap(answer, round.label);

  uint64_t start = NowNs();
  collector::RoundOutcome outcome =
      coordinator.RunRound(*fleet_, population, spec, wrapped);
  uint64_t end = NowNs();
  round.span_s = static_cast<double>(end - start) / 1e9;

  {
    MutexLock lock(&slots_mu_);
    for (auto& slot : slots_) {
      round.gap_ns.Merge(slot->gap_ns);
      round.answer_ns.Merge(slot->answer_ns);
      round.self_ns += static_cast<double>(slot->self_ns);
      *slot = WorkerSlot();
    }
  }
  if (spans_ != nullptr) {
    spans_->RecordSpan("collector.round_s", round.label, ToUs(start),
                       ToUs(end));
  }
  ShadowReplay(population, spec, encoded_request, &round);
  current_.rounds.push_back(std::move(round));
  current_.outside_s +=
      static_cast<double>((start - enter) + (NowNs() - end)) / 1e9;
  return outcome;
}

void LayerTracer::ShadowReplay(const std::vector<size_t>& population,
                               const StageSpec& spec,
                               const std::string& encoded_request,
                               RoundLayers* round) {
  const std::string& label = round->label;
  uint64_t c0 = NowNs();
  auto context = ContextFor(spec, encoded_request, metric_);
  uint64_t c1 = NowNs();
  if (!context.ok() || population.empty()) return;
  const proto::RoundContext& ctx = *context;
  current_.context_ns += static_cast<double>(c1 - c0);
  if (spans_ != nullptr) {
    spans_->RecordSpan("core.context_ms", label, ToUs(c0), ToUs(c1));
  }

  bool matches = ctx.distance() != nullptr;
  if (matches) {
    double cand_symbols = 0.0;
    for (const Sequence& cand : ctx.candidates()) {
      cand_symbols += static_cast<double>(cand.size());
    }
    double word_symbols = 0.0;
    for (size_t user : population) {
      word_symbols += static_cast<double>(pool_[user % pool_.size()].size());
    }
    current_.dp_cells += cand_symbols * word_symbols;
    current_.candidates += ctx.candidates().size();
  }

  // Evenly spaced users of the population, each answered on a fresh copy
  // of its session (same seed, so the same randomness as the real answer).
  size_t step = std::max<size_t>(1, population.size() / shadow_users_);
  proto::AnswerScratch scratch;
  std::string encoded;
  for (size_t i = 0; i < population.size(); i += step) {
    size_t user = population[i];
    const Sequence& word = pool_[user % pool_.size()];
    uint64_t s0 = NowNs();
    proto::ClientSession session = fleet_->MakeSession(user);
    uint64_t t0 = NowNs();
    round->session_ns.Add(static_cast<double>(t0 - s0));
    if (spans_ != nullptr) {
      spans_->RecordSpan("collector.session_ns", label, ToUs(s0), ToUs(t0));
    }
    Status answered = session.Answer(ctx, &scratch, &scratch.report);
    uint64_t t1 = NowNs();
    if (!answered.ok()) continue;
    encoded.clear();
    uint64_t t2 = NowNs();
    proto::EncodeReportTo(scratch.report, &encoded);
    uint64_t t3 = NowNs();
    double match = 0.0;
    if (matches) {
      uint64_t m0 = NowNs();
      if (spec.kind == ReportKind::kSelection) {
        ctx.table().MatchInto(word, *ctx.distance(), /*prefix_compare=*/true,
                              &scratch.table, &scratch.distances);
      } else {
        ctx.table().Closest(word, *ctx.distance(), &scratch.table);
      }
      uint64_t m1 = NowNs();
      match = static_cast<double>(m1 - m0);
      current_.match_ns.Add(match);
      if (spans_ != nullptr) {
        spans_->RecordSpan("distance.match_ns", label, ToUs(m0), ToUs(m1));
      }
    }
    current_.draw_ns.Add(static_cast<double>(t1 - t0) - match);
    current_.encode_ns.Add(static_cast<double>(t3 - t2));
    if (spans_ != nullptr) {
      spans_->RecordSpan("protocol.encode_ns", label, ToUs(t2), ToUs(t3));
    }
  }
}

}  // namespace privshape::perfbench
