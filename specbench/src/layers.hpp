// Per-layer attribution from outside the stack: decorators over each
// layer's public interface (TraceSource, PredictorPlane, PrefetchPolicy,
// PrefetchGovernor), a span log kept in memory and written at exit, and a
// bench-side copy of the run_trace_replay loop that times
// StackRuntime::handle_request and Simulator::run_until around those
// decorators. Nothing here reaches into src/: every number is a wall-clock
// span around a public call or a count the public results already carry.
//
// Every decorator is a pure pass-through, so a replay through them is
// bit-identical to the same replay without them; main.cpp checks that by
// fingerprint on every traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "control/governor.hpp"
#include "des/simulator.hpp"
#include "obs/divergence.hpp"
#include "policy/policy.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/stack_runtime.hpp"
#include "sim/trace_replay.hpp"
#include "util/flat_hash.hpp"
#include "util/math.hpp"
#include "workload/trace_stream.hpp"

namespace specbench {

using namespace specpf;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one layer: how many, host nanoseconds inside them, and the
/// work they returned (candidates, selections, records) — the last both
/// feeds the per-call ratios and keeps the timed calls observable.
struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t items = 0;

  void add(std::int64_t begin, std::int64_t end, std::uint64_t work) {
    ++calls;
    ns += end - begin;
    items += work;
  }
  double ns_per_call() const {
    return safe_div(static_cast<double>(ns), static_cast<double>(calls), 0.0);
  }
  double items_per_call() const {
    return safe_div(static_cast<double>(items), static_cast<double>(calls),
                    0.0);
  }
};

/// In-memory span log, written as Chrome trace-event JSON at exit. Spans
/// carry their parent's index and the request they belong to (-1 for
/// spans that are not per request, such as engine windows and epochs).
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 1 << 18;
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    int parent;
    std::int64_t request;
    int replay;
  };

  /// Starts a new replay: its spans are written under their own pid.
  void next_replay() { ++replay_; }

  /// Opens a span; returns its index (or kNoParent once the log is full,
  /// which children then treat as "no parent").
  int open(const char* name, int parent, std::int64_t request) {
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back({name, now_ns(), 0, parent, request, replay_});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) {
    if (index != kNoParent) spans_[static_cast<std::size_t>(index)].end = now_ns();
  }
  void record(const char* name, std::int64_t begin, std::int64_t end,
              int parent, std::int64_t request) {
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, begin, end, parent, request, replay_});
  }

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes every span as a complete ("X") trace event; `pid` is the
  /// replay the span belongs to. Returns false if the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.replay,
                   static_cast<double>(s.begin - origin) / 1e3,
                   static_cast<double>(s.end - s.begin) / 1e3, i, s.parent,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  int replay_ = 0;
};

/// Which request the driver is inside and whether its child spans go to
/// the log (one request in kSampleEvery; every call is still aggregated).
/// Single-threaded: only the unsharded bench-side driver installs one.
struct SpanContext {
  static constexpr std::int64_t kSampleEvery = 64;
  SpanLog* log = nullptr;
  int window = SpanLog::kNoParent;  ///< the engine span now running
  int parent = SpanLog::kNoParent;
  std::int64_t request = -1;
  bool sampled = false;

  void child(const char* name, std::int64_t begin, std::int64_t end) const {
    if (sampled) log->record(name, begin, end, parent, request);
  }
};

// --- decorators -------------------------------------------------------------

/// What a TimedPolicy measured. Held outside the decorator because the
/// sharded driver owns (and destroys) the policies its factory made.
struct PolicyStats {
  LayerStat select;            ///< items = candidates selected
  std::uint64_t offered = 0;   ///< candidates handed to select()
};

/// Times every next() and folds each record into a checksum.
class TimedSource final : public TraceSource {
 public:
  explicit TimedSource(TraceSource& inner) : inner_(&inner) {}

  /// Epoch detection for the sharded driver, which calls next() only on
  /// its own thread between barriers. `policies` are the per-shard policy
  /// stats: a gap between two next() calls across which their select()
  /// count advanced (the shard engines ran in between) is an epoch gap.
  void watch_epochs(const std::vector<std::unique_ptr<PolicyStats>>& policies,
                    SpanLog& log) {
    policies_ = &policies;
    log_ = &log;
  }

  bool next(TraceRecord* out) override {
    const std::int64_t begin = now_ns();
    const bool ok = inner_->next(out);
    const std::int64_t end = now_ns();
    next_.add(begin, end, ok ? 1 : 0);
    if (ok) {
      checksum_ = checksum_ * 1099511628211ull ^
                  (static_cast<std::uint64_t>(out->user) << 32 ^ out->item);
    }
    if (policies_ != nullptr) {
      std::uint64_t selects = 0;
      for (const auto& p : *policies_) selects += p->select.calls;
      if (last_end_ != 0 && selects != last_selects_) {
        epoch_gaps_ns_.push_back(begin - last_end_);
        log_->record("shard.epoch_gap", last_end_, begin, SpanLog::kNoParent,
                     -1);
      }
      last_selects_ = selects;
      last_end_ = end;
    }
    return ok;
  }

  void reset() override {
    inner_->reset();
    last_end_ = 0;
  }

  const LayerStat& stat() const { return next_; }
  std::uint64_t checksum() const { return checksum_; }
  const std::vector<std::int64_t>& epoch_gaps_ns() const {
    return epoch_gaps_ns_;
  }

 private:
  TraceSource* inner_;
  LayerStat next_;
  std::uint64_t checksum_ = 14695981039346656037ull;
  const std::vector<std::unique_ptr<PolicyStats>>* policies_ = nullptr;
  SpanLog* log_ = nullptr;
  std::uint64_t last_selects_ = 0;
  std::int64_t last_end_ = 0;
  std::vector<std::int64_t> epoch_gaps_ns_;
};

class TimedPredictor final : public PredictorPlane {
 public:
  TimedPredictor(std::unique_ptr<PredictorPlane> inner, const SpanContext& ctx)
      : inner_(std::move(inner)), ctx_(&ctx) {}

  void observe(UserId user, std::uint64_t item) override {
    const std::int64_t begin = now_ns();
    inner_->observe(user, item);
    const std::int64_t end = now_ns();
    observe_.add(begin, end, 1);
    ctx_->child("predict.observe", begin, end);
  }
  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<core::Candidate>& out) const override {
    const std::int64_t begin = now_ns();
    inner_->predict_into(user, max_candidates, out);
    const std::int64_t end = now_ns();
    predict_.add(begin, end, out.size());
    ctx_->child("predict.predict", begin, end);
  }
  std::uint64_t counter_halvings() const override {
    return inner_->counter_halvings();
  }
  std::uint64_t context_count() const override {
    return inner_->context_count();
  }
  void audit(AuditReport& report) const override { inner_->audit(report); }

  const LayerStat& observe_stat() const { return observe_; }
  const LayerStat& predict_stat() const { return predict_; }

 private:
  std::unique_ptr<PredictorPlane> inner_;
  const SpanContext* ctx_;
  LayerStat observe_;
  mutable LayerStat predict_;
};

/// `ctx` may be null: the sharded driver calls select() on worker threads,
/// where only the aggregates are kept (one PolicyStats per shard).
class TimedPolicy final : public PrefetchPolicy {
 public:
  TimedPolicy(std::unique_ptr<PrefetchPolicy> inner, PolicyStats& stats,
              const SpanContext* ctx)
      : inner_(std::move(inner)), stats_(&stats), ctx_(ctx) {}

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& context) override {
    const std::int64_t begin = now_ns();
    std::vector<core::Candidate> selected = inner_->select(predictions, context);
    const std::int64_t end = now_ns();
    stats_->select.add(begin, end, selected.size());
    stats_->offered += predictions.size();
    if (ctx_ != nullptr) ctx_->child("policy.select", begin, end);
    return selected;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<PrefetchPolicy> inner_;
  PolicyStats* stats_;
  const SpanContext* ctx_;
};

class TimedGovernor final : public PrefetchGovernor {
 public:
  TimedGovernor(std::unique_ptr<PrefetchGovernor> inner, const SpanContext& ctx)
      : inner_(std::move(inner)), ctx_(&ctx) {}

  std::string name() const override { return inner_->name(); }
  bool admit(double now, UserId user, const core::Candidate& candidate,
             double size, const LoadSignals& load) override {
    const std::int64_t begin = now_ns();
    const bool ok = inner_->admit(now, user, candidate, size, load);
    const std::int64_t end = now_ns();
    admit_.add(begin, end, ok ? 1 : 0);
    ctx_->child("control.admit", begin, end);
    return ok;
  }
  std::size_t depth_limit(std::size_t configured) const override {
    return inner_->depth_limit(configured);
  }
  void on_prefetch_useful() override { inner_->on_prefetch_useful(); }
  void on_prefetch_wasted() override { inner_->on_prefetch_wasted(); }
  double epoch_signal(const LoadSignals& load) const override {
    return inner_->epoch_signal(load);
  }
  double state_gauge() const override { return inner_->state_gauge(); }
  double aggressiveness() const override { return inner_->aggressiveness(); }

  const LayerStat& admit_stat() const { return admit_; }

 private:
  std::unique_ptr<PrefetchGovernor> inner_;
  const SpanContext* ctx_;
  LayerStat admit_;
};

// --- the bench-side replay driver -------------------------------------------

/// Everything one traced replay measured.
struct TracedReplay {
  ProxySimResult result;
  double wall_s = 0.0;
  LayerStat observe, predict, admit, handle, engine;
  LayerStat next;  ///< the source's, when the caller's source is timed
  PolicyStats policy;
  std::uint64_t events = 0;   ///< engine events executed
  std::uint64_t contexts = 0;
  double peak_link_jobs = 0.0;  ///< link occupancy sampled after each arrival
  bool has_governor = false;
  StabilityVerdict verdict = StabilityVerdict::kStable;
};

/// The run_trace_replay loop (sim/trace_replay.cpp), statement for
/// statement, with the predictor, policy, and governor wrapped in the
/// decorators above and spans around every handle_request and every
/// run_until / run call. `source` is normally a TimedSource. The result
/// must equal run_trace_replay's on the same inputs bit for bit.
inline TracedReplay traced_trace_replay(TraceSource& source,
                                        const TraceReplayConfig& config,
                                        std::unique_ptr<PrefetchPolicy> policy_in,
                                        SpanLog& log) {
  config.validate();
  const std::int64_t wall_begin = now_ns();
  log.next_replay();
  SpanContext ctx;
  ctx.log = &log;
  PolicyStats policy_stats;
  TimedPolicy policy(std::move(policy_in), policy_stats, &ctx);

  FlatHashMap<UserId> user_index;
  std::uint64_t record_count = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  source.reset();
  {
    TraceRecord r;
    double prev = 0.0;
    while (source.next(&r)) {
      SPECPF_EXPECTS(record_count == 0 || r.time >= prev);
      prev = r.time;
      if (record_count == 0) first_time = r.time;
      last_time = r.time;
      bool inserted = false;
      UserId& dense = user_index.get_or_insert(r.user, &inserted);
      if (inserted) dense = static_cast<UserId>(user_index.size() - 1);
      ++record_count;
    }
  }
  SPECPF_EXPECTS(record_count > 0);

  TimedPredictor predictor(
      make_replay_predictor(config.predictor_kind, user_index.size(),
                            config.use_legacy_predictors),
      ctx);

  StackRuntimeConfig runtime_config;
  runtime_config.bandwidth = config.bandwidth;
  runtime_config.item_size = config.item_size;
  runtime_config.num_users = user_index.size();
  runtime_config.cache_capacity = config.cache_capacity;
  runtime_config.cache_kind = config.cache_kind;
  runtime_config.estimator_model = config.estimator_model;
  runtime_config.max_prefetch_per_request = config.max_prefetch_per_request;
  runtime_config.seed = config.seed;
  const double duration = record_count >= 2 ? last_time - first_time : 0.0;
  runtime_config.lambda_prior = std::max(
      1e-9, safe_div(static_cast<double>(record_count), duration, 0.0));
  runtime_config.use_tree_inflight = config.use_tree_inflight;
  runtime_config.use_legacy_caches = config.use_legacy_caches;
  runtime_config.enable_load_sensor = config.enable_load_sensor;
  runtime_config.sensor = config.sensor;
  runtime_config.telemetry = config.telemetry;
  std::unique_ptr<TimedGovernor> governor;
  if (!config.governor.empty()) {
    auto inner = make_governor_by_name(config.governor, config.governor_config);
    SPECPF_EXPECTS(inner != nullptr);
    governor = std::make_unique<TimedGovernor>(std::move(inner), ctx);
    runtime_config.governor = governor.get();
  }

  Simulator sim;
  StackRuntime runtime(sim, predictor, policy, std::move(runtime_config));

  DivergenceDetector* detector = config.divergence;
  if (detector != nullptr) {
    if (!detector->configured()) detector->configure(DivergenceConfig{});
    if (detector->num_signals() == 0) detector->watch_plane(*config.telemetry);
  }

  // What the scheduled request events need: one pointer keeps the capture
  // inside the engine's inline action storage.
  struct Probe {
    StackRuntime* runtime;
    SpanContext* ctx;
    LayerStat handle;
    double peak_jobs = 0.0;
    std::int64_t next_request = 0;
  } probe{&runtime, &ctx, {}, 0.0, 0};
  LayerStat engine;
  const auto run_engine = [&](const char* name, auto&& body) {
    ctx.window = log.open(name, SpanLog::kNoParent, -1);
    const std::int64_t begin = now_ns();
    body();
    engine.add(begin, now_ns(), 0);
    log.close(ctx.window);
  };

  const double t0 = first_time;
  const std::size_t warmup_records = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(record_count));
  if (warmup_records == 0) runtime.begin_measurement();

  source.reset();
  bool aborted = false;
  {
    TraceRecord r;
    std::size_t index = 0;
    while (source.next(&r)) {
      const double when = r.time - t0;
      SPECPF_EXPECTS(when >= 0.0);
      if (index > 0 && index % config.stream_window == 0) {
        run_engine("des.run_until", [&] { sim.run_until(when); });
        if (detector != nullptr &&
            detector->evaluate() == StabilityVerdict::kDivergent &&
            config.abort_on_divergence) {
          aborted = true;
          break;
        }
      }
      if (warmup_records > 0 && index == warmup_records) {
        sim.schedule_at(when, [&runtime] { runtime.begin_measurement(); });
      }
      const UserId user = *user_index.find(r.user);
      sim.schedule_at(when, [p = &probe, user, item = r.item] {
        SpanContext& c = *p->ctx;
        c.request = p->next_request++;
        c.sampled = c.request % SpanContext::kSampleEvery == 0;
        c.parent = c.sampled ? c.log->open("sim.handle_request", c.window,
                                           c.request)
                             : SpanLog::kNoParent;
        const std::int64_t begin = now_ns();
        p->runtime->handle_request(user, item);
        p->handle.add(begin, now_ns(), 1);
        if (c.sampled) c.log->close(c.parent);
        c.sampled = false;
        p->peak_jobs = std::max(
            p->peak_jobs,
            static_cast<double>(p->runtime->server().active_jobs()));
      });
      ++index;
    }
  }

  ServerStats horizon_stats;
  if (aborted) {
    horizon_stats = runtime.snapshot_server();
  } else {
    const double end_time = last_time - t0;
    sim.schedule_at(end_time,
                    [&] { horizon_stats = runtime.snapshot_server(); });
  }

  run_engine("des.run", [&] { sim.run(); });
  if (detector != nullptr) detector->evaluate();

  TracedReplay out;
  out.result = runtime.finalize(horizon_stats, policy.name());
  out.wall_s = static_cast<double>(now_ns() - wall_begin) * 1e-9;
  out.observe = predictor.observe_stat();
  out.predict = predictor.predict_stat();
  out.policy = policy_stats;
  if (governor) out.admit = governor->admit_stat();
  out.has_governor = governor != nullptr;
  out.handle = probe.handle;
  out.engine = engine;
  out.events = sim.events_executed();
  out.contexts = predictor.context_count();
  out.peak_link_jobs = probe.peak_jobs;
  if (detector != nullptr) out.verdict = detector->verdict();
  return out;
}

}  // namespace specbench
