// `dashboard` (open-loop interactive reads from a warm cache) and
// `backfill` (closed-loop bulk re-scoring over 4 shards).

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <thread>

#include "workloads.h"

namespace e2e {
namespace {

namespace core = ustdb::core;
namespace service = ustdb::service;
namespace workload = ustdb::workload;
using ustdb::util::Rng;

/// One submitted request and, once resolved, its outcome.
struct Op {
  size_t index = 0;
  uint64_t span = 0;  ///< the request's span (due to resolution)
  Clock::time_point due, submit, resolved;
  service::QueryTicket ticket;
  bool ok = false;
  core::ExecStats stats;
};

/// Outstanding tickets of one generator, resolved in any order. Poll()
/// waits (up to 1 ms) on the oldest ticket, then stamps every ticket that
/// has resolved by now.
class Pending {
 public:
  void Add(Op op) { ops_.push_back(std::move(op)); }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  /// Moves resolved ops to `done`; `keep_result(index)` selects the
  /// answers kept for the reference check.
  template <typename Keep>
  void Poll(std::vector<Op>* done, Keep&& keep_result,
            std::vector<std::pair<size_t, core::QueryResult>>* kept) {
    if (ops_.empty()) return;
    ops_.front().ticket.WaitFor(std::chrono::milliseconds(1));
    for (auto it = ops_.begin(); it != ops_.end();) {
      if (!it->ticket.resolved()) {
        ++it;
        continue;
      }
      it->resolved = Clock::now();
      ustdb::util::Result<core::QueryResult> r = it->ticket.Get();
      it->ok = r.ok();
      if (r.ok()) {
        it->stats = r->stats;
        if (keep_result(it->index)) {
          kept->emplace_back(it->index, std::move(r).ValueOrDie());
        }
      }
      it->ticket = service::QueryTicket();
      done->push_back(std::move(*it));
      it = ops_.erase(it);
    }
  }

 private:
  std::deque<Op> ops_;
};

/// State shared by the two request-serving workloads.
class ServingWorkload : public Workload {
 public:
  ServingWorkload(uint64_t seed, double seconds, DataSpec spec,
                  unsigned threads)
      : seed_(seed), seconds_(seconds), spec_(spec), threads_(threads) {}

  void Teardown() override {
    service_.reset();
    db_.reset();
  }

  std::string Budget() const override {
    return std::to_string(threads_) + " executor workers over " +
           std::to_string(spec_.shards) + " shard(s)";
  }

  void Check() override {
    core::Database ref;
    Populate(spec_, seed_, &ref);
    core::QueryExecutor exec(&ref, {.num_threads = 1, .cache_capacity = 64});
    for (const auto& [index, served] : kept_) {
      const core::QueryRequest& request = RequestAt(index);
      const core::QueryResult reference =
          Must(exec.Run(request), "reference executor");
      const std::string diff = CompareAnswers(request, served, reference);
      if (!diff.empty()) {
        Die("served answer to request %zu differs from the reference: %s",
            index, diff.c_str());
      }
    }
    std::printf("reference check: %zu served answers equal a sequential "
                "executor over an unsharded database (tolerance %g)\n",
                kept_.size(), kAnswerTolerance);
  }

 protected:
  /// The index-th request of this workload's stream.
  virtual const core::QueryRequest& RequestAt(size_t index) = 0;

  void Build(ustdb::obs::MetricsRegistry* registry, size_t cache_capacity,
             service::ServiceOptions* options) {
    registry_ = registry;
    db_ = std::make_unique<core::ShardedDatabase>(
        core::ShardingOptions{.num_shards = spec_.shards});
    Populate(spec_, seed_, db_.get());
    options->executor.num_threads = threads_;
    options->executor.cache_capacity = cache_capacity;
    options->obs.enabled = registry != nullptr;
    options->obs.registry = registry;
    service_ = std::make_unique<service::QueryService>(
        static_cast<const core::ShardedDatabase*>(db_.get()), *options);
  }

  /// Submits `requests` as one burst and waits; warm-up only.
  void Warm(std::vector<core::QueryRequest> requests,
            service::Priority priority) {
    for (service::QueryTicket& t :
         service_->SubmitBurst(std::move(requests), priority)) {
      Must(t.Get(), "warm-up request");
    }
  }

  /// Turns resolved ops into the end-to-end metrics. Latency runs from
  /// each op's due time: the schedule (open loop) or the submit (closed
  /// loop). `limit_ms` is the latency limit of slo_miss_frac.
  ///
  /// The timed phase is cut by due time into K equal segments (K = the
  /// number of 1000-sample blocks, at most 6, so every segment's p99 keeps
  /// 10 samples beyond it). Each latency percentile and the throughput are
  /// the median over segments: a burst of outside load on the machine
  /// moves one segment, not the run. The pooled figures are printed in
  /// the note.
  void Summarize(const std::vector<Op>& done, Clock::time_point t0,
                 double seconds, double limit_ms, PhaseOutput* out) {
    const size_t k = std::clamp<size_t>(done.size() / 1000, 1, 6);
    const double segment_s = seconds / static_cast<double>(k);
    Clock::time_point last = t0;
    std::vector<Sample> latency;
    std::vector<std::vector<Sample>> by_segment(k);
    std::vector<uint64_t> ok_by_segment(k, 0);
    std::vector<Clock::time_point> seg_first(k, Clock::time_point::max());
    std::vector<Clock::time_point> seg_last(k, t0);
    uint64_t ok = 0, miss_slo = 0;
    for (const Op& op : done) {
      last = std::max(last, op.resolved);
      const double ms = Millis(op.resolved - op.due);
      const size_t seg = std::min(
          k - 1, static_cast<size_t>(Seconds(op.due - t0) / segment_s));
      latency.push_back({ms, !op.ok});
      by_segment[seg].push_back({ms, !op.ok});
      ok_by_segment[seg] += op.ok;
      seg_first[seg] = std::min(seg_first[seg], op.due);
      seg_last[seg] = std::max(seg_last[seg], op.resolved);
      ok += op.ok;
      miss_slo += !op.ok || ms > limit_ms;
    }
    const double horizon = Millis(last - t0);
    out->attempted = done.size();
    out->failed = done.size() - ok;
    const std::pair<const char*, double> percentiles[] = {
        {"latency_p50_ms", 0.50}, {"latency_p99_ms", 0.99}};
    for (const auto& [name, q] : percentiles) {
      std::vector<double> values;
      size_t min_n = done.size(), min_beyond = done.size();
      bool censored = false;
      for (const std::vector<Sample>& seg : by_segment) {
        const Pct p = Percentile(seg, q, horizon);
        values.push_back(p.value);
        min_n = std::min(min_n, p.n);
        min_beyond = std::min(min_beyond, p.beyond);
        censored |= p.censored;
      }
      const Pct pooled = Percentile(latency, q, horizon);
      std::string note = "median of " + std::to_string(k) +
                         " segments (n>=" + std::to_string(min_n) +
                         ", beyond>=" + std::to_string(min_beyond) +
                         " each); pooled " + std::to_string(pooled.value) +
                         " ms, n=" + std::to_string(pooled.n) +
                         " beyond=" + std::to_string(pooled.beyond);
      if (censored) note += "; CENSORED in some segment: value = horizon";
      if (min_beyond < 10) note += "; UNSUPPORTED: fewer than 10 samples beyond";
      out->e2e.Add(name, Quantile(values, 0.5), "ms", note);
    }
    // Per segment: completed requests over the time from its first due
    // time to its last resolution.
    std::vector<double> qps;
    for (size_t i = 0; i < k; ++i) {
      if (ok_by_segment[i] > 0) {
        qps.push_back(ok_by_segment[i] / Seconds(seg_last[i] - seg_first[i]));
      }
    }
    out->e2e.Add("throughput_qps", Quantile(qps, 0.5), "1/s",
                 "median of " + std::to_string(k) +
                     " segments of completed requests; pooled " +
                     std::to_string(ok) + " over " +
                     std::to_string(Seconds(last - t0)) + " s");
    out->e2e.AddRatio("error_frac", static_cast<double>(out->failed),
                      static_cast<double>(done.size()),
                      "failed or refused requests / attempted requests");
    out->e2e.AddRatio("slo_miss_frac", static_cast<double>(miss_slo),
                      static_cast<double>(done.size()),
                      std::isinf(limit_ms)
                          ? "requests failed or refused (no latency limit on "
                            "bulk traffic) / attempted requests"
                          : "requests failed, refused or over " +
                                std::to_string(limit_ms) +
                                " ms / attempted requests");
    for (const char* m : {"refresh_p50_ms", "refresh_p99_ms",
                          "staleness_p50_ms", "staleness_p99_ms"}) {
      out->e2e.Add(m, 0, "ms", "no subscriptions on this workload");
    }
    out->e2e.Add("ingest_p99_us", 0, "us", "no ingest on this workload");
  }

  /// Spans and service counters every serving workload reports.
  void CommonLayers(const ustdb::obs::MetricsRegistry& registry,
                    Tracer* tracer, PhaseOutput* out) {
    ServiceCounters c{before_, service_->stats(), spmv_before_, SpmvPasses(),
                      snap_before_};
    AddServiceLayers(c, registry.Snapshot(), spec_.shards, out);
    out->layers.Add("loadgen.late_p99_ms", Quantile(late_ms_, 0.99), "ms",
                    "generator lateness (submit - due), n=" +
                        std::to_string(late_ms_.size()));
    out->layers.Add("loadgen.attempted", static_cast<double>(out->attempted),
                    "count", "requests the generator issued");
    out->layers.Add("service.submit_p99_us",
                    Quantile(tracer->Durations("service.Submit"), 0.99) * 1e6,
                    "us", "QueryService::Submit call, n=" +
                              std::to_string(out->attempted));
    uint64_t threshold = 0, bounded = 0;
    for (const Op& op : done_) {
      if (!op.ok) continue;
      if (RequestAt(op.index).predicate ==
          core::PredicateKind::kThresholdExists) {
        ++threshold;
        bounded += op.stats.prune.clusters_bounded > 0;
      }
    }
    out->layers.AddRatio("core.planner.bound_plan_frac",
                         static_cast<double>(bounded),
                         static_cast<double>(threshold),
                         "threshold requests that ran the bound pass / "
                         "threshold requests answered");
    out->layers.Add("service.append_lock_wait_p99_us", 0, "us",
                    "no ingest on this workload");
    out->layers.Add("core.database.append_p99_us", 0, "us",
                    "no ingest on this workload");
    out->layers.Add("service.subscriptions.deltas_per_tick", 0, "ratio",
                    "no subscriptions on this workload");
    out->layers.Add("service.subscriptions.failed_refreshes", 0, "count",
                    "no subscriptions on this workload");
  }

  /// Records the counters the per-layer deltas start from.
  void MarkStart() {
    before_ = service_->stats();
    spmv_before_ = SpmvPasses();
    snap_before_ = registry_ != nullptr ? registry_->Snapshot()
                                        : ustdb::obs::MetricsSnapshot{};
  }

  const uint64_t seed_;
  const double seconds_;
  const DataSpec spec_;
  const unsigned threads_;
  std::unique_ptr<core::ShardedDatabase> db_;
  std::unique_ptr<service::QueryService> service_;
  std::vector<Op> done_;
  std::vector<std::pair<size_t, core::QueryResult>> kept_;
  std::vector<double> late_ms_;
  ustdb::obs::MetricsRegistry* registry_ = nullptr;
  service::ServiceStats before_;
  double spmv_before_ = 0;
  ustdb::obs::MetricsSnapshot snap_before_;
};

// ---------------------------------------------------------------------------
// dashboard
// ---------------------------------------------------------------------------

constexpr double kDashboardQps = 300.0;
constexpr double kDashboardLimitMs = 100.0;
constexpr uint32_t kDashboardWindows = 16;

workload::QueryGenConfig WindowConfig(uint32_t states, uint64_t seed) {
  workload::QueryGenConfig config;
  config.num_states = states;
  config.region_extent = 21;
  config.window_length = 6;
  config.t_min = 5;
  config.t_max = 50;
  config.seed = seed;
  return config;
}

class Dashboard : public ServingWorkload {
 public:
  Dashboard(uint64_t seed, double seconds)
      : ServingWorkload(seed, seconds,
                        {.states = 10'000, .objects = 4'000, .clusters = 2,
                         .variants = 8, .shards = 1},
                        3) {}

  void Setup(ustdb::obs::MetricsRegistry* registry) override {
    service::ServiceOptions options;
    Build(registry, 512, &options);
    // Every watch covers the paper's default times [20, 25]; only the
    // regions come from the seed, so the per-request cost profile (and
    // with it the tail) does not swing with the seed.
    workload::QueryGenConfig config = WindowConfig(spec_.states, seed_ ^ 0xda5bull);
    config.t_min = 20;
    config.t_max = 20;
    Rng rng(seed_ ^ 0x7a7c4ull);
    std::vector<uint32_t> watched_u32 =
        rng.SampleWithoutReplacement(spec_.objects, 16);
    const std::vector<ObjectId> watched(watched_u32.begin(),
                                        watched_u32.end());
    // Poisson arrivals over the run, with a wide margin (the run dies if
    // the stream runs out before the clock does).
    requests_ = Must(workload::MixedRequestWorkload(
                         config, kDashboardWindows,
                         static_cast<uint32_t>(kDashboardQps * seconds_ * 1.3 +
                                               200)),
                     "MixedRequestWorkload");
    for (core::QueryRequest& r : requests_) {
      if (r.predicate == core::PredicateKind::kKTimes) r.object_filter = watched;
    }
    workload::ArrivalProcess arrivals =
        Must(workload::ArrivalProcess::Create(
                 {.rate_qps = kDashboardQps, .seed = seed_ ^ 0xa55ull}),
             "ArrivalProcess");
    arrivals_ = arrivals.Times(static_cast<uint32_t>(requests_.size()));
    // Warm the 512-entry working set: every pool window under every
    // predicate (exists and for-all fill the two query-based stores).
    Rng pool_rng(config.seed);
    std::vector<core::QueryRequest> warm;
    for (uint32_t w = 0; w < kDashboardWindows; ++w) {
      const core::QueryWindow window =
          Must(workload::RandomWindow(config, &pool_rng), "RandomWindow");
      for (core::PredicateKind p :
           {core::PredicateKind::kExists, core::PredicateKind::kForAll,
            core::PredicateKind::kThresholdExists,
            core::PredicateKind::kTopKExists, core::PredicateKind::kKTimes}) {
        core::QueryRequest r{.predicate = p, .window = window, .tau = 0.3,
                             .k = 10};
        if (p == core::PredicateKind::kKTimes) r.object_filter = watched;
        warm.push_back(std::move(r));
      }
    }
    Warm(std::move(warm), service::Priority::kInteractive);
  }

  void Run(double seconds, Tracer* tracer, PhaseOutput* out) override {
    done_.clear();
    kept_.clear();
    late_ms_.clear();
    MarkStart();
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Op> handoff;
    bool finished = false;
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::thread generator([&] {
      for (size_t i = 0;; ++i) {
        if (i == arrivals_.size()) Die("dashboard request stream ran out");
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals_[i]));
        if (due > stop) break;
        std::this_thread::sleep_until(due);
        Op op{.index = i, .due = due, .submit = Clock::now()};
        op.span = tracer->Record("request", due, due, 0, i + 1);
        op.ticket = Traced(tracer, "service.Submit", op.span, i + 1, [&] {
          return service_->Submit(requests_[i], service::Priority::kInteractive);
        });
        late_ms_.push_back(Millis(op.submit - due));
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(std::move(op));
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
      cv.notify_one();
    });
    Pending pending;
    const auto keep = [](size_t index) { return index % 97 == 0; };
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return finished || !handoff.empty(); });
        }
        while (!handoff.empty()) {
          pending.Add(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (finished && pending.empty()) break;
      }
      const size_t before = done_.size();
      pending.Poll(&done_, keep, &kept_);
      for (size_t k = before; k < done_.size(); ++k) {
        tracer->End(done_[k].span, done_[k].resolved);
      }
    }
    generator.join();
    Summarize(done_, t0, seconds, kDashboardLimitMs, out);
    out->headline = "latency_p50_ms";
  }

  void Layers(const ustdb::obs::MetricsRegistry& registry, Tracer* tracer,
              PhaseOutput* out) override {
    CommonLayers(registry, tracer, out);
    core::Database ref;
    Populate(spec_, seed_, &ref);
    ReplayInput in{.db = &ref};
    // The replay sample: one request of each predicate from the stream.
    for (core::PredicateKind p :
         {core::PredicateKind::kExists, core::PredicateKind::kForAll,
          core::PredicateKind::kThresholdExists,
          core::PredicateKind::kTopKExists, core::PredicateKind::kKTimes}) {
      for (const core::QueryRequest& r : requests_) {
        if (r.predicate == p) {
          in.requests.push_back(r);
          break;
        }
      }
    }
    ReplayLayers(in, tracer, out);
  }

 protected:
  const core::QueryRequest& RequestAt(size_t index) override {
    return requests_[index];
  }

 private:
  std::vector<core::QueryRequest> requests_;
  std::vector<double> arrivals_;
};

// ---------------------------------------------------------------------------
// backfill
// ---------------------------------------------------------------------------

constexpr size_t kBackfillInFlight = 4;

class Backfill : public ServingWorkload {
 public:
  Backfill(uint64_t seed, double seconds)
      : ServingWorkload(seed, seconds,
                        {.states = 20'000, .objects = 4'000, .clusters = 4,
                         .variants = 16, .shards = 4},
                        4) {}

  void Setup(ustdb::obs::MetricsRegistry* registry) override {
    service::ServiceOptions options;
    Build(registry, 32, &options);
    stream_.clear();
    stream_rng_ = Rng(seed_ ^ 0xbac4f111ull);
    // Warm-up: one request of each predicate over windows the timed
    // stream never repeats (negative-free start times below t_min).
    Rng warm_rng(seed_ ^ 0x3a3aull);
    workload::QueryGenConfig config = WindowConfig(spec_.states, 0);
    config.t_min = 1;
    config.t_max = 4;
    std::vector<core::QueryRequest> warm;
    for (int i = 0; i < 3; ++i) {
      warm.push_back(Make(i, Must(workload::RandomWindow(config, &warm_rng),
                                  "RandomWindow")));
    }
    Warm(std::move(warm), service::Priority::kBulk);
  }

  void Run(double seconds, Tracer* tracer, PhaseOutput* out) override {
    done_.clear();
    kept_.clear();
    late_ms_.clear();
    MarkStart();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    Pending pending;
    const auto keep = [](size_t index) { return index % 61 == 0; };
    Clock::time_point freed = t0;  // when the generator saw a free slot
    for (;;) {
      while (pending.size() < kBackfillInFlight && Clock::now() < stop) {
        const size_t i = stream_.size();
        stream_.push_back(Next());
        Op op{.index = i, .due = Clock::now()};
        op.submit = op.due;
        late_ms_.push_back(Millis(op.submit - freed));
        op.span = tracer->Record("request", op.due, op.due, 0, i + 1);
        op.ticket = Traced(tracer, "service.Submit", op.span, i + 1, [&] {
          return service_->Submit(stream_[i], service::Priority::kBulk);
        });
        pending.Add(std::move(op));
      }
      if (pending.empty()) break;
      const size_t before = done_.size();
      pending.Poll(&done_, keep, &kept_);
      if (done_.size() > before) freed = Clock::now();
      for (size_t k = before; k < done_.size(); ++k) {
        tracer->End(done_[k].span, done_[k].resolved);
      }
    }
    Summarize(done_, t0, seconds, std::numeric_limits<double>::infinity(),
              out);
    out->headline = "throughput_qps";
    out->headline_higher_is_better = true;
  }

  void Layers(const ustdb::obs::MetricsRegistry& registry, Tracer* tracer,
              PhaseOutput* out) override {
    CommonLayers(registry, tracer, out);
    core::Database ref;
    Populate(spec_, seed_, &ref);
    ReplayInput in{.db = &ref};
    // The replay sample: the first request of each predicate.
    for (core::PredicateKind p : {core::PredicateKind::kThresholdExists,
                                  core::PredicateKind::kExists,
                                  core::PredicateKind::kTopKExists}) {
      for (const core::QueryRequest& r : stream_) {
        if (r.predicate == p) {
          in.requests.push_back(r);
          break;
        }
      }
    }
    ReplayLayers(in, tracer, out);
  }

 protected:
  const core::QueryRequest& RequestAt(size_t index) override {
    return stream_[index];
  }

 private:
  /// Request `kind` (0 threshold, 1 exists, 2 top-k) over all objects.
  static core::QueryRequest Make(int kind, core::QueryWindow window) {
    core::QueryRequest r;
    r.window = std::move(window);
    r.predicate = kind == 0   ? core::PredicateKind::kThresholdExists
                  : kind == 1 ? core::PredicateKind::kExists
                              : core::PredicateKind::kTopKExists;
    r.tau = 0.3;
    r.k = 10;
    return r;
  }

  /// The next request of the seeded stream: a fresh window every time.
  core::QueryRequest Next() {
    workload::QueryGenConfig config = WindowConfig(spec_.states, 0);
    config.t_max = 30;
    core::QueryWindow window =
        Must(workload::RandomWindow(config, &stream_rng_), "RandomWindow");
    return Make(static_cast<int>(stream_rng_.NextBounded(3)),
                std::move(window));
  }

  std::vector<core::QueryRequest> stream_;
  Rng stream_rng_;
};

}  // namespace

std::unique_ptr<Workload> MakeDashboard(uint64_t seed, double seconds) {
  return std::make_unique<Dashboard>(seed, seconds);
}
std::unique_ptr<Workload> MakeBackfill(uint64_t seed, double seconds) {
  return std::make_unique<Backfill>(seed, seconds);
}

}  // namespace e2e
