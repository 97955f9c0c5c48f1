// `monitor`: standing whole-database subscriptions refreshed on a 200 ms
// clock while 16 hot objects report one fix per tick.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "workloads.h"

namespace e2e {
namespace {

namespace core = ustdb::core;
namespace service = ustdb::service;
namespace sparse = ustdb::sparse;
namespace workload = ustdb::workload;
using ustdb::util::Rng;

constexpr uint32_t kSubscriptions = 32;
constexpr uint32_t kHot = 16;
constexpr Clock::duration kTick = std::chrono::milliseconds(200);
constexpr double kTickMs = 200.0;
constexpr double kStalenessLimitMs = 2 * kTickMs;
/// Fix half-width: each fix is uniform over true state ± kFixRadius.
constexpr uint32_t kFixRadius = 2;
/// Fully delivered rounds whose answers are compared with the reference
/// (the first ones of the run).
constexpr size_t kCheckRounds = 3;

struct Append {
  uint32_t hot = 0;  ///< index into hot_
  uint32_t fix = 0;  ///< index into fixes_[hot]
  Clock::time_point due, start, end;
  bool ok = false;
  ustdb::DataVersion version = 0;
};

struct Delivery {
  uint32_t round = 0;
  Clock::time_point at;
  ustdb::DataVersion epoch = 0;
};

struct Round {
  Clock::time_point due, start, end;
  size_t delivered = 0;
  size_t appends_done = 0;  ///< appends completed before the round began
};

/// Served answer sets of one checked round, rebuilt from the deltas.
struct CheckPoint {
  uint32_t round = 0;
  size_t appends_done = 0;
  std::vector<std::map<ObjectId, double>> answers;
  std::vector<ustdb::DataVersion> epochs;
};

class Monitor : public Workload {
 public:
  Monitor(uint64_t seed, double seconds)
      : seed_(seed),
        ticks_(static_cast<uint32_t>(std::ceil(seconds * 1e3 / kTickMs)) + 2) {}

  std::string Budget() const override {
    return "3 executor workers over 2 shards";
  }

  void Setup(ustdb::obs::MetricsRegistry* registry) override {
    registry_ = registry;
    db_ = std::make_unique<core::ShardedDatabase>(
        core::ShardingOptions{.num_shards = spec_.shards});
    Populate(spec_, seed_, db_.get());
    service::ServiceOptions options;
    options.executor.num_threads = 3;
    options.executor.cache_capacity = 1024;
    options.obs.enabled = registry != nullptr;
    options.obs.registry = registry;
    service_ = std::make_unique<service::QueryService>(db_.get(), options);
    MakeInputs();
    mirrors_.assign(kSubscriptions, {});
    deliveries_.assign(kSubscriptions, {});
    round_ = 0;
    for (uint32_t s = 0; s < kSubscriptions; ++s) {
      Must(service_->Subscribe(
               requests_[s], service::WindowPolicy{.slide = 1},
               [this, s](const service::SubscriptionDelta& delta) {
                 std::map<ObjectId, double>& m = mirrors_[s];
                 for (ObjectId id : delta.left) m.erase(id);
                 for (const auto& p : delta.entered) m[p.id] = p.probability;
                 for (const auto& p : delta.changed) m[p.id] = p.probability;
                 deliveries_[s].push_back({round_, Clock::now(), delta.epoch});
               }),
           "Subscribe");
    }
    if (service_->RefreshSubscriptions() != kSubscriptions) {
      Die("warm-up refresh did not deliver every subscription");
    }
    for (auto& d : deliveries_) d.clear();
  }

  void Teardown() override {
    service_.reset();
    db_.reset();
  }

  void Run(double seconds, Tracer* tracer, PhaseOutput* out) override {
    appends_.clear();
    rounds_.clear();
    checks_.clear();
    before_ = service_->stats();
    spmv_before_ = SpmvPasses();
    snap_before_ = registry_ != nullptr ? registry_->Snapshot()
                                        : ustdb::obs::MetricsSnapshot{};
    std::atomic<size_t> appends_done{0};
    t0_ = Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point stop =
        t0_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
    std::thread ingest([&] {
      for (uint32_t k = 1; k <= ticks_; ++k) {
        for (uint32_t i = 0; i < kHot; ++i) {
          Append a{.hot = i, .fix = k - 1};
          a.due = t0_ + (k - 1) * kTick + (2 * i + 1) * kTick / (2 * kHot);
          if (a.due > stop) return;
          std::this_thread::sleep_until(a.due);
          a.start = Clock::now();
          const auto r = Traced(
              tracer, "service.AppendObservation", 0, appends_.size() + 1,
              [&] {
                return service_->AppendObservation(hot_[i], fixes_[i][k - 1]);
              });
          a.end = Clock::now();
          a.ok = r.ok();
          if (r.ok()) a.version = r.value();
          appends_.push_back(a);
          appends_done.store(appends_.size(), std::memory_order_release);
        }
      }
    });
    for (uint32_t r = 1;; ++r) {
      Round round{.due = t0_ + r * kTick};
      if (round.due > stop) break;
      std::this_thread::sleep_until(round.due);
      round.appends_done = appends_done.load(std::memory_order_acquire);
      round.start = Clock::now();
      round_ = r;
      const uint64_t span = tracer->Begin("tick.round", 0, r);
      Traced(tracer, "service.TickWindows", span, r, [&] {
        service_->TickWindows(1);
        return 0;
      });
      round.delivered = Traced(tracer, "service.RefreshSubscriptions", span,
                               r, [&] { return service_->RefreshSubscriptions(); });
      round.end = Clock::now();
      tracer->End(span, round.end);
      rounds_.push_back(round);
      if (checks_.size() < kCheckRounds && round.delivered == kSubscriptions) {
        CheckPoint c{.round = r, .appends_done = round.appends_done,
                     .answers = mirrors_};
        for (const auto& d : deliveries_) c.epochs.push_back(d.back().epoch);
        checks_.push_back(std::move(c));
      }
    }
    ingest.join();
    Summarize(out);
  }

  void Check() override {
    core::Database ref;
    Populate(spec_, seed_, &ref);
    core::Database full;
    Populate(spec_, seed_, &full);
    for (const Append& a : appends_) {
      if (!a.ok) continue;
      Must(full.AppendObservation(hot_[a.hot], fixes_[a.hot][a.fix]),
           "reference append");
    }
    SelfTest(full);
    core::QueryExecutor exec(&ref, {.num_threads = 1, .cache_capacity = 64});
    size_t compared = 0;
    for (const CheckPoint& c : checks_) {
      for (uint32_t s = 0; s < kSubscriptions; ++s) {
        compared += CheckAnswer(c, s, ref, full, &exec);
      }
    }
    std::printf("reference check: %zu subscription answers over %zu rounds "
                "rebuilt from deltas equal a sequential executor over an "
                "unsharded database at the reported epoch (tolerance %g)\n",
                compared, checks_.size(), kAnswerTolerance);
  }

  void Layers(const ustdb::obs::MetricsRegistry& registry, Tracer* tracer,
              PhaseOutput* out) override {
    ServiceCounters c{before_, service_->stats(), spmv_before_, SpmvPasses(),
                      snap_before_};
    AddServiceLayers(c, registry.Snapshot(), spec_.shards, out);
    std::vector<double> late;
    for (const Append& a : appends_) late.push_back(Millis(a.start - a.due));
    for (const Round& r : rounds_) late.push_back(Millis(r.start - r.due));
    out->layers.Add("loadgen.late_p99_ms", Quantile(late, 0.99), "ms",
                    "generator lateness (call - due) of appends and ticks, "
                    "n=" + std::to_string(late.size()));
    out->layers.Add("loadgen.attempted", static_cast<double>(out->attempted),
                    "count", "subscription refreshes + appends issued");
    out->layers.Add(
        "service.submit_p99_us",
        Quantile(tracer->Durations("service.TickWindows"), 0.99) * 1e6, "us",
        "QueryService::TickWindows call (the monitor's non-blocking entry)");
    // Direct appends on an unsharded database, replaying the same fixes.
    core::Database full;
    Populate(spec_, seed_, &full);
    std::vector<double> direct_us;
    for (const Append& a : appends_) {
      if (!a.ok) continue;
      const Clock::time_point s = Clock::now();
      Must(full.AppendObservation(hot_[a.hot], fixes_[a.hot][a.fix]),
           "reference append");
      const Clock::time_point e = Clock::now();
      tracer->Record("core.database.AppendObservation", s, e, 0, 0);
      direct_us.push_back(Micros(e - s));
    }
    const double direct_p99 = Quantile(direct_us, 0.99);
    const double service_p99 =
        Quantile(tracer->Durations("service.AppendObservation"), 0.99) * 1e6;
    out->layers.Add("core.database.append_p99_us", direct_p99, "us",
                    "Database::AppendObservation replayed, n=" +
                        std::to_string(direct_us.size()));
    out->layers.Add("service.append_lock_wait_p99_us",
                    service_p99 - direct_p99, "us",
                    "p99 service append " + std::to_string(service_p99) +
                        " us - p99 direct append");
    size_t delivered = 0;
    for (const Round& r : rounds_) delivered += r.delivered;
    out->layers.AddRatio("service.subscriptions.deltas_per_tick",
                         static_cast<double>(delivered),
                         static_cast<double>(rounds_.size()),
                         "deltas delivered / tick rounds");
    out->layers.Add(
        "service.subscriptions.failed_refreshes",
        static_cast<double>(kSubscriptions * rounds_.size() - delivered),
        "count", "dirty subscriptions a round did not deliver");
    ReplayInput in{.db = &full};
    const uint32_t last = rounds_.empty() ? 0 : rounds_.size();
    for (uint32_t s = 0; s < kSubscriptions; ++s) {
      core::QueryRequest r = requests_[s];
      r.window = r.window.ShiftedBy(last);
      in.requests.push_back(std::move(r));
    }
    for (ObjectId o : hot_) {
      in.histories.emplace_back(o, requests_[0].window.ShiftedBy(last));
    }
    ReplayLayers(in, tracer, out);
    out->layers.AddRatio("core.planner.bound_plan_frac",
                         static_cast<double>(out->replay_bound_plans),
                         static_cast<double>(out->replay_threshold_plans),
                         "replayed threshold subscriptions planned with the "
                         "bound pass / replayed threshold subscriptions");
  }

 private:
  /// Hot objects, their fix streams (the true state inside each fix), and
  /// the standing requests; all from the seed.
  void MakeInputs() {
    Rng rng(seed_ ^ 0x30a170ull);
    const std::vector<uint32_t> hot =
        rng.SampleWithoutReplacement(spec_.objects, kHot);
    hot_.assign(hot.begin(), hot.end());
    fixes_.assign(kHot, {});
    truth_.assign(kHot, {});
    for (uint32_t i = 0; i < kHot; ++i) {
      const core::Database& shard = db_->shard(db_->shard_of_object(hot_[i]));
      const core::UncertainObject& obj =
          shard.object(db_->local_object(hot_[i]));
      const ustdb::markov::MarkovChain& chain = shard.chain(obj.chain);
      uint32_t state = Draw(obj.initial_pdf(), &rng);
      for (uint32_t k = 1; k <= ticks_; ++k) {
        state = DrawRow(chain.matrix(), state, &rng);
        truth_[i].push_back(state);
        std::vector<std::pair<uint32_t, double>> pairs;
        const uint32_t lo = state >= kFixRadius ? state - kFixRadius : 0;
        const uint32_t hi = std::min(spec_.states - 1, state + kFixRadius);
        for (uint32_t s = lo; s <= hi; ++s) pairs.emplace_back(s, 1.0);
        fixes_[i].push_back(
            {static_cast<ustdb::Timestamp>(k),
             Must(sparse::ProbVector::FromPairs(spec_.states, std::move(pairs),
                                                /*normalize=*/true),
                  "fix pdf")});
      }
    }
    const workload::QueryGenConfig config{.num_states = spec_.states,
                                          .region_extent = 21,
                                          .window_length = 6,
                                          .t_min = 2,
                                          .t_max = 10};
    requests_.clear();
    for (uint32_t s = 0; s < kSubscriptions; ++s) {
      core::QueryRequest r;
      r.window = Must(workload::RandomWindow(config, &rng), "RandomWindow");
      r.predicate = s % 4 == 3 ? core::PredicateKind::kThresholdExists
                               : core::PredicateKind::kExists;
      r.tau = 0.3;
      requests_.push_back(std::move(r));
    }
  }

  static uint32_t Draw(const sparse::ProbVector& pdf, Rng* rng) {
    double x = rng->NextDouble() * pdf.Sum();
    uint32_t pick = 0;
    bool found = false;
    pdf.ForEachNonZero([&](uint32_t s, double p) {
      if (found) return;
      pick = s;
      x -= p;
      found = x < 0;
    });
    return pick;
  }

  static uint32_t DrawRow(const sparse::CsrMatrix& m, uint32_t row, Rng* rng) {
    const auto cols = m.RowIndices(row);
    const auto vals = m.RowValues(row);
    double x = rng->NextDouble();
    for (size_t j = 0; j < cols.size(); ++j) {
      x -= vals[j];
      if (x < 0) return cols[j];
    }
    return cols.back();
  }

  void Summarize(PhaseOutput* out) {
    // The phase ends with the later of the last round and the last append
    // (at the seed the ingest thread falls seconds behind its schedule).
    Clock::time_point end = rounds_.empty() ? t0_ : rounds_.back().end;
    for (const Append& a : appends_) end = std::max(end, a.end);
    const double horizon_ms = Millis(end - t0_);
    const Clock::time_point last_due =
        rounds_.empty() ? t0_ : rounds_.back().due;
    // Staleness: every fix due at least two ticks before the last round,
    // against each subscription it dirties (all of them: no filters).
    std::vector<Sample> staleness;
    size_t slo_miss = 0;
    for (const Append& a : appends_) {
      if (a.due + 2 * kTick > last_due) continue;
      for (uint32_t s = 0; s < kSubscriptions; ++s) {
        Sample x{0, true};
        if (a.ok) {
          const auto& d = deliveries_[s];
          const auto it = std::lower_bound(
              d.begin(), d.end(), a.version,
              [](const Delivery& x, ustdb::DataVersion v) {
                return x.epoch < v;
              });
          if (it != d.end()) x = {Millis(it->at - a.due), false};
        }
        slo_miss += x.miss || x.value > kStalenessLimitMs;
        staleness.push_back(x);
      }
    }
    // Refresh: one sample per (round, subscription), from the round's due
    // time to that subscription's delivery; an undelivered one is a miss.
    std::vector<Sample> refresh;
    std::vector<std::map<uint32_t, Clock::time_point>> by_round(
        kSubscriptions);
    for (uint32_t s = 0; s < kSubscriptions; ++s) {
      for (const Delivery& d : deliveries_[s]) by_round[s][d.round] = d.at;
    }
    size_t delivered = 0, first_failed = 0;
    std::vector<double> round_ms;
    for (size_t r = 0; r < rounds_.size(); ++r) {
      delivered += rounds_[r].delivered;
      round_ms.push_back(Millis(rounds_[r].end - rounds_[r].start));
      if (first_failed == 0 && rounds_[r].delivered < kSubscriptions) {
        first_failed = r + 1;
      }
      for (uint32_t s = 0; s < kSubscriptions; ++s) {
        const auto it = by_round[s].find(static_cast<uint32_t>(r + 1));
        refresh.push_back(it == by_round[s].end()
                              ? Sample{0, true}
                              : Sample{Millis(it->second - rounds_[r].due),
                                       false});
      }
    }
    std::vector<Sample> ingest;
    size_t failed_appends = 0;
    for (const Append& a : appends_) {
      ingest.push_back({Micros(a.end - a.due), !a.ok});
      failed_appends += !a.ok;
    }
    const size_t refreshes = kSubscriptions * rounds_.size();
    out->attempted = refreshes + appends_.size();
    out->failed = (refreshes - delivered) + failed_appends;
    const std::string fixes = "(fix, subscription) pairs";
    const Pct s50 = Percentile(staleness, 0.50, horizon_ms);
    const Pct s99 = Percentile(staleness, 0.99, horizon_ms);
    out->e2e.AddPct("latency_p50_ms", s50, "ms",
                    fixes + ", fix due -> first delta at its epoch");
    out->e2e.AddPct("latency_p99_ms", s99, "ms",
                    fixes + ", fix due -> first delta at its epoch");
    const size_t completed = delivered + appends_.size() - failed_appends;
    out->e2e.Add("throughput_qps", completed / Seconds(end - t0_), "1/s",
                 std::to_string(completed) +
                     " completed operations (delivered subscription answers " +
                     std::to_string(delivered) + " + applied appends)");
    out->e2e.AddRatio("error_frac", static_cast<double>(out->failed),
                      static_cast<double>(out->attempted),
                      "(undelivered subscription refreshes + failed appends) "
                      "/ (refreshes + appends)");
    out->e2e.AddRatio("slo_miss_frac", static_cast<double>(slo_miss),
                      static_cast<double>(staleness.size()),
                      fixes + " undelivered or staler than 2 ticks / pairs");
    out->e2e.AddPct("refresh_p50_ms", Percentile(refresh, 0.50, horizon_ms),
                    "ms", "(round, subscription) pairs from the round's due");
    out->e2e.AddPct("refresh_p99_ms", Percentile(refresh, 0.99, horizon_ms),
                    "ms", "(round, subscription) pairs from the round's due");
    out->e2e.AddPct("staleness_p50_ms", s50, "ms", fixes);
    out->e2e.AddPct("staleness_p99_ms", s99, "ms", fixes);
    out->e2e.AddPct("ingest_p99_us",
                    Percentile(ingest, 0.99, horizon_ms * 1e3), "us",
                    "AppendObservation calls from their due time");
    out->e2e.AppendNote(
        "error_frac",
        first_failed == 0
            ? std::string("no round failed")
            : "first round with an undelivered refresh: " +
                  std::to_string(first_failed) + " of " +
                  std::to_string(rounds_.size()) + ", started " +
                  std::to_string(Millis(rounds_[first_failed - 1].start - t0_)) +
                  " ms in, after " +
                  std::to_string(rounds_[first_failed - 1].appends_done) +
                  " appends (" +
                  std::to_string(rounds_[first_failed - 1].appends_done / kHot) +
                  " fixes per hot object)");
    out->e2e.AppendNote("refresh_p50_ms",
                        "round duration p50 " +
                            std::to_string(Quantile(round_ms, 0.5)) +
                            " ms, max " + std::to_string(Quantile(round_ms, 1.0)) +
                            " ms, tick " + std::to_string(kTickMs) + " ms");
    const service::ServiceStats st = service_->stats();
    out->e2e.AppendNote(
        "error_frac",
        "service outcomes over the phase: failed " +
            std::to_string(st.failed - before_.failed) + ", rejected " +
            std::to_string(st.rejected - before_.rejected) +
            ", deadline " +
            std::to_string(st.deadline_expired - before_.deadline_expired));
    out->headline = "throughput_qps";
    out->headline_higher_is_better = true;
  }

  /// Compares subscription `s` of checkpoint `c` with the reference;
  /// returns 1 (dies on a difference).
  size_t CheckAnswer(const CheckPoint& c, uint32_t s, const core::Database& ref,
                     const core::Database& full, core::QueryExecutor* exec) {
    const core::QueryRequest& request = requests_[s];
    const core::QueryWindow window = request.window.ShiftedBy(c.round);
    const core::QueryResult base = Must(
        exec->Run({.predicate = core::PredicateKind::kExists, .window = window}),
        "reference executor");
    const bool threshold =
        request.predicate == core::PredicateKind::kThresholdExists;
    const std::map<ObjectId, double>& served = c.answers[s];
    std::map<ObjectId, uint32_t> hot_index;
    for (uint32_t i = 0; i < kHot; ++i) hot_index[hot_[i]] = i;
    for (ObjectId o = 0; o < ref.num_objects(); ++o) {
      // Candidate histories: every fix appended before the round began is
      // in; fixes appended during the round are in when their version is
      // at most the reported epoch (the shard may have run before them).
      std::vector<double> candidates;
      const auto hot = hot_index.find(o);
      if (hot == hot_index.end()) {
        candidates.push_back(base.probabilities[o].probability);
      } else {
        size_t lo = 0, hi = 0;
        for (size_t j = 0; j < appends_.size(); ++j) {
          const Append& a = appends_[j];
          if (a.hot != hot->second || !a.ok) continue;
          lo += j < c.appends_done;
          hi += a.version <= c.epochs[s];
        }
        for (size_t n = lo; n <= hi; ++n) {
          candidates.push_back(HistoryProbability(full, o, n, window,
                                                  base.probabilities[o]));
        }
      }
      const auto it = served.find(o);
      bool match = false;
      for (double p : candidates) {
        if (std::isnan(p)) continue;
        const bool border = std::fabs(p - request.tau) <= kAnswerTolerance;
        const bool in = !threshold || p >= request.tau;
        if (it == served.end()) {
          match |= threshold && (!in || border);
        } else {
          match |= (in || border) &&
                   std::fabs(it->second - p) <= kAnswerTolerance;
        }
      }
      if (!match) {
        Die("round %u subscription %u: object %u answer %s disagrees with "
            "the reference",
            c.round, s, o,
            it == served.end() ? "(absent)"
                               : std::to_string(it->second).c_str());
      }
    }
    return 1;
  }

  /// P∃ of object `o` with its first `fixes` fixes; the single-observation
  /// answer when `fixes` is 0, NaN when the history is inconsistent.
  double HistoryProbability(const core::Database& full, ObjectId o,
                            size_t fixes, const core::QueryWindow& window,
                            const core::ObjectProbability& single) {
    if (fixes == 0) return single.probability;
    const core::UncertainObject& obj = full.object(o);
    const std::vector<core::Observation> prefix(
        obj.observations.begin(), obj.observations.begin() + 1 + fixes);
    core::MultiObservationEngine engine(&full.chain(obj.chain), window);
    const auto r = engine.Evaluate(prefix);
    return r.ok() ? r->exists_probability : std::nan("");
  }

  /// Every fix holds its object's true state, and every history prefix
  /// answers under eager normalization (every prefix under the first
  /// subscription's window, the full history under every window); records
  /// where the default (lazy) normalization first fails.
  void SelfTest(const core::Database& full) {
    std::vector<uint32_t> onset(kHot, 0);
    size_t longest = 0;
    std::vector<std::thread> workers;
    std::atomic<bool> broken{false};
    for (uint32_t w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        for (uint32_t i = w; i < kHot; i += 4) {
          const core::UncertainObject& obj = full.object(hot_[i]);
          const size_t n = obj.observations.size() - 1;
          for (size_t k = 0; k < n; ++k) {
            if (!(fixes_[i][k].pdf.Get(truth_[i][k]) > 0)) broken = true;
          }
          for (size_t len = 1; len <= n; ++len) {
            const std::vector<core::Observation> prefix(
                obj.observations.begin(), obj.observations.begin() + 1 + len);
            const core::QueryWindow window =
                requests_[0].window.ShiftedBy(static_cast<ustdb::Timestamp>(len));
            core::MultiObservationEngine eager(
                &full.chain(obj.chain), window, {.eager_normalization = true});
            if (!eager.Evaluate(prefix).ok()) broken = true;
            // Onset: the first prefix the default (lazy) engine rejects
            // under any subscription's window at that tick.
            for (uint32_t s = 0; s < kSubscriptions && onset[i] == 0; ++s) {
              core::MultiObservationEngine lazy(
                  &full.chain(obj.chain),
                  requests_[s].window.ShiftedBy(
                      static_cast<ustdb::Timestamp>(len)));
              if (!lazy.Evaluate(prefix).ok()) onset[i] = len;
            }
          }
          // The full history also answers eagerly under every window.
          for (uint32_t s = 0; s < kSubscriptions; ++s) {
            core::MultiObservationEngine eager(
                &full.chain(obj.chain),
                requests_[s].window.ShiftedBy(static_cast<ustdb::Timestamp>(n)),
                {.eager_normalization = true});
            if (!eager.Evaluate(obj.observations).ok()) broken = true;
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    if (broken) {
      Die("observation-stream self-test failed: a fix misses its true state "
          "or a prefix is inconsistent under eager normalization");
    }
    for (uint32_t i = 0; i < kHot; ++i) {
      longest = std::max(longest, full.object(hot_[i]).observations.size() - 1);
    }
    std::vector<double> failed;
    for (uint32_t v : onset) {
      if (v > 0) failed.push_back(v);
    }
    std::printf("observation-stream self-test: %u hot objects, histories of "
                "up to %zu fixes; every fix holds the true state and every "
                "prefix answers under eager normalization. Default (lazy) "
                "normalization reports kInconsistent for %zu of %u objects, "
                "first at fix %g (median onset %g)\n",
                kHot, longest, failed.size(), kHot,
                failed.empty() ? 0.0 : Quantile(failed, 0.0),
                Quantile(failed, 0.5));
  }

  const uint64_t seed_;
  const uint32_t ticks_;  ///< fix stream length per hot object
  const DataSpec spec_{.states = 4'000, .objects = 1'000, .clusters = 2,
                       .variants = 6, .shards = 2};
  std::unique_ptr<core::ShardedDatabase> db_;
  std::unique_ptr<service::QueryService> service_;
  std::vector<ObjectId> hot_;
  std::vector<std::vector<core::Observation>> fixes_;
  std::vector<std::vector<uint32_t>> truth_;
  std::vector<core::QueryRequest> requests_;
  std::vector<std::map<ObjectId, double>> mirrors_;
  std::vector<std::vector<Delivery>> deliveries_;
  uint32_t round_ = 0;  ///< round the tick thread is refreshing
  Clock::time_point t0_;
  std::vector<Append> appends_;
  std::vector<Round> rounds_;
  std::vector<CheckPoint> checks_;
  ustdb::obs::MetricsRegistry* registry_ = nullptr;
  service::ServiceStats before_;
  double spmv_before_ = 0;
  ustdb::obs::MetricsSnapshot snap_before_;
};

}  // namespace

std::unique_ptr<Workload> MakeMonitor(uint64_t seed, double seconds) {
  return std::make_unique<Monitor>(seed, seconds);
}

}  // namespace e2e
