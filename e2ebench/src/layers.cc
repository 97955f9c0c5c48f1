// Per-layer attribution from outside the program: counters and histograms
// the service already exports, and a timed replay of a fixed input sample
// through each lower layer's public functions.

#include <algorithm>
#include <map>
#include <optional>

#include "workloads.h"

namespace e2e {

namespace core = ustdb::core;
namespace obs = ustdb::obs;
namespace sparse = ustdb::sparse;
namespace markov = ustdb::markov;

namespace {

bool Matches(const obs::MetricPoint& p, const std::string& key,
             const std::string& value) {
  if (key.empty()) return true;
  const auto it = p.labels.find(key);
  return it != p.labels.end() && it->second == value;
}

const obs::MetricFamily* Find(const obs::MetricsSnapshot& snap,
                              const std::string& family) {
  for (const obs::MetricFamily& f : snap.families) {
    if (f.name == family) return &f;
  }
  return nullptr;
}

/// Bucket-wise a - b (same fixed grid).
obs::HistogramData Minus(const obs::HistogramData& a,
                         const obs::HistogramData& b) {
  obs::HistogramData d = a;
  for (size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
    d.buckets[i] -= b.buckets[i];
  }
  d.count -= b.count;
  d.sum -= b.sum;
  return d;
}

/// Sum of the counter points of `family` whose labels hold key=value
/// (every point when `key` is empty).
double CounterSum(const obs::MetricsSnapshot& snap, const std::string& family,
                  const std::string& key = "", const std::string& value = "") {
  const obs::MetricFamily* f = Find(snap, family);
  double total = 0;
  if (f == nullptr) return total;
  for (const obs::MetricPoint& p : f->points) {
    if (Matches(p, key, value)) total += p.value;
  }
  return total;
}

/// Bucket-wise merge of the histogram points of `family` matching the
/// label filter.
obs::HistogramData HistogramMerge(const obs::MetricsSnapshot& snap,
                                  const std::string& family,
                                  const std::string& key,
                                  const std::string& value) {
  std::vector<obs::HistogramData> parts;
  if (const obs::MetricFamily* f = Find(snap, family)) {
    for (const obs::MetricPoint& p : f->points) {
      if (Matches(p, key, value)) parts.push_back(p.histogram);
    }
  }
  if (parts.empty()) {
    obs::HistogramData empty;
    empty.buckets.assign(obs::HistogramBucketBounds().size() + 1, 0);
    return empty;
  }
  return obs::MergeHistograms(parts);
}

/// Per-shard sums of one histogram family over the phase.
std::map<std::string, double> ShardSums(const obs::MetricsSnapshot& after,
                                        const obs::MetricsSnapshot& before,
                                        const std::string& family) {
  std::map<std::string, double> sums;
  for (const obs::MetricsSnapshot* snap : {&after, &before}) {
    const obs::MetricFamily* f = Find(*snap, family);
    if (f == nullptr) continue;
    for (const obs::MetricPoint& p : f->points) {
      const auto it = p.labels.find("shard");
      const std::string shard = it == p.labels.end() ? "-" : it->second;
      sums[shard] += (snap == &after ? 1 : -1) * p.histogram.sum;
    }
  }
  return sums;
}

/// Field-wise difference of two ServiceStats snapshots.
struct StatsDelta {
  const ustdb::service::ServiceStats& before;
  const ustdb::service::ServiceStats& after;
  double operator()(uint64_t ustdb::service::ServiceStats::*field) const {
    return static_cast<double>(after.*field - before.*field);
  }
};

/// Keeps replayed results observable to the optimizer.
volatile double g_sink = 0;

double P50(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string Calls(const std::vector<double>& v) {
  return v.empty() ? "no calls on this workload"
                   : "p50 over " + std::to_string(v.size()) + " replayed calls";
}

/// Stream triad a = b + s*c over arrays larger than the last-level cache;
/// best of five passes. Bytes: 3 x 8 per element (reads of b, c and the
/// write of a; write-allocate traffic not counted).
double StreamTriadGbps() {
  const size_t n = size_t{1} << 21;  // 16 MiB per array
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point s = Clock::now();
    for (size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, Seconds(Clock::now() - s));
    b[rep] = a[n - 1 - rep];  // keep every pass observable
  }
  return 3.0 * 8.0 * static_cast<double>(n) / best / 1e9;
}

}  // namespace

double SpmvPasses() {
  return CounterSum(obs::MetricsRegistry::Global()->Snapshot(),
                    "ustdb_kernel_spmv_passes_total");
}

void AddServiceLayers(const ServiceCounters& c,
                      const obs::MetricsSnapshot& snap, uint32_t shards,
                      PhaseOutput* out) {
  Report& L = out->layers;
  const obs::MetricsSnapshot& pre = c.snap_before;
  const auto hist = [&](const std::string& family, const std::string& key = "",
                        const std::string& value = "") {
    return Minus(HistogramMerge(snap, family, key, value),
                 HistogramMerge(pre, family, key, value));
  };
  const auto count = [&](const std::string& family, const std::string& key = "",
                         const std::string& value = "") {
    return CounterSum(snap, family, key, value) -
           CounterSum(pre, family, key, value);
  };
  const obs::HistogramData wait = hist("ustdb_service_queue_wait_seconds");
  const obs::HistogramData dispatch = hist("ustdb_service_dispatch_seconds");
  L.Add("service.queue_wait_p99_ms",
        obs::PercentileFromBuckets(wait, 0.99) * 1e3, "ms",
        "ustdb_service_queue_wait_seconds bucket bound, n=" +
            std::to_string(wait.count));
  L.Add("service.dispatch_p50_ms",
        obs::PercentileFromBuckets(dispatch, 0.5) * 1e3, "ms",
        "ustdb_service_dispatch_seconds bucket bound, n=" +
            std::to_string(dispatch.count));
  const StatsDelta d{c.before, c.after};
  const double coalesced = d(&ustdb::service::ServiceStats::coalesced_requests);
  const double solo = d(&ustdb::service::ServiceStats::solo_dispatches);
  L.AddRatio("service.coalesce_frac", coalesced, coalesced + solo,
             "dispatched entries that shared a RunBatch / dispatched entries");
  L.Add("service.refused",
        d(&ustdb::service::ServiceStats::rejected) +
            d(&ustdb::service::ServiceStats::shed_bulk) +
            d(&ustdb::service::ServiceStats::shed_interactive),
        "count", "rejected + shed tickets");
  const double submitted = d(&ustdb::service::ServiceStats::submitted);
  const double scattered = d(&ustdb::service::ServiceStats::scatter_requests);
  const double subtasks = d(&ustdb::service::ServiceStats::scatter_subtasks);
  L.AddRatio("core.shard_router.fanout", subtasks + (submitted - scattered),
             submitted, "shard sub-requests / submitted requests");
  const std::map<std::string, double> busy =
      ShardSums(snap, pre, "ustdb_service_dispatch_seconds");
  double max_busy = 0, total_busy = 0;
  for (const auto& [shard, s] : busy) {
    max_busy = std::max(max_busy, s);
    total_busy += s;
  }
  L.AddRatio("core.shard_router.load_skew", max_busy * shards, total_busy,
             "busiest shard's dispatch seconds x shards / all shards' "
             "dispatch seconds");
  const ustdb::core::EngineCacheStats& a = c.after.cache;
  const ustdb::core::EngineCacheStats& b = c.before.cache;
  const double hits = a.hits - b.hits, misses = a.misses - b.misses;
  L.AddRatio("core.engine_cache.hit_frac", hits, hits + misses,
             "query-based store hits / lookups");
  L.Add("core.engine_cache.evictions",
        static_cast<double>(a.evictions - b.evictions), "count",
        "query-based store evictions");
  const double bhits = a.bound_hits - b.bound_hits;
  const double bmiss = a.bound_misses - b.bound_misses;
  L.AddRatio("core.engine_cache.bound_hit_frac", bhits, bhits + bmiss,
             "envelope + bound-pass hits / lookups");
  L.AddRatio("core.engine_cache.shift_extend_frac",
             static_cast<double>(a.shift_extends - b.shift_extends), misses,
             "query-based misses served by extending a shifted pass / misses");
  L.Add("core.engine_cache.invalidations",
        static_cast<double>(a.invalidations - b.invalidations), "count",
        "stale-epoch entries dropped");
  const double qb = count("ustdb_exec_chains_total", "plan", "query_based");
  const double ob = count("ustdb_exec_chains_total", "plan", "object_based");
  L.AddRatio("core.planner.qb_chain_frac", qb, qb + ob,
             "chain classes planned query-based / chain classes planned");
  const double by_bounds =
      count("ustdb_prune_objects_total", "outcome", "decided_by_bounds");
  const double refined = count("ustdb_prune_objects_total", "outcome", "refined");
  L.AddRatio("markov.interval_chain.pruned_frac", by_bounds,
             by_bounds + refined,
             "objects dropped by the bound pass / objects the bound pass saw");
  L.Add("core.multi_observation.objects",
        count("ustdb_exec_objects_total", "kind", "multi"), "count",
        "objects answered by the multi-observation engine");
  for (const char* stage : {"plan", "bound", "engine_build", "evaluate"}) {
    const obs::HistogramData h = hist("ustdb_exec_stage_seconds", "stage", stage);
    L.Add(std::string("core.executor.stage_") + stage + "_s", h.sum, "s",
          "sum of ustdb_exec_stage_seconds{stage=" + std::string(stage) +
              "} over the phase, n=" + std::to_string(h.count));
  }
  L.Add("core.executor.objects_evaluated", count("ustdb_exec_objects_total"),
        "count", "objects answered, every engine");
  L.Add("kernels.spmv_passes", c.spmv_after - c.spmv_before, "count",
        "ustdb_kernel_spmv_passes_total over the phase");
}

void ReplayLayers(const ReplayInput& in, Tracer* tracer, PhaseOutput* out) {
  const core::Database& db = *in.db;
  const core::QueryPlanner planner(&db);
  std::vector<double> plan_us, build_ms, extend_ms, ktimes_ms, multi_ms,
      envelope_ms, bound_ms;
  double layer_s = 0, run_s = 0;
  size_t inconsistent = 0, threshold_plans = 0, bound_plans = 0;
  size_t run_failures = 0;
  // Times one call as a span under `parent` and returns its seconds.
  const auto timed = [&](const char* name, uint64_t parent, uint64_t request,
                         auto&& fn) {
    const Clock::time_point s = Clock::now();
    fn();
    const Clock::time_point e = Clock::now();
    tracer->Record(name, s, e, parent, request);
    return Seconds(e - s);
  };
  // Untimed warm-up: builds every chain's lazily cached transpose, which
  // the served phase had already paid for.
  if (!in.requests.empty()) {
    core::QueryExecutor exec(&db, {.num_threads = 1});
    (void)exec.Run(in.requests.front());
  }
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const core::QueryRequest& request = in.requests[i];
    const uint64_t rid = i + 1;
    const uint64_t root = tracer->Begin("replay.request", 0, rid);
    // Reference run: one sequential executor, cold cache. Timed whatever
    // its status: on `monitor` the seed's underflow defect fails it.
    {
      core::QueryExecutor exec(&db, {.num_threads = 1});
      run_s += timed("replay.QueryExecutor.Run", root, rid,
                     [&] { run_failures += !exec.Run(request).ok(); });
    }
    const core::QueryWindow window =
        request.predicate == core::PredicateKind::kForAll
            ? request.window.WithComplementRegion()
            : request.window;
    // Single-observation objects per chain (the planner's census).
    std::map<ChainId, std::vector<ObjectId>> by_chain;
    const auto add = [&](ObjectId o) {
      if (!db.object(o).needs_multi_observation_engine()) {
        by_chain[db.object(o).chain].push_back(o);
      }
    };
    if (request.object_filter) {
      for (ObjectId o : *request.object_filter) add(o);
    } else {
      for (ObjectId o = 0; o < db.num_objects(); ++o) add(o);
    }
    double layers = 0;
    std::map<ChainId, std::vector<ObjectId>> refine = by_chain;
    if (request.predicate == core::PredicateKind::kThresholdExists) {
      std::vector<core::ChainLoad> loads;
      for (const auto& [chain, objs] : by_chain) {
        loads.push_back({chain, static_cast<uint32_t>(objs.size())});
      }
      core::PlanDecision decision;
      const double s = timed("core.planner.ChooseThresholdPlan", root, rid, [&] {
        decision = planner.ChooseThresholdPlan(request.window,
                                               request.matrix_mode,
                                               request.plan, loads);
      });
      plan_us.push_back(s * 1e6);
      layers += s;
      ++threshold_plans;
      if (decision.plan == core::Plan::kBoundsThenRefine) {
        ++bound_plans;
        refine.clear();
        for (const core::ChainCluster& cluster : db.chain_clusters()) {
          std::vector<const markov::MarkovChain*> members;
          std::vector<ObjectId> objs;
          for (ChainId m : cluster.members) {
            members.push_back(&db.chain(m));
            if (by_chain.count(m)) {
              objs.insert(objs.end(), by_chain[m].begin(), by_chain[m].end());
            }
          }
          if (objs.empty()) continue;
          std::optional<markov::IntervalMarkovChain> env;
          double t = timed("markov.interval_chain.FromChains", root, rid, [&] {
            env.emplace(Must(markov::IntervalMarkovChain::FromChains(members),
                             "FromChains"));
          });
          envelope_ms.push_back(t * 1e3);
          layers += t;
          std::vector<markov::ProbBound> bounds;
          t = timed("markov.interval_chain.BoundExists", root, rid, [&] {
            bounds = env->BoundExists(request.window.region(),
                                      request.window.t_begin(),
                                      request.window.t_end(), false);
          });
          bound_ms.push_back(t * 1e3);
          layers += t;
          for (ObjectId o : objs) {
            double hi = 0;
            db.object(o).initial_pdf().ForEachNonZero(
                [&](uint32_t st, double p) { hi += p * bounds[st].hi; });
            if (hi >= request.tau) refine[db.object(o).chain].push_back(o);
          }
        }
      }
    }
    for (const auto& [chain, objs] : refine) {
      if (objs.empty()) continue;
      if (request.predicate != core::PredicateKind::kThresholdExists) {
        const double s = timed("core.planner.Choose", root, rid, [&] {
          planner.Choose(chain, request, static_cast<uint32_t>(objs.size()));
        });
        plan_us.push_back(s * 1e6);
        layers += s;
      }
      const markov::MarkovChain* m = &db.chain(chain);
      if (request.predicate == core::PredicateKind::kKTimes) {
        for (ObjectId o : objs) {
          const core::KTimesEngine engine(m, window);
          const double s = timed("core.k_times.Distribution", root, rid, [&] {
            engine.Distribution(db.object(o).initial_pdf());
          });
          ktimes_ms.push_back(s * 1e3);
          layers += s;
        }
        continue;
      }
      std::optional<core::QueryBasedEngine> engine;
      double s = timed("core.query_based.Build", root, rid,
                       [&] { engine.emplace(m, window); });
      build_ms.push_back(s * 1e3);
      layers += s;
      double sum = 0;
      s = timed("core.query_based.Evaluate", root, rid, [&] {
        for (ObjectId o : objs) {
          sum += engine->ExistsProbability(db.object(o).initial_pdf());
        }
      });
      layers += s;
      g_sink = sum;
      // The shift constructor is timed but not attributed: the cold
      // request never runs it.
      s = timed("core.query_based.Extend", root, rid, [&] {
        core::QueryBasedEngine shifted(*engine, window.ShiftedBy(1), 1);
      });
      extend_ms.push_back(s * 1e3);
    }
    layer_s += layers;
    tracer->End(root);
  }
  for (const auto& [o, window] : in.histories) {
    const core::UncertainObject& obj = db.object(o);
    const core::MultiObservationEngine engine(&db.chain(obj.chain), window);
    bool ok = true;
    const double s = timed("core.multi_observation.Evaluate", 0, 0, [&] {
      ok = engine.Evaluate(obj.observations).ok();
    });
    multi_ms.push_back(s * 1e3);
    inconsistent += !ok;
  }
  // SpMV: dense x times chain 0 through the gather kernel, repeated.
  const markov::MarkovChain& chain = db.chain(0);
  const uint32_t n = chain.num_states();
  const sparse::ProbVector x = Must(
      sparse::ProbVector::FromDense(std::vector<double>(n, 1.0 / n)), "x");
  sparse::ProbVector y = sparse::ProbVector::Zero(n);
  sparse::VecMatWorkspace ws;
  const sparse::CsrMatrix& t = chain.transposed();
  ws.Multiply(x, chain.matrix(), &y, &t);
  size_t reps = 0;
  const Clock::time_point s0 = Clock::now();
  while (Seconds(Clock::now() - s0) < 0.25) {
    ws.Multiply(x, chain.matrix(), &y, &t);
    ++reps;
  }
  const double spmv_s = Seconds(Clock::now() - s0) / reps;
  tracer->Record("kernels.VecMat", s0, Clock::now(), 0, 0);
  const double bytes =
      static_cast<double>(chain.matrix().nnz()) * (8 + 4) +
      static_cast<double>(n) * (sizeof(sparse::NnzIndex) + 8 + 8);
  const double spmv_gbps = bytes / spmv_s / 1e9;
  const double stream_gbps = StreamTriadGbps();

  Report& L = out->layers;
  L.Add("core.planner.plan_p50_us", P50(plan_us), "us", Calls(plan_us));
  L.Add("core.query_based.build_p50_ms", P50(build_ms), "ms", Calls(build_ms));
  L.Add("core.query_based.extend_p50_ms", P50(extend_ms), "ms",
        Calls(extend_ms) + " (shift by 1 of each built pass)");
  L.Add("core.k_times.eval_p50_ms", P50(ktimes_ms), "ms", Calls(ktimes_ms));
  L.Add("core.multi_observation.eval_p50_ms", P50(multi_ms), "ms",
        Calls(multi_ms));
  L.Add("core.multi_observation.inconsistent", static_cast<double>(inconsistent),
        "count",
        "replayed full histories answering kInconsistent, of " +
            std::to_string(multi_ms.size()));
  L.Add("markov.interval_chain.envelope_ms", P50(envelope_ms), "ms",
        Calls(envelope_ms));
  L.Add("markov.interval_chain.bound_p50_ms", P50(bound_ms), "ms",
        Calls(bound_ms));
  L.Add("kernels.spmv_gbps", spmv_gbps, "GB/s",
        "modelled bytes (12 per nnz + 24 per row) / time of one dense gather "
        "pass over chain 0, " + std::to_string(n) + " states, " +
            std::to_string(reps) + " passes");
  L.Add("kernels.stream_gbps", stream_gbps, "GB/s",
        "stream triad over 3 x 16 MiB, best of 5 (24 bytes per element)");
  L.AddRatio("kernels.roofline_frac", spmv_gbps, stream_gbps,
             "GB/s, spmv / stream (above 1 when the matrix stays in cache)");
  L.AddRatio("trace.unattributed_frac", run_s - layer_s, run_s,
             "s, replayed executor runs not covered by the replayed layer "
             "calls / replayed executor runs (" +
                 std::to_string(run_failures) + " of " +
                 std::to_string(in.requests.size()) + " runs failed)");
  out->replay_threshold_plans = threshold_plans;
  out->replay_bound_plans = bound_plans;
}

namespace {

struct Tag {
  const char* prefix;
  const char* moves;
  const char* works_on;
  const char* unchanged_on;
};

// Which end-to-end metric each layer metric should move, on which
// workload, and where it is predicted unchanged.
constexpr Tag kTags[] = {
    {"loadgen.", "validity of latency_* and staleness_*", "dashboard monitor",
     "backfill"},
    {"service.submit", "latency_p50_ms latency_p99_ms", "dashboard", "backfill"},
    {"service.queue_wait", "latency_p50_ms latency_p99_ms", "dashboard",
     "backfill"},
    {"service.dispatch", "latency_p50_ms latency_p99_ms", "dashboard",
     "backfill"},
    {"service.coalesce", "latency_p50_ms latency_p99_ms", "dashboard",
     "backfill"},
    {"service.refused", "latency_p50_ms latency_p99_ms", "dashboard",
     "backfill"},
    {"core.shard_router.", "throughput_qps", "backfill", "dashboard"},
    {"core.planner.", "throughput_qps refresh_p50_ms", "backfill monitor",
     "dashboard"},
    {"core.engine_cache.shift", "refresh_p50_ms staleness_p50_ms", "monitor",
     "dashboard backfill"},
    {"core.engine_cache.invalidations", "refresh_p50_ms staleness_p50_ms",
     "monitor", "dashboard backfill"},
    {"core.engine_cache.", "latency_p50_ms", "dashboard", "backfill"},
    {"core.query_based.", "throughput_qps", "backfill", "dashboard"},
    {"kernels.", "throughput_qps", "backfill", "dashboard"},
    {"markov.interval_chain.", "throughput_qps", "backfill", "dashboard"},
    {"core.k_times.", "latency_p99_ms", "dashboard", "backfill monitor"},
    {"core.multi_observation.", "refresh_* staleness_* error_frac", "monitor",
     "dashboard backfill"},
    {"core.database.", "ingest_p99_us", "monitor", "dashboard backfill"},
    {"service.append", "ingest_p99_us", "monitor", "dashboard backfill"},
    {"service.subscriptions.", "refresh_* staleness_*", "monitor",
     "dashboard backfill"},
    {"core.executor.", "breakdown of latency_p50_ms and throughput_qps",
     "dashboard backfill monitor", ""},
    {"trace.", "-", "dashboard backfill monitor", ""},
};

bool Contains(const std::string& list, const std::string& word) {
  const std::string padded = " " + list + " ";
  return padded.find(" " + word + " ") != std::string::npos;
}

}  // namespace

void TagLayers(const std::string& workload, PhaseOutput* out) {
  for (const std::string& name : out->layers.Names()) {
    for (const Tag& t : kTags) {
      if (name.rfind(t.prefix, 0) != 0) continue;
      const char* role = Contains(t.works_on, workload)       ? "does the work"
                         : Contains(t.unchanged_on, workload) ? "predicted unchanged"
                                                              : "not predicted";
      out->layers.AppendNote(
          name, std::string("[moves ") + t.moves + " on " + t.works_on +
                    "; " + workload + ": " + role + "]");
      break;
    }
  }
}

}  // namespace e2e
