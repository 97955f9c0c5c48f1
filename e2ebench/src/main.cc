// ustdb_e2e — one end-to-end run of one workload.
//
//   ustdb_e2e --workload dashboard|backfill|monitor --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 sets up five times (setup_s is the median), runs the timed
// phase untraced, checks answers and prints the end-to-end metrics.
// --trace 1 runs a half-length untraced phase for the overhead baseline,
// then a traced phase whose spans, registry histograms and layer replay give the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; any wrong answer or
// refused environment exits 1 without it.

#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

using namespace e2e;

constexpr int kSetups = 5;

/// Metrics of the --trace 0 result line (BENCHMARK.json end_to_end).
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_p99_ms",
    "throughput_qps"};

/// Metrics of the --trace 1 result line (BENCHMARK.json per_layer): the
/// workload-specific end-to-end metrics, then the layers.
const std::vector<std::string> kPerLayer = {
    "error_frac",
    "slo_miss_frac",
    "refresh_p50_ms",
    "refresh_p99_ms",
    "staleness_p50_ms",
    "staleness_p99_ms",
    "ingest_p99_us",
    "loadgen.late_p99_ms",
    "loadgen.attempted",
    "service.submit_p99_us",
    "service.queue_wait_p99_ms",
    "service.dispatch_p50_ms",
    "service.coalesce_frac",
    "service.refused",
    "core.shard_router.fanout",
    "core.shard_router.load_skew",
    "core.planner.plan_p50_us",
    "core.planner.qb_chain_frac",
    "core.planner.bound_plan_frac",
    "core.engine_cache.hit_frac",
    "core.engine_cache.evictions",
    "core.engine_cache.bound_hit_frac",
    "core.engine_cache.shift_extend_frac",
    "core.engine_cache.invalidations",
    "core.query_based.build_p50_ms",
    "core.query_based.extend_p50_ms",
    "kernels.spmv_passes",
    "kernels.spmv_gbps",
    "kernels.stream_gbps",
    "kernels.roofline_frac",
    "markov.interval_chain.envelope_ms",
    "markov.interval_chain.bound_p50_ms",
    "markov.interval_chain.pruned_frac",
    "core.k_times.eval_p50_ms",
    "core.multi_observation.eval_p50_ms",
    "core.multi_observation.objects",
    "core.multi_observation.inconsistent",
    "core.database.append_p99_us",
    "service.append_lock_wait_p99_us",
    "service.subscriptions.deltas_per_tick",
    "service.subscriptions.failed_refreshes",
    "core.executor.stage_plan_s",
    "core.executor.stage_bound_s",
    "core.executor.stage_engine_build_s",
    "core.executor.stage_evaluate_s",
    "core.executor.objects_evaluated",
    "trace.overhead_frac",
    "trace.unattributed_frac",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      Die("unknown argument %s", key.c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !(a.seconds >= 1 && a.seconds <= 60) ||
      (a.trace != 0 && a.trace != 1)) {
    Die("usage: ustdb_e2e --workload dashboard|backfill|monitor --seed N "
        "--seconds 1..60 --trace 0|1 [--trace-out FILE]");
  }
  return a;
}

std::string Env(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "(unset)" : v;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (std::getenv("USTDB_FAULT_SPEC") != nullptr) {
    Die("USTDB_FAULT_SPEC is set; the benchmark measures the fault-free "
        "program and refuses to run");
  }
#ifndef NDEBUG
  Die("assertions are live (NDEBUG undefined); build with "
      "CMAKE_BUILD_TYPE=Release");
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    Die("build type is %s; the benchmark runs only a Release build",
        E2E_BUILD_TYPE);
  }
  std::unique_ptr<Workload> w;
  if (args.workload == "dashboard") {
    w = MakeDashboard(args.seed, args.seconds);
  } else if (args.workload == "backfill") {
    w = MakeBackfill(args.seed, args.seconds);
  } else if (args.workload == "monitor") {
    w = MakeMonitor(args.seed, args.seconds);
  } else {
    Die("unknown workload %s", args.workload.c_str());
  }

  std::map<std::string, std::string> meta = ustdb::obs::CommonMeta();
  meta["workload"] = args.workload;
  meta["seed"] = std::to_string(args.seed);
  meta["seconds"] = std::to_string(args.seconds);
  meta["trace"] = std::to_string(args.trace);
  meta["build_type"] = E2E_BUILD_TYPE;
  meta["compiler"] = E2E_COMPILER;
  meta["worker_budget"] = w->Budget();
  meta["env_USTDB_KERNEL_ISA"] = Env("USTDB_KERNEL_ISA");
  meta["env_USTDB_SHARDS"] =
      Env("USTDB_SHARDS") + " (shard counts are passed explicitly)";
  meta.erase("timestamp_utc");
  meta.erase("host");
  std::printf("== environment\n");
  for (const auto& [k, v] : meta) std::printf("%-22s %s\n", k.c_str(), v.c_str());
  std::fflush(stdout);

  Tracer untraced(false);
  PhaseOutput out;
  std::vector<std::string> names = kEndToEnd;
  if (args.trace == 0) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) w->Teardown();
      const Clock::time_point s = Clock::now();
      w->Setup(nullptr);
      setup_s.push_back(Seconds(Clock::now() - s));
    }
    w->Run(args.seconds, &untraced, &out);
    const double rss = PeakRssMb();
    w->Teardown();
    w->Check();
    out.e2e.Add("setup_s", Quantile(setup_s, 0.5), "s",
                "median of " + std::to_string(kSetups) +
                    " set-ups (generate, load, construct the service, warm "
                    "up)");
    out.e2e.Add("peak_rss_mb", rss, "MB",
                "peak resident set of the process after the timed phase");
    out.e2e.Print("end-to-end metrics (untraced)");
  } else {
    PhaseOutput base;
    w->Setup(nullptr);
    w->Run(args.seconds / 2, &untraced, &base);
    w->Teardown();
    ustdb::obs::MetricsRegistry registry;
    Tracer traced(true);
    w->Setup(&registry);
    w->Run(args.seconds, &traced, &out);
    w->Layers(registry, &traced, &out);
    w->Teardown();
    w->Check();
    const double u = base.e2e.Get(out.headline);
    const double t = out.e2e.Get(out.headline);
    out.layers.AddRatio(
        "trace.overhead_frac",
        out.headline_higher_is_better ? u - t : t - u, u,
        out.headline + ", (traced - untraced) / untraced, worse-is-positive");
    for (const std::string& name : kPerLayer) {
      if (!out.layers.Has(name) && out.e2e.Has(name)) {
        out.layers.Copy(out.e2e, name);
      }
    }
    TagLayers(args.workload, &out);
    base.e2e.Print("end-to-end metrics (untraced baseline phase)");
    out.e2e.Print("end-to-end metrics (traced phase)");
    out.layers.Print("per-layer metrics (traced phase)");
    if (!args.trace_out.empty()) traced.Write(args.trace_out, meta);
    names = kPerLayer;
  }
  const Report& r = args.trace == 0 ? out.e2e : out.layers;
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              r.Json(names).c_str());
  return 0;
}
