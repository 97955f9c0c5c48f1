// The three workloads of the ustdb end-to-end benchmark and the layer
// replay they share. See e2ebench/README.md for what each one stresses.

#ifndef USTDB_E2EBENCH_WORKLOADS_H_
#define USTDB_E2EBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

/// What one timed phase produced.
struct PhaseOutput {
  Report e2e;     ///< end-to-end metrics of the phase
  Report layers;  ///< per-layer metrics (traced phase only)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metric trace.overhead_frac compares between the untraced and
  /// the traced phase, and its direction.
  std::string headline;
  bool headline_higher_is_better = false;
  /// Threshold requests the replay planned, and how many of those plans
  /// chose the bound pass.
  size_t replay_threshold_plans = 0;
  size_t replay_bound_plans = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates and loads the database, constructs the service, warms up.
  /// With `registry` the service's metrics are on and feed it.
  virtual void Setup(ustdb::obs::MetricsRegistry* registry) = 0;
  /// Stops the service and frees the database.
  virtual void Teardown() = 0;
  /// Runs the timed phase for `seconds`, wrapping each call into the
  /// service in a span when `tracer` is enabled.
  virtual void Run(double seconds, Tracer* tracer, PhaseOutput* out) = 0;
  /// Compares a sample of served answers with a sequential executor over
  /// an unsharded reference database; dies on any difference.
  virtual void Check() = 0;
  /// Per-layer metrics of the phase just run: service/executor stats,
  /// the registry's histograms, and a replay of the workload's inputs
  /// through the lower layers' public functions.
  virtual void Layers(const ustdb::obs::MetricsRegistry& registry,
                      Tracer* tracer, PhaseOutput* out) = 0;
  /// Executor worker budget, for the environment stamp.
  virtual std::string Budget() const = 0;
};

/// `seconds` is the timed phase's length; it sizes the input streams.
std::unique_ptr<Workload> MakeDashboard(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeBackfill(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeMonitor(uint64_t seed, double seconds);

// ---------------------------------------------------------------------------
// Layer attribution shared by the workloads (layers.cc).
// ---------------------------------------------------------------------------

/// Global SpMV pass counter (every ISA label).
double SpmvPasses();

/// Counters and ratios read off ServiceStats deltas and the registry.
struct ServiceCounters {
  ustdb::service::ServiceStats before;
  ustdb::service::ServiceStats after;
  double spmv_before = 0;
  double spmv_after = 0;
  /// Registry contents when the timed phase began.
  ustdb::obs::MetricsSnapshot snap_before;
};

/// Adds every metric read from the service stats and the registry:
/// service.*, core.shard_router.*, core.engine_cache.*, core.executor.*,
/// kernels.spmv_passes, core.planner.qb_chain_frac,
/// markov.interval_chain.pruned_frac, core.multi_observation.objects.
void AddServiceLayers(const ServiceCounters& c,
                      const ustdb::obs::MetricsSnapshot& snap,
                      uint32_t shards, PhaseOutput* out);

/// Inputs for the replay of lower layers on an unsharded database.
struct ReplayInput {
  const ustdb::core::Database* db = nullptr;
  std::vector<ustdb::core::QueryRequest> requests;  ///< fixed sample
  /// Multi-observation histories to evaluate (object, window); empty on
  /// workloads without them.
  std::vector<std::pair<ObjectId, ustdb::core::QueryWindow>> histories;
};

/// Replays `in` through planner, query-based (cold and shift), k-times,
/// multi-observation, interval-chain and SpMV calls, timing each one as a
/// span, and adds the core.planner / core.query_based / core.k_times /
/// core.multi_observation / markov.interval_chain / kernels metrics plus
/// trace.unattributed_frac.
void ReplayLayers(const ReplayInput& in, Tracer* tracer, PhaseOutput* out);

/// Appends "should move" tags to every per-layer metric note.
void TagLayers(const std::string& workload, PhaseOutput* out);

}  // namespace e2e

#endif  // USTDB_E2EBENCH_WORKLOADS_H_
