// Shared pieces of the ustdb end-to-end benchmark: clocks, miss-ranked
// percentiles, the metric report, in-memory spans, database generation
// and answer comparison.

#ifndef USTDB_E2EBENCH_HARNESS_H_
#define USTDB_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ustdb.h"

namespace e2e {

using Clock = std::chrono::steady_clock;
using ustdb::ChainId;
using ustdb::ObjectId;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) { return Seconds(d) * 1e3; }
inline double Micros(Clock::duration d) { return Seconds(d) * 1e6; }

/// Prints to stderr and exits 1 without a result line. Used for wrong
/// answers, broken generators and refused environments alike: none of
/// them may be counted as a measured error.
[[noreturn]] void Die(const char* fmt, ...);

template <typename T>
T Must(ustdb::util::Result<T> r, const char* what) {
  if (!r.ok()) Die("%s: %s", what, r.status().ToString().c_str());
  return std::move(r).ValueOrDie();
}

/// One timed operation. A failed or refused operation is a miss: it ranks
/// above every finite sample in every percentile.
struct Sample {
  double value = 0.0;
  bool miss = false;
};

/// A nearest-rank percentile with its support. When the rank lands on a
/// miss the value is the run's measurement horizon (the operation was not
/// answered within the run) and `censored` is set.
struct Pct {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;  ///< samples ranked strictly above the percentile
  bool censored = false;
};
Pct Percentile(std::vector<Sample> samples, double q, double horizon);

/// p-quantile of plain values (0 for an empty input).
double Quantile(std::vector<double> v, double q);

/// Ordered metric report: printed one line per metric (name, value, unit,
/// note) and as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds a percentile metric with its sample count, count beyond, and a
  /// flag when fewer than 10 samples lie beyond it.
  void AddPct(const std::string& name, const Pct& p, const std::string& unit,
              const std::string& base);
  /// Adds a ratio and prints its numerator and denominator.
  void AddRatio(const std::string& name, double num, double den,
                const std::string& base);
  /// Appends `text` to the note of metric `name` (no-op when absent).
  void AppendNote(const std::string& name, const std::string& text);
  void Print(const char* heading) const;
  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;
  /// Copies metric `name` (value, unit, note) from `from`.
  void Copy(const Report& from, const std::string& name);
  double Get(const std::string& name) const;
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder of the traced run. Spans carry name, start,
/// end, parent span and request id; they are written out once, at the end
/// of the run. Disabled recorders cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent, uint64_t request);
  /// Opens a span starting now, for children to name as their parent;
  /// End() closes it (at `at`). Returns 0 when disabled.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id, Clock::time_point at = Clock::now());
  /// Durations (seconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes the spans as JSON lines to `path`.
  void Write(const std::string& path,
             const std::map<std::string, std::string>& meta) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    uint64_t id, parent, request;
  };
  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` as a span under `parent` when tracing; always returns fn's
/// result.
template <typename F>
auto Traced(Tracer* tracer, const char* name, uint64_t parent,
            uint64_t request, F&& fn) {
  if (!tracer->enabled()) return fn();
  const Clock::time_point start = Clock::now();
  auto out = fn();
  tracer->Record(name, start, Clock::now(), parent, request);
  return out;
}

/// Shape of one generated database: `clusters` independent Table-I base
/// chains, each with `variants` jittered copies, and `objects`
/// single-observation objects spread round-robin over each cluster's
/// chains.
struct DataSpec {
  uint32_t states = 10'000;
  uint32_t objects = 4'000;
  uint32_t clusters = 2;
  uint32_t variants = 8;
  uint32_t shards = 1;
};

/// Generates the workload's database into `db` (a Database or a
/// ShardedDatabase; both assign the same global ids). Insertion goes
/// cluster by cluster — its chains, then its objects — so a sharded
/// database founds each new cluster on the least-loaded shard.
template <typename Db>
void Populate(const DataSpec& spec, uint64_t seed, Db* db) {
  ustdb::workload::SyntheticConfig config;
  config.num_states = spec.states;
  config.num_objects = spec.objects;
  config.seed = seed;
  ustdb::util::Rng rng(seed);
  const uint32_t per_cluster = spec.objects / spec.clusters;
  for (uint32_t c = 0; c < spec.clusters; ++c) {
    const ustdb::markov::MarkovChain base =
        Must(ustdb::workload::GenerateChain(config, &rng), "GenerateChain");
    std::vector<ChainId> members;
    for (uint32_t v = 0; v < spec.variants; ++v) {
      members.push_back(db->AddChain(Must(
          ustdb::workload::PerturbChain(base, 0.05, &rng), "PerturbChain")));
    }
    const uint32_t count =
        c + 1 == spec.clusters ? spec.objects - per_cluster * c : per_cluster;
    for (uint32_t i = 0; i < count; ++i) {
      Must(db->AddObjectAt(members[i % members.size()],
                           ustdb::workload::GenerateObjectPdf(config, &rng)),
           "AddObjectAt");
    }
  }
}

/// Peak resident set of this process (getrusage ru_maxrss), MB.
double PeakRssMb();

/// Compares two answers to one request: ids exactly (ties within the
/// tolerance may swap), probabilities and k-times distributions within
/// 1e-12. Returns an empty string when they agree.
std::string CompareAnswers(const ustdb::core::QueryRequest& request,
                           const ustdb::core::QueryResult& served,
                           const ustdb::core::QueryResult& reference);

inline constexpr double kAnswerTolerance = 1e-12;

}  // namespace e2e

#endif  // USTDB_E2EBENCH_HARNESS_H_
