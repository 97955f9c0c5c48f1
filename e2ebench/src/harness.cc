#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>

namespace e2e {

namespace core = ustdb::core;

void Die(const char* fmt, ...) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2ebench: ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

Pct Percentile(std::vector<Sample> samples, double q, double horizon) {
  Pct p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              if (a.miss != b.miss) return !a.miss;
              return a.value < b.value;
            });
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  p.beyond = samples.size() - 1 - idx;
  p.censored = samples[idx].miss;
  p.value = p.censored ? horizon : samples[idx].value;
  return p;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  entries_.push_back({name, value, unit, note});
}

void Report::AddPct(const std::string& name, const Pct& p,
                    const std::string& unit, const std::string& base) {
  std::ostringstream note;
  note << "n=" << p.n << " beyond=" << p.beyond << " over " << base;
  if (p.censored) note << "; CENSORED: rank falls on a miss, value = horizon";
  if (p.beyond < 10) note << "; UNSUPPORTED: fewer than 10 samples beyond";
  Add(name, p.value, unit, note.str());
}

void Report::AddRatio(const std::string& name, double num, double den,
                      const std::string& base) {
  std::ostringstream note;
  note << num << " / " << den << " " << base;
  Add(name, den > 0 ? num / den : 0.0, "ratio", note.str());
}

void Report::AppendNote(const std::string& name, const std::string& text) {
  for (Entry& e : entries_) {
    if (e.name == name) e.note += (e.note.empty() ? "" : "; ") + text;
  }
}

void Report::Print(const char* heading) const {
  std::printf("== %s\n", heading);
  for (const Entry& e : entries_) {
    std::printf("%-44s %14.6g %-6s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  }
}

bool Report::Has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

void Report::Copy(const Report& from, const std::string& name) {
  for (const Entry& e : from.entries_) {
    if (e.name == name) entries_.push_back(e);
  }
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  Die("metric %s was never measured", name.c_str());
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const std::string& name : names) {
    const Entry* e = nullptr;
    for (const Entry& candidate : entries_) {
      if (candidate.name == name) e = &candidate;
    }
    if (e == nullptr) Die("metric %s was never measured", name.c_str());
    if (!std::isfinite(e->value)) Die("metric %s is not finite", name.c_str());
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << e->value << ", \"unit\": \"" << e->unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

uint64_t Tracer::Record(const char* name, Clock::time_point start,
                        Clock::time_point end, uint64_t parent,
                        uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start, end, id, parent, request});
  return id;
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request) {
  const Clock::time_point now = Clock::now();
  return Record(name, now, now, parent, request);
}

void Tracer::End(uint64_t id, Clock::time_point at) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = at;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(Seconds(s.end - s.start));
  }
  return out;
}

void Tracer::Write(const std::string& path,
                   const std::map<std::string, std::string>& meta) const {
  std::ofstream out(path);
  if (!out) Die("cannot write trace file %s", path.c_str());
  out << std::fixed << std::setprecision(3);
  out << "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
    first = false;
  }
  out << "}}\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << Micros(s.start - t0_)
        << ", \"end_us\": " << Micros(s.end - t0_) << "}\n";
  }
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) Die("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Probability lists agree position by position; an id mismatch is
/// accepted only where the reference itself ties within the tolerance.
std::string CompareProbabilities(
    const std::vector<core::ObjectProbability>& served,
    const std::vector<core::ObjectProbability>& ref) {
  if (served.size() != ref.size()) {
    return "answer sizes differ: " + std::to_string(served.size()) + " vs " +
           std::to_string(ref.size());
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::fabs(served[i].probability - ref[i].probability) >
        kAnswerTolerance) {
      return "probability of entry " + std::to_string(i) + " differs";
    }
    if (served[i].id != ref[i].id) {
      const bool tie =
          (i > 0 && std::fabs(ref[i - 1].probability - ref[i].probability) <=
                        kAnswerTolerance) ||
          (i + 1 < ref.size() &&
           std::fabs(ref[i + 1].probability - ref[i].probability) <=
               kAnswerTolerance);
      if (!tie) return "object id of entry " + std::to_string(i) + " differs";
    }
  }
  return "";
}

}  // namespace

std::string CompareAnswers(const core::QueryRequest& request,
                           const core::QueryResult& served,
                           const core::QueryResult& reference) {
  if (served.partial || served.degraded_bounds) {
    return "served answer is partial or degraded";
  }
  if (request.predicate != core::PredicateKind::kKTimes) {
    return CompareProbabilities(served.probabilities,
                                reference.probabilities);
  }
  if (served.distributions.size() != reference.distributions.size()) {
    return "k-times answer sizes differ";
  }
  for (size_t i = 0; i < served.distributions.size(); ++i) {
    const auto& a = served.distributions[i];
    const auto& b = reference.distributions[i];
    if (a.id != b.id || a.distribution.size() != b.distribution.size()) {
      return "k-times entry " + std::to_string(i) + " differs in shape";
    }
    for (size_t k = 0; k < a.distribution.size(); ++k) {
      if (std::fabs(a.distribution[k] - b.distribution[k]) >
          kAnswerTolerance) {
        return "k-times entry " + std::to_string(i) + " differs";
      }
    }
  }
  return "";
}

}  // namespace e2e
