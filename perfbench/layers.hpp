// Per-layer metrics of the whole-study benchmark.
//
// Two sources, both outside src/: the spans and counters a traced study
// already records into obs::Observability, and timed calls into each
// module's public functions replayed on the workload's own inputs (its
// cohort, the run's L' and L'', its record and message sizes).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "gendpr/federation.hpp"
#include "gendpr/study_result.hpp"
#include "genome/cohort.hpp"
#include "obs/json.hpp"
#include "obs/observability.hpp"

namespace perfbench {

/// Named metrics with units, serialized in insertion order as
/// {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  gendpr::obs::JsonValue to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Half-open time interval [begin, end) in milliseconds.
using Interval = std::pair<double, double>;

/// Length of the union of `intervals` (overlaps counted once).
double union_ms(std::vector<Interval> intervals);

/// Length of union(a) minus its overlap with union(b).
double difference_ms(std::vector<Interval> a, std::vector<Interval> b);

/// gendpr / crypto / tee / wire / net / common counters and span
/// arithmetic of one traced study. `study_ms` is the study's wall time as
/// the benchmark measured it (call to return).
void add_trace_metrics(const gendpr::core::StudyResult& result,
                       const gendpr::obs::Observability& obs, double study_ms,
                       Metrics& out);

/// stats / genome / crypto / tee / wire timings: module functions replayed
/// on `cohort` and the traced run's sets and sizes.
void add_replay_metrics(const gendpr::genome::Cohort& cohort,
                        const gendpr::core::FederationSpec& spec,
                        const gendpr::core::StudyResult& result,
                        Metrics& out);

}  // namespace perfbench
