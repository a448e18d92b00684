// RunReport: one JSON document per completed study.
//
// Serializes everything the paper's evaluation (Figures 5-6, Tables 3-5)
// asks of a run — per-phase wall times, per-link byte counts, per-enclave
// EPC peaks, dead-GDO events, safe-set sizes — plus the metrics registry and
// phase trace when observability was attached. The CLI writes it via
// `--report <path>`, the runtime benches reuse it (GENDPR_REPORT_DIR), and CI
// validates it with tools/check_report.py, so paper figures and production
// telemetry come from the same code path.
#pragma once

#include <string>

#include "common/error.hpp"
#include "gendpr/session.hpp"
#include "obs/json.hpp"
#include "obs/observability.hpp"

namespace gendpr::core {

/// Identifies the document layout; bump when the schema changes shape.
inline constexpr const char* kRunReportSchema = "gendpr.run_report.v2";

/// Optional context for make_run_report.
struct ReportContext {
  /// Observability bundle of the run; embeds "metrics" and "trace" sections.
  const obs::Observability* obs = nullptr;
  /// Transport label recorded in the document ("inproc", "tcp", ...).
  std::string transport = "inproc";
  /// Study seed / id, when the caller knows it (the CLI passes its --seed).
  std::uint64_t study_id = 0;
};

/// Builds the report document from a finished study.
obs::JsonValue make_run_report(const StudyResult& study,
                               const ReportContext& context = {});

/// Pretty-prints `report` to `path` (overwriting).
common::Status write_run_report(const std::string& path,
                                const obs::JsonValue& report);

}  // namespace gendpr::core
