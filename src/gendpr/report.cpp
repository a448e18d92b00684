#include "gendpr/report.hpp"

#include <cstdio>

namespace gendpr::core {

using obs::JsonValue;

obs::JsonValue make_run_report(const StudyResult& study,
                               const ReportContext& context) {
  JsonValue report = JsonValue::object();
  report.set("schema", kRunReportSchema);
  report.set("transport", context.transport);

  JsonValue study_section = JsonValue::object();
  study_section.set("study_id", context.study_id);
  study_section.set("leader_gdo", study.leader_gdo);
  study_section.set("num_gdos", study.num_gdos);
  study_section.set("num_combinations",
                    static_cast<std::uint64_t>(study.num_combinations));
  study_section.set("live_combinations",
                    static_cast<std::uint64_t>(study.live_combinations));
  study_section.set(
      "combination_members_total",
      static_cast<std::uint64_t>(study.combination_members_total));
  JsonValue n_case = JsonValue::array();
  for (std::uint32_t n : study.n_case_per_gdo) n_case.push_back(n);
  study_section.set("n_case_per_gdo", std::move(n_case));
  JsonValue selection = JsonValue::object();
  selection.set("l_prime",
                static_cast<std::uint64_t>(study.outcome.l_prime.size()));
  selection.set("l_double_prime", static_cast<std::uint64_t>(
                                      study.outcome.l_double_prime.size()));
  selection.set("l_safe",
                static_cast<std::uint64_t>(study.outcome.l_safe.size()));
  selection.set("final_power", study.outcome.final_power);
  study_section.set("selection", std::move(selection));
  report.set("study", std::move(study_section));

  JsonValue phases = JsonValue::object();
  phases.set("aggregation_ms", study.timings.aggregation_ms);
  phases.set("indexing_ms", study.timings.indexing_ms);
  phases.set("ld_ms", study.timings.ld_ms);
  phases.set("lr_ms", study.timings.lr_ms);
  phases.set("total_ms", study.timings.total_ms);
  phases.set("modelled_distributed_ms", study.modelled_distributed_ms);
  report.set("phases", std::move(phases));

  JsonValue network = JsonValue::object();
  network.set("total_bytes", study.network_bytes_total);
  network.set("leader_bytes_received", study.leader_bytes_received);
  network.set("phase2_body_bytes", study.phase2_body_bytes);
  network.set("ld_pairs_fetched",
              static_cast<std::uint64_t>(study.ld_pairs_fetched));
  JsonValue links = JsonValue::array();
  for (const auto& link : study.network_links) {
    JsonValue entry = JsonValue::object();
    entry.set("from", link.from);
    entry.set("to", link.to);
    entry.set("bytes", link.bytes);
    entry.set("messages", link.messages);
    links.push_back(std::move(entry));
  }
  network.set("links", std::move(links));
  report.set("network", std::move(network));

  JsonValue epc = JsonValue::object();
  epc.set("limit_bytes", study.epc_limit_bytes);
  epc.set("peak_leader_bytes", study.epc_peak_leader);
  epc.set("peak_members_max_bytes", study.epc_peak_members_max);
  JsonValue per_gdo = JsonValue::array();
  for (std::size_t g = 0; g < study.epc_peak_per_gdo.size(); ++g) {
    JsonValue entry = JsonValue::object();
    entry.set("gdo", static_cast<std::uint64_t>(g));
    entry.set("peak_bytes", study.epc_peak_per_gdo[g]);
    per_gdo.push_back(std::move(entry));
  }
  epc.set("per_gdo", std::move(per_gdo));
  report.set("epc", std::move(epc));

  JsonValue crypto = JsonValue::object();
  crypto.set("backend", study.crypto_backend);
  crypto.set("records_sealed", study.crypto_records_sealed);
  crypto.set("bytes_sealed", study.crypto_bytes_sealed);
  report.set("crypto", std::move(crypto));

  JsonValue kernels = JsonValue::object();
  kernels.set("backend", study.kernel_backend);
  report.set("kernels", std::move(kernels));

  JsonValue tiles = JsonValue::object();
  tiles.set("width", study.snp_tile_width);
  tiles.set("count", study.maf_tiles);
  tiles.set("lr_count", study.lr_tiles);
  report.set("tiles", std::move(tiles));

  JsonValue pipeline = JsonValue::object();
  pipeline.set("maf_tiles_assessed_inline",
               static_cast<std::uint64_t>(study.maf_tiles_assessed_inline));
  pipeline.set("leader_inline_assess_ms", study.leader_inline_assess_ms);
  report.set("pipeline", std::move(pipeline));

  JsonValue events = JsonValue::object();
  JsonValue dead = JsonValue::array();
  for (std::uint32_t gdo : study.dead_gdos) dead.push_back(gdo);
  events.set("dead_gdos", std::move(dead));
  events.set("degraded", !study.dead_gdos.empty());
  report.set("events", std::move(events));

  if (context.obs != nullptr) {
    report.set("metrics", context.obs->metrics.to_json());
    report.set("trace", context.obs->trace.to_json());
  }
  return report;
}

common::Status write_run_report(const std::string& path,
                                const obs::JsonValue& report) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return common::make_error(common::Errc::io_error,
                              "cannot open report file " + path);
  }
  const std::string text = report.dump(2);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool flushed = std::fclose(out) == 0;
  if (written != text.size() || !flushed) {
    return common::make_error(common::Errc::io_error,
                              "short write to report file " + path);
  }
  return common::Status::success();
}

}  // namespace gendpr::core
