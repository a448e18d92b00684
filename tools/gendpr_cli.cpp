// gendpr - command-line front end for the library.
//
// Subcommands:
//   gendpr gen <dir> [--cases N] [--controls N] [--snps L] [--gdos G]
//          [--seed S]
//       Generates a synthetic cohort, splits the cases into per-GDO VCF-lite
//       files under <dir>, each with a signed manifest (gdo<g>.manifest), plus
//       the reference panel.
//   gendpr assess <dir> [--gdos G] [--f F | --conservative] [--maf C]
//          [--ld C] [--fpr R] [--power P] [--seed S] [--tile-width W]
//          [--epc-mb M]
//       Loads the cohort from <dir>, verifies each slice against its signed
//       manifest, runs the federated assessment, and prints the per-phase
//       outcome.
//   gendpr release <dir> [--out FILE] [--dp-epsilon E] [assess flags]
//       Runs the assessment and writes the released GWAS statistics (TSV);
//       with --dp-epsilon also publishes the withheld complement under DP
//       (the paper's §5.5 hybrid release).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gendpr/baselines.hpp"
#include "gendpr/federation.hpp"
#include "gendpr/release.hpp"
#include "gendpr/report.hpp"
#include "genome/vcf_lite.hpp"
#include "obs/observability.hpp"
#include "wire/serialize.hpp"

namespace {

using namespace gendpr;

struct Args {
  std::string command;
  std::string dir;
  std::size_t cases = 2000;
  std::size_t controls = 2000;
  std::size_t snps = 500;
  std::uint32_t gdos = 3;
  std::uint64_t seed = 1;
  std::optional<unsigned> f;
  bool conservative = false;
  core::StudyConfig config;
  std::uint64_t epc_limit = tee::EpcMeter::kDefaultLimitBytes;
  std::optional<double> dp_epsilon;
  std::string out = "release.tsv";
  std::string report;
  core::FederationSpec::TransportMode transport =
      core::FederationSpec::TransportMode::in_process;
  std::uint32_t event_loops = 1;
};

void usage() {
  std::fprintf(stderr,
               "usage: gendpr <gen|assess|release> <dir> [options]\n"
               "  gen:     --cases N --controls N --snps L --gdos G --seed S\n"
               "  assess:  --gdos G [--f F | --conservative] --maf C --ld C\n"
               "           --fpr R --power P --seed S --report FILE\n"
               "           --tile-width W (SNPs per pipeline tile, 0 = off)\n"
               "           --epc-mb M (per-enclave EPC limit, MiB)\n"
               "           --transport in_process|epoll "
               "--event-loops N\n"
               "  release: assess options plus --out FILE --dp-epsilon E\n");
}

/// Parses the whole token as a decimal that fits in T: no sign, no
/// surrounding blanks, no trailing characters.
template <typename T>
bool parse_unsigned(const char* text, T& out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Parses the whole token as a finite double.
bool parse_double(const char* text, double& out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    std::uint64_t epc_mb = 0;
    bool parsed = true;
    if (flag == "--conservative") {
      args.conservative = true;
    } else if ((value = next()) == nullptr) {
      std::fprintf(stderr, "unknown flag or missing value: %s\n", flag.c_str());
      return false;
    } else if (flag == "--cases") {
      parsed = parse_unsigned(value, args.cases);
    } else if (flag == "--controls") {
      parsed = parse_unsigned(value, args.controls);
    } else if (flag == "--snps") {
      parsed = parse_unsigned(value, args.snps);
    } else if (flag == "--gdos") {
      parsed = parse_unsigned(value, args.gdos);
    } else if (flag == "--seed") {
      parsed = parse_unsigned(value, args.seed);
    } else if (flag == "--f") {
      parsed = parse_unsigned(value, args.f.emplace());
    } else if (flag == "--maf") {
      parsed = parse_double(value, args.config.maf_cutoff);
    } else if (flag == "--ld") {
      parsed = parse_double(value, args.config.ld_cutoff);
    } else if (flag == "--fpr") {
      parsed = parse_double(value, args.config.lr_false_positive_rate);
    } else if (flag == "--power") {
      parsed = parse_double(value, args.config.lr_power_threshold);
    } else if (flag == "--tile-width") {
      parsed = parse_unsigned(value, args.config.snp_tile_width);
    } else if (flag == "--epc-mb") {
      parsed = parse_unsigned(value, epc_mb) &&
               epc_mb <= std::numeric_limits<std::uint64_t>::max() >> 20;
      args.epc_limit = epc_mb << 20;
    } else if (flag == "--dp-epsilon") {
      parsed = parse_double(value, args.dp_epsilon.emplace());
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--report") {
      args.report = value;
    } else if (flag == "--transport") {
      if (std::strcmp(value, "in_process") == 0) {
        args.transport = core::FederationSpec::TransportMode::in_process;
      } else if (std::strcmp(value, "epoll") == 0) {
        args.transport = core::FederationSpec::TransportMode::epoll;
      } else {
        std::fprintf(stderr, "unknown --transport: %s\n", value);
        return false;
      }
    } else if (flag == "--event-loops") {
      parsed = parse_unsigned(value, args.event_loops);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
    if (!parsed) {
      std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args.conservative && args.f.has_value()) {
    std::fprintf(stderr, "--f and --conservative are exclusive\n");
    return false;
  }
  if (const common::Status valid = core::validate(args.config); !valid.ok()) {
    std::fprintf(stderr, "invalid value: %s\n",
                 valid.error().message.c_str());
    return false;
  }
  return true;
}

std::string slice_path(const std::string& dir, std::uint32_t g) {
  return dir + "/gdo" + std::to_string(g) + ".vcf";
}

std::string reference_path(const std::string& dir) {
  return dir + "/reference.vcf";
}

std::string manifest_path(const std::string& dir, std::uint32_t g) {
  return dir + "/gdo" + std::to_string(g) + ".manifest";
}

std::string dataset_name(std::uint32_t g) { return "gdo" + std::to_string(g); }

common::Bytes roster_key() {
  return common::to_bytes("gendpr-cli-roster-key-v1");
}

/// A manifest on disk: the fields its signature binds, then the signature.
common::Bytes encode_manifest(const genome::DatasetManifest& manifest) {
  wire::Writer w;
  w.string(manifest.dataset_name);
  w.u64(manifest.num_individuals);
  w.u64(manifest.num_snps);
  w.raw(common::BytesView(manifest.content_digest.data(),
                          manifest.content_digest.size()));
  w.raw(common::BytesView(manifest.signature.data(),
                          manifest.signature.size()));
  return std::move(w).take();
}

common::Result<genome::DatasetManifest> decode_manifest(
    common::BytesView data) {
  wire::Reader r(data);
  genome::DatasetManifest manifest;
  auto name = r.string();
  if (!name.ok()) return name.error();
  auto individuals = r.u64();
  if (!individuals.ok()) return individuals.error();
  auto snps = r.u64();
  if (!snps.ok()) return snps.error();
  auto digest = r.raw(manifest.content_digest.size());
  if (!digest.ok()) return digest.error();
  auto signature = r.raw(manifest.signature.size());
  if (!signature.ok()) return signature.error();
  if (!r.exhausted()) {
    return common::make_error(common::Errc::bad_message,
                              "trailing bytes after the manifest");
  }
  manifest.dataset_name = std::move(name).take();
  manifest.num_individuals = individuals.value();
  manifest.num_snps = snps.value();
  std::copy(digest.value().begin(), digest.value().end(),
            manifest.content_digest.begin());
  std::copy(signature.value().begin(), signature.value().end(),
            manifest.signature.begin());
  return manifest;
}

common::Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::make_error(common::Errc::io_error,
                              "cannot open for read: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

common::Status write_file(const std::string& path, common::BytesView data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) {
    return common::make_error(common::Errc::io_error,
                              "cannot write " + path);
  }
  return common::Status::success();
}

/// Reads slice g only if its manifest verifies under the roster key: signed
/// for dataset gdo<g>, over exactly the slice's text.
common::Result<genome::VcfLite> read_signed_slice(const std::string& dir,
                                                  std::uint32_t g) {
  const std::string path = slice_path(dir, g);
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto encoded = read_file(manifest_path(dir, g));
  if (!encoded.ok()) return encoded.error();
  const auto refused = [&path](const std::string& why) {
    return common::make_error(common::Errc::attestation_rejected,
                              path + ": " + why);
  };
  auto manifest = decode_manifest(common::to_bytes(encoded.value()));
  if (!manifest.ok()) {
    return refused("malformed manifest: " + manifest.error().message);
  }
  if (manifest.value().dataset_name != dataset_name(g)) {
    return refused("manifest signs dataset " + manifest.value().dataset_name);
  }
  if (auto s = genome::verify_dataset(manifest.value(), text.value(),
                                      roster_key());
      !s.ok()) {
    return refused(s.error().message);
  }
  return genome::read_vcf_lite(text.value());
}

int cmd_gen(const Args& args) {
  genome::CohortSpec spec;
  spec.num_case = args.cases;
  spec.num_control = args.controls;
  spec.num_snps = args.snps;
  spec.seed = args.seed;
  std::printf("generating %zu cases + %zu controls x %zu SNPs (seed %llu)\n",
              spec.num_case, spec.num_control, spec.num_snps,
              static_cast<unsigned long long>(spec.seed));
  const genome::Cohort cohort = genome::generate_cohort(spec);

  std::vector<std::string> ids;
  for (std::size_t l = 0; l < args.snps; ++l) {
    ids.push_back("rs" + std::to_string(l));
  }
  const auto ranges = genome::equal_partition(args.cases, args.gdos);
  for (std::uint32_t g = 0; g < args.gdos; ++g) {
    genome::VcfLite vcf;
    vcf.snp_ids = ids;
    vcf.genotypes = cohort.cases.slice_rows(ranges[g].first, ranges[g].second);
    const std::string path = slice_path(args.dir, g);
    if (auto s = genome::write_vcf_lite_file(path, vcf); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().to_string().c_str());
      return 1;
    }
    const genome::DatasetManifest manifest = genome::sign_dataset(
        dataset_name(g), genome::write_vcf_lite(vcf), roster_key());
    if (auto s = write_file(manifest_path(args.dir, g),
                            encode_manifest(manifest));
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().to_string().c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu genomes, digest %s...)\n", path.c_str(),
                vcf.genotypes.num_individuals(),
                common::to_hex(common::BytesView(
                                   manifest.content_digest.data(), 6))
                    .c_str());
  }
  genome::VcfLite reference;
  reference.snp_ids = ids;
  reference.genotypes = cohort.controls;
  if (auto s = genome::write_vcf_lite_file(reference_path(args.dir), reference);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu genomes)\n", reference_path(args.dir).c_str(),
              args.controls);
  return 0;
}

common::Result<genome::Cohort> load_cohort(const Args& args) {
  genome::Cohort cohort;
  std::vector<genome::GenotypeMatrix> slices;
  std::size_t total = 0;
  // Every file must list the first slice's SNPs (the reader ties the count
  // to the list), or the study would index the shorter files past their end.
  std::vector<std::string> snp_ids;
  const auto same_snps = [&](const std::string& path,
                             const genome::VcfLite& vcf) -> common::Status {
    if (vcf.snp_ids == snp_ids) return common::Status::success();
    return common::make_error(
        common::Errc::invalid_argument,
        path + " lists " + std::to_string(vcf.snp_ids.size()) +
            " SNPs that differ from the " + std::to_string(snp_ids.size()) +
            " of " + slice_path(args.dir, 0));
  };
  for (std::uint32_t g = 0; g < args.gdos; ++g) {
    const std::string path = slice_path(args.dir, g);
    auto vcf = read_signed_slice(args.dir, g);
    if (!vcf.ok()) return vcf.error();
    if (g == 0) snp_ids = vcf.value().snp_ids;
    if (auto s = same_snps(path, vcf.value()); !s.ok()) return s.error();
    total += vcf.value().genotypes.num_individuals();
    slices.push_back(vcf.value().genotypes);
  }
  const std::size_t snps = snp_ids.size();
  cohort.cases = genome::GenotypeMatrix(total, snps);
  std::size_t row = 0;
  for (const auto& slice : slices) {
    for (std::size_t n = 0; n < slice.num_individuals(); ++n, ++row) {
      for (std::size_t l = 0; l < snps; ++l) {
        cohort.cases.set(row, l, slice.get(n, l));
      }
    }
  }
  auto reference = genome::read_vcf_lite_file(reference_path(args.dir));
  if (!reference.ok()) return reference.error();
  if (auto s = same_snps(reference_path(args.dir), reference.value());
      !s.ok()) {
    return s.error();
  }
  cohort.controls = reference.value().genotypes;
  return cohort;
}

common::Result<core::StudyResult> run_assessment(const Args& args,
                                                 const genome::Cohort& cohort,
                                                 obs::Observability* obs) {
  core::FederationSpec spec;
  spec.num_gdos = args.gdos;
  spec.config = args.config;
  spec.seed = args.seed;
  spec.epc_limit = args.epc_limit;
  spec.obs = obs;
  spec.event_loops = args.event_loops == 0 ? 1 : args.event_loops;
  spec.transport = args.transport;
  if (args.conservative) {
    spec.policy = core::CollusionPolicy::conservative();
  } else if (args.f.has_value()) {
    spec.policy = core::CollusionPolicy::fixed(*args.f);
  }
  return core::run_federated_study(cohort, spec);
}

// Serializes the run report when --report was given; returns false on an
// unwritable path so the command exits non-zero (CI depends on that).
bool maybe_write_report(const Args& args, const core::StudyResult& result,
                        const obs::Observability& obs) {
  if (args.report.empty()) return true;
  core::ReportContext context;
  context.obs = &obs;
  context.study_id = args.seed;
  const auto status = core::write_run_report(
      args.report, core::make_run_report(result, context));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return false;
  }
  std::printf("wrote run report %s\n", args.report.c_str());
  return true;
}

int cmd_assess(const Args& args) {
  auto cohort = load_cohort(args);
  if (!cohort.ok()) {
    std::fprintf(stderr, "%s\n", cohort.error().to_string().c_str());
    return 1;
  }
  obs::Observability observability;
  auto result = run_assessment(args, cohort.value(), &observability);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 1;
  }
  const auto& r = result.value();
  std::printf("federation: %u GDOs, leader GDO %u, %zu combination(s)\n",
              args.gdos, r.leader_gdo, r.num_combinations);
  std::printf("phase 1 (MAF %.3g):        %zu SNPs retained\n",
              args.config.maf_cutoff, r.outcome.l_prime.size());
  std::printf("phase 2 (LD p<%.3g):       %zu SNPs retained\n",
              args.config.ld_cutoff, r.outcome.l_double_prime.size());
  std::printf("phase 3 (power<=%.2f@%.2f): %zu SNPs safe "
              "(residual power %.3f)\n",
              args.config.lr_power_threshold,
              args.config.lr_false_positive_rate, r.outcome.l_safe.size(),
              r.outcome.final_power);
  std::printf("time: %.1f ms (modelled multi-host: %.1f ms); network %.1f KB\n",
              r.timings.total_ms, r.modelled_distributed_ms,
              static_cast<double>(r.network_bytes_total) / 1024.0);
  if (!maybe_write_report(args, r, observability)) return 1;
  return 0;
}

int cmd_release(const Args& args) {
  auto cohort = load_cohort(args);
  if (!cohort.ok()) {
    std::fprintf(stderr, "%s\n", cohort.error().to_string().c_str());
    return 1;
  }
  obs::Observability observability;
  auto result = run_assessment(args, cohort.value(), &observability);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 1;
  }
  core::ReleaseOptions options;
  options.dp_epsilon = args.dp_epsilon;
  options.dp_seed = args.seed;
  const core::Release release =
      core::build_release(cohort.value().cases, cohort.value().controls,
                          result.value().outcome.l_safe, options);
  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  const std::string tsv = core::release_to_tsv(release);
  std::fwrite(tsv.data(), 1, tsv.size(), out);
  std::fclose(out);
  std::printf("wrote %s: %zu exact rows", args.out.c_str(),
              release.noise_free_count);
  if (args.dp_epsilon.has_value()) {
    std::printf(" + %zu DP rows (epsilon %.3g)", release.dp_count,
                *args.dp_epsilon);
  }
  std::printf("\n");
  if (!maybe_write_report(args, result.value(), observability)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.command == "gen") return cmd_gen(args);
  if (args.command == "assess") return cmd_assess(args);
  if (args.command == "release") return cmd_release(args);
  usage();
  return 2;
}
