// Whole-study benchmark of the GenDPR federation.
//
//   perfbench_study --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--wrong-oracle]
//
// One client thread runs whole studies (run_federated_study) back to back:
// a closed loop that starts the next study when the previous one returns,
// for --seconds of wall time (at least one study). Every study's L_safe is
// checked against an oracle computed after the timed loop. The program's
// own threads (node threads, the combination pool, event loops) are part of
// the system under test.
//
// The last stdout line is one JSON object
//   {"correct": bool, "attempted": n, "failed": k, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, see layers.hpp); the line before it stamps the host, build,
// environment and sample counts. --smoke shrinks the cohort for the
// self-test, and --wrong-oracle perturbs the expected set so the self-test
// can check that the correctness gate fires. Exit status: 0 when every
// study matched its oracle, 1 on a mismatch or error, 2 on a bad command
// line or an environment that would change the workload.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "gendpr/baselines.hpp"
#include "gendpr/federation.hpp"
#include "genome/cohort.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/observability.hpp"

namespace {

using namespace gendpr;
using common::Stopwatch;
using perfbench::median;
using perfbench::Metrics;
using Transport = core::FederationSpec::TransportMode;

struct Workload {
  std::string_view name;
  std::uint32_t num_gdos;
  unsigned f;  // tolerated colluders; 0 = one combination of all GDOs
  Transport transport;
};

// fig6_g3_f0: the paper's headline run, one combination, no pool, no
// sockets. table5_g6_f2: the 15-combination collusion sweep in process.
// table5_g6_f2_epoll: the same sweep over loopback TCP on one event loop.
constexpr std::array<Workload, 3> kWorkloads{{
    {"fig6_g3_f0", 3, 0, Transport::in_process},
    {"table5_g6_f2", 6, 2, Transport::in_process},
    {"table5_g6_f2_epoll", 6, 2, Transport::epoll},
}};

/// Set-up (cohort generation plus a warm-up study) runs this many times;
/// setup_s is the median.
constexpr int kSetupRepeats = 3;

std::string_view transport_name(Transport transport) {
  switch (transport) {
    case Transport::in_process:
      return "in_process";
    case Transport::epoll:
      return "epoll";
    case Transport::uring:
      return "uring";
  }
  return "?";
}

/// The paper cohort (the dimensions of bench/bench_common.hpp): 14,860
/// cases, 13,035 controls, 10,000 SNPs. --smoke keeps the shape small.
genome::CohortSpec cohort_spec(std::uint64_t seed, bool smoke) {
  genome::CohortSpec spec;
  spec.num_case = smoke ? 600 : 14860;
  spec.num_control = smoke ? 520 : 13035;
  spec.num_snps = smoke ? 400 : 10000;
  spec.seed = seed;
  return spec;
}

core::FederationSpec federation_spec(const Workload& workload,
                                     std::uint64_t seed) {
  core::FederationSpec spec;
  spec.transport = workload.transport;
  spec.event_loops = 1;
  spec.num_gdos = workload.num_gdos;
  spec.policy = workload.f == 0 ? core::CollusionPolicy::none()
                                : core::CollusionPolicy::fixed(workload.f);
  spec.seed = seed;
  return spec;
}

// Environment the program reads. The first three change a workload:
// GENDPR_TRANSPORT and GENDPR_EVENT_LOOPS override FederationSpec inside
// run_federated_study, and GENDPR_BENCH_SCALE asks for a rescaled cohort.
// The rest pick backends or pool sizes and are recorded only.
constexpr std::array<const char*, 6> kRecordedEnv{
    "GENDPR_TRANSPORT",      "GENDPR_EVENT_LOOPS",    "GENDPR_BENCH_SCALE",
    "GENDPR_KERNEL_BACKEND", "GENDPR_CRYPTO_BACKEND", "GENDPR_POOL_BUFFERS"};

/// Why the environment would change `workload`; empty when it would not.
std::string env_conflict(const Workload& workload) {
  const std::array<std::pair<const char*, std::string_view>, 3> pinned{{
      {"GENDPR_TRANSPORT", transport_name(workload.transport)},
      {"GENDPR_EVENT_LOOPS", "1"},
      {"GENDPR_BENCH_SCALE", "1"},
  }};
  for (const auto& [name, value] : pinned) {
    const char* set = std::getenv(name);
    if (set != nullptr && value != set) {
      return std::string(name) + "=" + set + " would change workload " +
             std::string(workload.name) + " (it needs " + std::string(value) +
             "); unset it";
    }
  }
  return {};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  bool wrong_oracle = false;
};

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--wrong-oracle") {
      options.wrong_oracle = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string_view value = argv[++i];
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak RSS of the process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.starts_with("model name")) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Sample {
  double wall_s = 0;
  double cpu_s = 0;
  bool ok = false;
  std::string error;
  core::StudyResult result;
};

/// One timed study: wall time from call to return, process CPU time.
Sample run_study(const genome::Cohort& cohort,
                 const core::FederationSpec& spec) {
  Sample sample;
  const double cpu_before = process_cpu_s();
  const Stopwatch watch;
  auto run = core::run_federated_study(cohort, spec);
  sample.wall_s = watch.elapsed_seconds();
  sample.cpu_s = process_cpu_s() - cpu_before;
  if (run.ok()) {
    sample.ok = true;
    sample.result = std::move(run).take();
  } else {
    sample.error = run.error().to_string();
  }
  std::fprintf(stderr, "study: %.3f s wall, %.3f s cpu%s%s%s\n",
               sample.wall_s, sample.cpu_s, spec.obs ? ", traced" : "",
               sample.ok ? "" : ", error: ", sample.error.c_str());
  return sample;
}

/// Warm-up: the workload's spec on a small cohort, so lazy set-up (kernel
/// and AEAD dispatch, first sockets and threads) is paid before timing.
void warm_up(const core::FederationSpec& spec) {
  const genome::Cohort small = genome::generate_cohort(cohort_spec(1, true));
  auto run = core::run_federated_study(small, spec);
  if (!run.ok()) {
    throw std::runtime_error("warm-up study failed: " +
                             run.error().to_string());
  }
}

/// The expected L_safe. f = 0 is checked against the centralized baseline;
/// the collusion sweeps against an unpruned in-process run with the same
/// seed (prune equivalence). Both Table 5 workloads share that oracle, so
/// the epoll sweep matching it also matches the in-process sweep.
std::vector<std::uint32_t> oracle_l_safe(const Workload& workload,
                                         const genome::Cohort& cohort,
                                         const core::FederationSpec& spec) {
  if (workload.f == 0) {
    return core::run_centralized(cohort, spec.config).outcome.l_safe;
  }
  core::FederationSpec unpruned = spec;
  unpruned.transport = Transport::in_process;
  unpruned.config.prune = false;
  unpruned.obs = nullptr;
  auto run = core::run_federated_study(cohort, unpruned);
  if (!run.ok()) {
    throw std::runtime_error("oracle study failed: " +
                             run.error().to_string());
  }
  return std::move(run).take().outcome.l_safe;
}

double epc_peak_mb(const core::StudyResult& result) {
  std::uint64_t peak = 0;
  for (const std::uint64_t gdo_peak : result.epc_peak_per_gdo) {
    peak = std::max(peak, gdo_peak);
  }
  return static_cast<double>(peak) / 1e6;
}

/// Median of `field` over the successful samples.
template <typename Field>
double median_of(const std::vector<Sample>& samples, Field&& field) {
  std::vector<double> values;
  for (const Sample& sample : samples) {
    if (sample.ok) values.push_back(field(sample));
  }
  return median(std::move(values));
}

int run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (candidate.name == options.workload) workload = &candidate;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (const std::string conflict = env_conflict(*workload);
      !conflict.empty()) {
    std::fprintf(stderr, "refusing to run: %s\n", conflict.c_str());
    return 2;
  }
  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "warning: %s build, numbers are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }

  core::FederationSpec spec = federation_spec(*workload, options.seed);
  const genome::CohortSpec cohort_shape =
      cohort_spec(options.seed, options.smoke);

  std::vector<double> setup_s;
  genome::Cohort cohort;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cohort = genome::Cohort{};  // drop the previous copy before regenerating
    const Stopwatch watch;
    cohort = genome::generate_cohort(cohort_shape);
    warm_up(spec);
    setup_s.push_back(watch.elapsed_seconds());
  }

  // The timed loop. A traced run alternates untraced and traced studies so
  // the tracing overhead is measured under the same conditions.
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::unique_ptr<obs::Observability> trace;
  const Stopwatch window;
  do {
    if (options.trace && untraced.size() > traced.size()) {
      auto observed = std::make_unique<obs::Observability>();
      spec.obs = observed.get();
      traced.push_back(run_study(cohort, spec));
      spec.obs = nullptr;
      if (traced.back().ok) trace = std::move(observed);
    } else {
      untraced.push_back(run_study(cohort, spec));
    }
  } while (window.elapsed_seconds() < options.seconds ||
           (options.trace && traced.empty()));
  const double rss_mb = peak_rss_mb();  // before the oracle runs

  // Transport cost: the same sweep in process, for the socket workload.
  std::vector<Sample> in_process;
  if (options.trace && workload->transport != Transport::in_process) {
    core::FederationSpec fabric = spec;
    fabric.transport = Transport::in_process;
    in_process.push_back(run_study(cohort, fabric));
  }

  std::vector<std::uint32_t> expected =
      oracle_l_safe(*workload, cohort, spec);
  if (options.wrong_oracle) {
    if (expected.empty()) {
      expected.push_back(0);
    } else {
      expected.pop_back();
    }
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* samples : {&untraced, &traced, &in_process}) {
    for (const Sample& sample : *samples) {
      ++attempted;
      if (!sample.ok || sample.result.outcome.l_safe != expected) ++failed;
    }
  }

  Metrics metrics;
  const auto wall = [](const Sample& s) { return s.wall_s; };
  if (!options.trace) {
    metrics.add("study_s", median_of(untraced, wall), "s");
    metrics.add("study_cpu_s",
                median_of(untraced, [](const Sample& s) { return s.cpu_s; }),
                "s");
    metrics.add("modelled_distributed_s",
                median_of(untraced,
                          [](const Sample& s) {
                            return s.result.modelled_distributed_ms / 1e3;
                          }),
                "s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("net_bytes",
                median_of(untraced,
                          [](const Sample& s) {
                            return static_cast<double>(
                                s.result.network_bytes_total);
                          }),
                "B");
    metrics.add("epc_peak_mb",
                median_of(untraced,
                          [](const Sample& s) { return epc_peak_mb(s.result); }),
                "MB");
    metrics.add("rss_peak_mb", rss_mb, "MB");
    metrics.add("ok_frac",
                static_cast<double>(attempted - failed) /
                    static_cast<double>(attempted),
                "frac");
  } else if (trace != nullptr && median_of(untraced, wall) > 0) {
    // `trace` holds the spans of the last traced study that succeeded.
    const Sample& last = *std::find_if(traced.rbegin(), traced.rend(),
                                       [](const Sample& s) { return s.ok; });
    const double untraced_s = median_of(untraced, wall);
    perfbench::add_trace_metrics(last.result, *trace, last.wall_s * 1e3,
                                 metrics);
    metrics.add("net.transport_s",
                in_process.empty() ? 0.0
                                   : untraced_s - median_of(in_process, wall),
                "s");
    metrics.add("obs.overhead_pct",
                100.0 * (median_of(traced, wall) / untraced_s - 1.0), "%");
    perfbench::add_replay_metrics(cohort, spec, last.result, metrics);
  }

  obs::JsonValue env = obs::JsonValue::object();
  for (const char* name : kRecordedEnv) {
    const char* value = std::getenv(name);
    env.set(name, value == nullptr ? obs::JsonValue() : obs::JsonValue(value));
  }
  const core::StudyResult* any_result = nullptr;
  for (const Sample& sample : untraced) {
    if (sample.ok) any_result = &sample.result;
  }
  obs::JsonValue stamp = obs::JsonValue::object();
  stamp.set("workload", std::string(workload->name));
  stamp.set("seed", options.seed);
  stamp.set("seconds", options.seconds);
  stamp.set("trace", options.trace);
  stamp.set("smoke", options.smoke);
  stamp.set("nproc", std::thread::hardware_concurrency());
  stamp.set("cpu_model", cpu_model());
  stamp.set("compiler", PERFBENCH_COMPILER);
  stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  stamp.set("kernel_backend",
            any_result ? any_result->kernel_backend : std::string());
  stamp.set("crypto_backend",
            any_result ? any_result->crypto_backend : std::string());
  stamp.set("env", std::move(env));
  stamp.set("studies_untraced", untraced.size());
  stamp.set("studies_traced", traced.size());
  stamp.set("setup_runs", setup_s.size());
  stamp.set("l_safe_size", expected.size());
  obs::JsonValue stamp_line = obs::JsonValue::object();
  stamp_line.set("stamp", std::move(stamp));
  std::printf("%s\n", stamp_line.dump().c_str());

  obs::JsonValue result = obs::JsonValue::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", metrics.to_json());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--wrong-oracle]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
