#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/bytes.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "crypto/aead.hpp"
#include "crypto/csprng.hpp"
#include "gendpr/messages.hpp"
#include "gendpr/trusted.hpp"
#include "genome/bitplanes.hpp"
#include "genome/kernels/kernels.hpp"
#include "stats/association.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"
#include "tee/attestation.hpp"
#include "tee/enclave.hpp"
#include "tee/identity.hpp"
#include "tee/secure_channel.hpp"

namespace perfbench {

using namespace gendpr;
using common::Stopwatch;

void Metrics::add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

obs::JsonValue Metrics::to_json() const {
  obs::JsonValue json = obs::JsonValue::object();
  for (const Entry& entry : entries_) {
    obs::JsonValue metric = obs::JsonValue::object();
    metric.set("value", entry.value);
    metric.set("unit", entry.unit);
    json.set(entry.name, std::move(metric));
  }
  return json;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// Sorts and merges overlapping intervals in place.
void merge(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::size_t out = 0;
  for (const Interval& next : intervals) {
    if (out > 0 && next.first <= intervals[out - 1].second) {
      intervals[out - 1].second =
          std::max(intervals[out - 1].second, next.second);
    } else {
      intervals[out++] = next;
    }
  }
  intervals.resize(out);
}

double total_ms(const std::vector<Interval>& merged) {
  double total = 0;
  for (const auto& [begin, end] : merged) total += end - begin;
  return total;
}

/// Median wall time of `reps` calls of `fn`.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Stopwatch watch;
    fn();
    times.push_back(watch.elapsed_ms());
  }
  return median(std::move(times));
}

/// Mean wall time per call of `fn`, calling it until `min_ms` have passed.
template <typename Fn>
double per_call_ms(double min_ms, Fn&& fn) {
  const Stopwatch watch;
  std::size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (watch.elapsed_ms() < min_ms);
  return watch.elapsed_ms() / static_cast<double>(calls);
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("replay failed: ") + what);
}

constexpr double kMB = 1e6;
constexpr int kReps = 3;
constexpr double kMinLoopMs = 100;

}  // namespace

double union_ms(std::vector<Interval> intervals) {
  merge(intervals);
  return total_ms(intervals);
}

double difference_ms(std::vector<Interval> a, std::vector<Interval> b) {
  merge(a);
  merge(b);
  double overlap = 0;
  std::size_t j = 0;
  for (const auto& [begin, end] : a) {
    while (j < b.size() && b[j].second <= begin) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < end; ++k) {
      overlap += std::min(end, b[k].second) - std::max(begin, b[k].first);
    }
  }
  return total_ms(a) - overlap;
}

void add_trace_metrics(const core::StudyResult& result,
                       const obs::Observability& obs, double study_ms,
                       Metrics& out) {
  const std::vector<obs::Span> spans = obs.trace.spans();
  const auto closed = [&](auto&& match) {
    std::vector<Interval> intervals;
    for (const obs::Span& span : spans) {
      if (span.duration_ms >= 0 && match(std::string_view(span.name))) {
        intervals.emplace_back(span.start_ms,
                               span.start_ms + span.duration_ms);
      }
    }
    return intervals;
  };
  const auto named = [&](std::string_view name) {
    return closed([name](std::string_view n) { return n == name; });
  };
  const std::vector<Interval> gather_lr = named("step.gather_lr_matrices");
  const std::vector<Interval> step_or_phase =
      closed([](std::string_view n) {
        return n.starts_with("step.") || n.starts_with("phase.");
      });

  const obs::MetricsRegistry& registry = obs.metrics;
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name));
  };
  const auto gauge = [&](const char* name) {
    return registry.gauge(name).value_or(0.0);
  };
  const auto histogram_sum = [&](const char* name) {
    const auto stats = registry.histogram(name);
    return stats.has_value() ? stats->sum : 0.0;
  };

  // gendpr: leader protocol steps and phases. phase.lr opens when LR
  // derivation starts and so covers the LR gather; layer time is taken from
  // interval unions so overlapping spans are not counted twice.
  out.add("gendpr.handshake_ms", union_ms(named("step.handshake")), "ms");
  out.add("gendpr.maf_ms", union_ms(named("phase.maf")), "ms");
  out.add("gendpr.ld_ms", union_ms(named("phase.ld")), "ms");
  out.add("gendpr.gather_lr_ms", union_ms(gather_lr), "ms");
  out.add("gendpr.member_compute_ms", histogram_sum("member.compute_ms"),
          "ms");
  out.add("gendpr.ld_fetch_wait_ms", histogram_sum("leader.ld_fetch_wait_ms"),
          "ms");
  out.add("gendpr.lr_select_ms", difference_ms(named("phase.lr"), gather_lr),
          "ms");
  out.add("gendpr.unattributed_ms",
          difference_ms(named("study"), step_or_phase), "ms");
  const double requests = counter("coordinator.ld_member_requests");
  const auto pairs = static_cast<double>(result.ld_pairs_fetched);
  out.add("gendpr.ld_member_requests", requests, "count");
  out.add("gendpr.ld_pairs_fetched", pairs, "count");
  out.add("gendpr.chi2_values", counter("coordinator.chi2_values_computed"),
          "count");
  out.add("gendpr.lr_matvecs", counter("lr.combination_matvecs"), "count");
  out.add("gendpr.lr_delta_updates", counter("lr.combination_delta_updates"),
          "count");
  out.add("gendpr.phase2_body_bytes",
          static_cast<double>(result.phase2_body_bytes), "B");
  out.add("gendpr.ld_pairs_per_request",
          requests > 0 ? pairs / requests : 0.0, "ratio");

  // crypto: the run's sealing volume.
  const auto records = static_cast<double>(result.crypto_records_sealed);
  const auto sealed = static_cast<double>(result.crypto_bytes_sealed);
  out.add("crypto.records_sealed", records, "count");
  out.add("crypto.bytes_sealed", sealed, "B");
  out.add("crypto.mean_record_bytes", records > 0 ? sealed / records : 0.0,
          "B");

  // tee: simulated enclave page cache high-water marks.
  out.add("tee.epc_peak_leader_mb",
          static_cast<double>(result.epc_peak_leader) / kMB, "MB");
  out.add("tee.epc_peak_member_mb",
          static_cast<double>(result.epc_peak_members_max) / kMB, "MB");

  // wire and net: frame path and transport counters (the socket transports
  // record them; the in-process fabric leaves most at 0).
  out.add("wire.serializations", counter("wire.serializations"), "count");
  out.add("wire.fanout_reuses", counter("wire.fanout_reuses"), "count");
  out.add("wire.copies_per_frame", gauge("wire.copies_per_frame"), "ratio");
  out.add("wire.pool_misses", counter("net.pool.misses"), "count");
  out.add("net.messages", counter("net.total_messages"), "count");
  out.add("net.leader_rx_bytes",
          static_cast<double>(result.leader_bytes_received), "B");
  out.add("net.writev_batches", counter("wire.writev_batches"), "count");
  out.add("net.backpressure_pauses", counter("net.backpressure.pauses"),
          "count");
  out.add("net.stalled_flushes", counter("net.backpressure.stalled_flushes"),
          "count");

  // common: the shared combination pool (absent when f = 0).
  const double pool_threads = gauge("pool.threads");
  out.add("common.pool_tasks", counter("pool.tasks_completed"), "count");
  out.add("common.pool_busy_frac",
          pool_threads > 0
              ? gauge("pool.task_wall_ms") / (pool_threads * study_ms)
              : 0.0,
          "frac");
}

namespace {

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

struct StatsReplay {
  stats::LrMatrix case_lr;  // pooled cases over L''
  PairList walk_pairs;      // pairs the LD walk over L' visited
};

/// stats: the centralized pipeline's calls on the pooled cohort, over the
/// run's own L' (LD walk) and L'' (LR build and selection).
StatsReplay replay_stats(const genome::Cohort& cohort,
                         const core::FederationSpec& spec,
                         const core::StudyResult& result, Metrics& out) {
  const std::vector<std::uint32_t>& l_double_prime =
      result.outcome.l_double_prime;
  const genome::BitPlanes case_planes(cohort.cases);
  const genome::BitPlanes ref_planes(cohort.controls);
  const std::uint64_t n_case = cohort.cases.num_individuals();
  const std::uint64_t n_ref = cohort.controls.num_individuals();
  std::vector<double> p_values(cohort.cases.num_snps());
  for (std::size_t l = 0; l < p_values.size(); ++l) {
    p_values[l] = stats::chi2_p_value(
        {case_planes.allele_count(l), n_case, ref_planes.allele_count(l),
         n_ref});
  }
  StatsReplay replay;
  const auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
    replay.walk_pairs.emplace_back(a, b);
    stats::LdMoments moments = stats::compute_ld_moments(case_planes, a, b);
    moments += stats::compute_ld_moments(ref_planes, a, b);
    return stats::ld_p_value(moments);
  };
  const double ld_prune_ms = median_ms(kReps, [&] {
    replay.walk_pairs.clear();
    stats::greedy_ld_prune(result.outcome.l_prime, spec.config.ld_cutoff,
                           p_values, pair_p_value);
  });

  std::vector<double> case_freq(l_double_prime.size());
  std::vector<double> ref_freq(l_double_prime.size());
  for (std::size_t i = 0; i < l_double_prime.size(); ++i) {
    case_freq[i] = static_cast<double>(
                       case_planes.allele_count(l_double_prime[i])) /
                   static_cast<double>(n_case);
    ref_freq[i] =
        static_cast<double>(ref_planes.allele_count(l_double_prime[i])) /
        static_cast<double>(n_ref);
  }
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  stats::LrMatrix ref_lr;
  const double lr_build_ms = median_ms(kReps, [&] {
    replay.case_lr =
        stats::build_lr_matrix(case_planes, l_double_prime, weights);
    ref_lr = stats::build_lr_matrix(ref_planes, l_double_prime, weights);
  });
  stats::LrSelectionParams params;
  params.false_positive_rate = spec.config.lr_false_positive_rate;
  params.power_threshold = spec.config.lr_power_threshold;
  const double select_ms = median_ms(kReps, [&] {
    (void)stats::select_safe_snps(replay.case_lr, ref_lr, params);
  });
  common::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const double select_pool_ms = median_ms(kReps, [&] {
    (void)stats::select_safe_snps(replay.case_lr, ref_lr, params, &pool);
  });
  out.add("stats.lr_build_ms", lr_build_ms, "ms");
  out.add("stats.select_safe_ms", select_ms, "ms");
  out.add("stats.select_safe_pool_ms", select_pool_ms, "ms");
  out.add("stats.ld_prune_ms", ld_prune_ms, "ms");
  return replay;
}

/// genome: per-GDO bit planes and the dispatched popcount kernels over
/// every plane and over the LD walk's pairs on every partition.
void replay_genome(const genome::Cohort& cohort,
                   const core::FederationSpec& spec,
                   const PairList& walk_pairs, Metrics& out) {
  std::vector<genome::GenotypeMatrix> partitions;
  for (const auto& [begin, end] : genome::equal_partition(
           cohort.cases.num_individuals(), spec.num_gdos)) {
    partitions.push_back(cohort.cases.slice_rows(begin, end));
  }
  std::vector<genome::BitPlanes> planes(partitions.size());
  const double bitplanes_ms = median_ms(kReps, [&] {
    for (std::size_t g = 0; g < partitions.size(); ++g) {
      planes[g] = genome::BitPlanes(partitions[g]);
    }
  });
  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  std::uint64_t checksum = 0;
  double allele_bytes = 0;
  double pair_bytes = 0;
  for (const genome::BitPlanes& p : planes) {
    const double plane_bytes =
        static_cast<double>(p.words_per_plane() * sizeof(std::uint64_t));
    allele_bytes += plane_bytes * static_cast<double>(p.num_snps());
    pair_bytes += 2 * plane_bytes * static_cast<double>(walk_pairs.size());
  }
  const double allele_count_ms = per_call_ms(kMinLoopMs, [&] {
    for (const genome::BitPlanes& p : planes) {
      for (std::size_t l = 0; l < p.num_snps(); ++l) {
        checksum += ops.popcount_words(p.plane(l), p.words_per_plane());
      }
    }
  });
  const double pair_popcount_ms = per_call_ms(kMinLoopMs, [&] {
    for (const genome::BitPlanes& p : planes) {
      for (const auto& [a, b] : walk_pairs) {
        checksum +=
            ops.and_popcount_words(p.plane(a), p.plane(b), p.words_per_plane());
      }
    }
  });
  // Consuming the sums keeps the kernel loops from being optimized away.
  require(checksum != 0, "kernel checksum");
  out.add("genome.bitplanes_ms", bitplanes_ms, "ms");
  out.add("genome.allele_count_ms", allele_count_ms, "ms");
  out.add("genome.pair_popcount_ms", pair_popcount_ms, "ms");
  // Computed, not counted: plane bytes the two kernels read per pass over
  // their summed pass time.
  out.add("genome.kernel_GBps",
          (allele_bytes + pair_bytes) / 1e6 /
              (allele_count_ms + pair_popcount_ms),
          "GB/s");
}

/// crypto: AES-256-GCM at the run's mean record size, and the run's
/// sealing volume at those rates (every record sealed once, opened once).
void replay_crypto(const core::StudyResult& result, Metrics& out) {
  const std::size_t record_bytes =
      result.crypto_records_sealed == 0
          ? 1
          : std::max<std::size_t>(1, result.crypto_bytes_sealed /
                                         result.crypto_records_sealed);
  const std::array<std::uint8_t, 32> key{0x42};
  const crypto::GcmContext gcm(key);
  const crypto::GcmNonce nonce{};
  const common::Bytes plaintext(record_bytes, 0x5a);
  common::Bytes record(record_bytes + crypto::kGcmTagSize);
  common::Bytes opened(record_bytes);
  const double seal_ms = per_call_ms(kMinLoopMs, [&] {
    gcm.seal_into(nonce, {}, plaintext, record.data());
  });
  const double open_ms = per_call_ms(kMinLoopMs, [&] {
    require(gcm.open_into(nonce, {}, record, opened.data()).ok(), "gcm open");
  });
  const double seal_mbps =
      static_cast<double>(record_bytes) / kMB / (seal_ms / 1e3);
  const double open_mbps =
      static_cast<double>(record_bytes) / kMB / (open_ms / 1e3);
  const auto volume_mb = static_cast<double>(result.crypto_bytes_sealed) / kMB;
  out.add("crypto.seal_MBps", seal_mbps, "MB/s");
  out.add("crypto.open_MBps", open_mbps, "MB/s");
  out.add("crypto.est_ms", 1e3 * (volume_mb / seal_mbps + volume_mb / open_mbps),
          "ms");
}

/// tee: one mutually attested channel handshake between two platforms.
void replay_tee(Metrics& out) {
  const tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x17});
  tee::Platform initiator(1, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{1}));
  tee::Platform responder(2, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{2}));
  const tee::Measurement module =
      tee::measure(core::kTrustedModuleName, core::kTrustedModuleVersion);
  const double channel_ms = median_ms(15, [&] {
    tee::SecureChannel a(authority, {initiator.id(), module}, module, true,
                         initiator.rng());
    tee::SecureChannel b(authority, {responder.id(), module}, module, false,
                         responder.rng());
    require(a.complete(b.handshake_message()).ok() &&
                b.complete(a.handshake_message()).ok(),
            "channel handshake");
  });
  out.add("tee.channel_setup_ms", channel_ms, "ms");
}

/// wire: one member's LR upload (one matrix per combination it belongs
/// to, its case rows by |L''| columns), values taken from `case_lr`.
void replay_wire(const genome::Cohort& cohort,
                 const core::FederationSpec& spec,
                 const core::StudyResult& result,
                 const stats::LrMatrix& case_lr, Metrics& out) {
  const std::uint32_t member = result.leader_gdo == 0 ? 1 : 0;
  const auto [begin, end] = genome::equal_partition(
      cohort.cases.num_individuals(), spec.num_gdos)[member];
  const std::size_t rows = end - begin;
  const std::size_t cols = case_lr.cols();
  const auto combinations =
      core::Coordinator::build_combinations(spec.num_gdos, spec.policy);
  core::LrMatrices upload;
  for (std::size_t c = 0; c < combinations.size(); ++c) {
    const auto& members = combinations[c];
    if (std::find(members.begin(), members.end(), member) == members.end()) {
      continue;
    }
    stats::LrMatrix matrix(rows, cols);
    std::copy_n(case_lr.values().begin(), rows * cols,
                matrix.values().begin());
    upload.entries.push_back({static_cast<std::uint32_t>(c), std::move(matrix)});
  }
  common::Bytes encoded;
  const double serialize_ms =
      median_ms(kReps, [&] { encoded = upload.serialize(); });
  const double deserialize_ms = median_ms(kReps, [&] {
    require(core::LrMatrices::deserialize(encoded).ok(), "LrMatrices decode");
  });
  out.add("wire.lr_serialize_ms", serialize_ms, "ms");
  out.add("wire.lr_deserialize_ms", deserialize_ms, "ms");
}

}  // namespace

void add_replay_metrics(const genome::Cohort& cohort,
                        const core::FederationSpec& spec,
                        const core::StudyResult& result, Metrics& out) {
  const StatsReplay stats = replay_stats(cohort, spec, result, out);
  replay_genome(cohort, spec, stats.walk_pairs, out);
  replay_crypto(result, out);
  replay_tee(out);
  replay_wire(cohort, spec, result, stats.case_lr, out);
}

}  // namespace perfbench
