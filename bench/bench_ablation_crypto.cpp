// Ablation: what share of GenDPR's end-to-end time is cryptography?
// (DESIGN.md §4). Measures the AEAD record path at the three message sizes
// the protocol actually ships - allele-count vectors (4*L bytes), moment
// responses (~56 bytes), and LR matrix payloads (MBs) - plus one X25519
// scalar multiplication and the attested handshake, and contrasts a full
// federated run against the same pipeline with no network/crypto (the
// centralized baseline).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "crypto/aead.hpp"
#include "crypto/csprng.hpp"
#include "crypto/gcm.hpp"
#include "crypto/x25519.hpp"
#include "gendpr/baselines.hpp"
#include "tee/secure_channel.hpp"

namespace {

using namespace gendpr;
using namespace gendpr::bench;

void BM_Crypto_GcmSeal(benchmark::State& state) {
  const common::Bytes key(32, 0x42);
  const crypto::GcmNonce nonce{};
  const common::Bytes payload(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::gcm_seal(key, nonce, {}, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crypto_GcmSeal)
    ->Arg(56)        // one moments response
    ->Arg(4000)      // count vector, 1,000 SNPs
    ->Arg(40000)     // count vector, 10,000 SNPs
    ->Arg(1 << 22);  // LR matrix scale

void BM_Crypto_GcmOpen(benchmark::State& state) {
  const common::Bytes key(32, 0x42);
  const crypto::GcmNonce nonce{};
  const common::Bytes payload(state.range(0), 0xab);
  const common::Bytes sealed = crypto::gcm_seal(key, nonce, {}, payload);
  for (auto _ : state) {
    auto opened = crypto::gcm_open(key, nonce, {}, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crypto_GcmOpen)->Arg(4000)->Arg(1 << 22);

// Per-backend engine benches over a cached GcmContext: no per-record key
// schedule or GHASH table build, so these isolate the kernel throughput the
// two backends deliver. The gcm_seal/gcm_open benches above go through the
// historical wrappers (context built per call) — comparing the two at 56 B
// shows what context caching alone buys on protocol-sized records.
void BM_Crypto_ContextSeal(benchmark::State& state) {
  const auto backend = static_cast<crypto::AeadBackend>(state.range(1));
  if (!crypto::aead_backend_available(backend)) {
    state.SkipWithError("AEAD backend unavailable on this CPU");
    return;
  }
  const common::Bytes key(32, 0x42);
  const crypto::GcmContext ctx(key, backend);
  const crypto::GcmNonce nonce{};
  const common::Bytes payload(state.range(0), 0xab);
  common::Bytes out(payload.size() + crypto::kGcmTagSize);
  for (auto _ : state) {
    ctx.seal_into(nonce, {}, payload, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::aead_backend_name(backend));
}
BENCHMARK(BM_Crypto_ContextSeal)
    ->ArgNames({"bytes", "backend"})
    ->Args({56, 0})
    ->Args({56, 1})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 1});

void BM_Crypto_ContextOpen(benchmark::State& state) {
  const auto backend = static_cast<crypto::AeadBackend>(state.range(1));
  if (!crypto::aead_backend_available(backend)) {
    state.SkipWithError("AEAD backend unavailable on this CPU");
    return;
  }
  const common::Bytes key(32, 0x42);
  const crypto::GcmContext ctx(key, backend);
  const crypto::GcmNonce nonce{};
  const common::Bytes payload(state.range(0), 0xab);
  const common::Bytes sealed = ctx.seal(nonce, {}, payload);
  common::Bytes scratch;
  for (auto _ : state) {
    if (!ctx.open_to(nonce, {}, sealed, scratch).ok()) {
      state.SkipWithError("open failed");
      return;
    }
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::aead_backend_name(backend));
}
BENCHMARK(BM_Crypto_ContextOpen)
    ->ArgNames({"bytes", "backend"})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 1});

// One scalar multiplication, the unit of the handshake: each channel end
// runs two (its keypair and the shared secret). Each output is the next
// scalar, so no call can be hoisted out of the loop.
void BM_Crypto_X25519(benchmark::State& state) {
  crypto::Csprng rng(std::array<std::uint8_t, 32>{3});
  const crypto::X25519Key peer = crypto::x25519_base(rng.array<32>());
  crypto::X25519Key scalar = rng.array<32>();
  for (auto _ : state) {
    scalar = crypto::x25519(scalar, peer);
    benchmark::DoNotOptimize(scalar);
  }
}
BENCHMARK(BM_Crypto_X25519)->Unit(benchmark::kMicrosecond);

void BM_Crypto_AttestedHandshake(benchmark::State& state) {
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{1});
  const tee::Measurement module = tee::measure("gendpr.trusted", "1.0.0");
  crypto::Csprng rng(std::array<std::uint8_t, 32>{2});
  for (auto _ : state) {
    tee::SecureChannel a(authority, {1, module}, module, true, rng);
    tee::SecureChannel b(authority, {2, module}, module, false, rng);
    benchmark::DoNotOptimize(a.complete(b.handshake_message()));
    benchmark::DoNotOptimize(b.complete(a.handshake_message()));
  }
}
BENCHMARK(BM_Crypto_AttestedHandshake)->Unit(benchmark::kMicrosecond);

/// End-to-end contrast: federated (attestation + AEAD on every exchange)
/// vs the same statistics with no crypto at all. The delta bounds the total
/// crypto + transport share. Each side is timed around its whole call: the
/// runs' own `total_ms` cover unlike work (the federated one starts after
/// the plane builds, the centralized one includes its serial build).
void BM_Crypto_FederatedVsPlain(benchmark::State& state) {
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  double federated_ms = 0;
  double plain_ms = 0;
  for (auto _ : state) {
    core::FederationSpec spec;
    spec.num_gdos = 3;
    const common::Stopwatch federated_watch;
    auto run = core::run_federated_study(cohort, spec);
    federated_ms = federated_watch.elapsed_ms();
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    const common::Stopwatch plain_watch;
    benchmark::DoNotOptimize(
        core::run_centralized(cohort, core::StudyConfig{}));
    plain_ms = plain_watch.elapsed_ms();
  }
  state.counters["Federated_ms"] = federated_ms;
  state.counters["PlainCentral_ms"] = plain_ms;
  state.counters["OverheadPct"] =
      plain_ms > 0 ? 100.0 * (federated_ms - plain_ms) / plain_ms : 0.0;
}
BENCHMARK(BM_Crypto_FederatedVsPlain)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
