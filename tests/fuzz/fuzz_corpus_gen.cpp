// Seed-corpus generator for the protocol-step fuzzer.
//
// Pumps one clean 3-GDO study entirely at the session step level — the same
// fixture (cohort, seeds, study plan) the fuzz harness builds its sessions
// from, so every recorded frame decrypts against the harness's enclaves —
// and writes the frames each role received as harness-format scripts:
// a full-conversation seed per role plus one seed per individual frame.
// Every written file is immediately replayed through the harness as a
// self-check, so a stale fixture fails here instead of silently degrading
// the corpus.
//
// It also writes the codec harness's seeds: each pinned message body behind
// its type byte (codec_<name>), each of which must decode.
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fuzz_message_codecs.hpp"
#include "fuzz_protocol_step.hpp"
#include "pinned_messages.hpp"

#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "obs/observability.hpp"
#include "tee/attestation.hpp"

namespace {

using gendpr::core::InFrame;
using gendpr::core::LeaderSession;
using gendpr::core::MemberSession;
using gendpr::core::OutFrame;
using gendpr::core::ProtocolSession;
using gendpr::core::SessionWants;
using gendpr::genome::BitPlanes;

constexpr std::uint8_t kMemberRole = 0;
constexpr std::uint8_t kLeaderRole = 1;

/// Appends one frame-delivery op in the harness's script encoding.
void append_frame_op(std::vector<std::uint8_t>& script, std::uint32_t from,
                     const gendpr::common::Bytes& payload) {
  script.push_back(0);  // op: deliver frame
  script.push_back(static_cast<std::uint8_t>(from));
  script.push_back(static_cast<std::uint8_t>(payload.size() & 0xFF));
  script.push_back(static_cast<std::uint8_t>((payload.size() >> 8) & 0xFF));
  script.insert(script.end(), payload.begin(), payload.end());
}

bool write_seed(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::fprintf(stderr, "seed: %s (%zu bytes)\n", path.string().c_str(),
               bytes.size());
  return true;
}

bool write_and_check(const std::filesystem::path& path,
                     const std::vector<std::uint8_t>& bytes) {
  if (!write_seed(path, bytes)) return false;
  gendpr::fuzz::run_one_input(bytes.data(), bytes.size());  // self-check
  return true;
}

bool write_codec_seeds(const std::filesystem::path& corpus_dir) {
  bool ok = true;
  for (const gendpr::core::PinnedEncoding& pin :
       gendpr::core::pinned_encodings()) {
    std::vector<std::uint8_t> seed{pin.tag};
    seed.insert(seed.end(), pin.expected.begin(), pin.expected.end());
    if (!gendpr::fuzz::check_message_codecs(seed.data(), seed.size())) {
      std::fprintf(stderr, "pinned %s body does not decode\n", pin.name);
      ok = false;
    }
    ok = write_seed(corpus_dir / (std::string("codec_") + pin.name), seed) &&
         ok;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path corpus_dir = argv[1];
  std::filesystem::create_directories(corpus_dir);
  if (!write_codec_seeds(corpus_dir)) return 1;

  // The harness fixture, reproduced: same cohort, same platform seeds, same
  // study plan, leader = GDO 0 with slice [0,8), member 1 with [8,16).
  gendpr::genome::CohortSpec cohort_spec;
  cohort_spec.num_case = 24;
  cohort_spec.num_control = 24;
  cohort_spec.num_snps = 8;
  cohort_spec.seed = 1234;
  const gendpr::genome::Cohort cohort =
      gendpr::genome::generate_cohort(cohort_spec);
  gendpr::tee::QuotingAuthority authority(
      std::array<std::uint8_t, 32>{0x41});
  std::vector<std::unique_ptr<gendpr::tee::Platform>> platforms;
  for (std::uint32_t g = 0; g < 3; ++g) {
    platforms.push_back(std::make_unique<gendpr::tee::Platform>(
        g + 1, authority,
        gendpr::crypto::Csprng(
            std::array<std::uint8_t, 32>{static_cast<std::uint8_t>(g + 1)})));
  }
  LeaderSession leader(*platforms[0], 0, 3, BitPlanes(cohort.cases, 0, 8),
                       BitPlanes(cohort.controls), gendpr::core::StudyConfig{},
                       gendpr::core::CollusionPolicy::none());
  // Observed only to confirm the transcript reaches every handler; the
  // recorded frames are the same either way.
  gendpr::obs::Observability observability;
  leader.set_observability(&observability);
  MemberSession member1(*platforms[1], 1, 0, BitPlanes(cohort.cases, 8, 16));
  MemberSession member2(*platforms[2], 2, 0, BitPlanes(cohort.cases, 16, 24));
  std::vector<ProtocolSession*> sessions{&leader, &member1, &member2};

  // Clean-run pump: FIFO frame routing, recording what GDO 0 (leader role)
  // and GDO 1 (member role) receive.
  struct Delivery {
    std::uint32_t from, to;
    gendpr::common::Bytes payload;
  };
  std::deque<Delivery> in_flight;
  const auto collect = [&](std::uint32_t from, std::vector<OutFrame> frames) {
    for (OutFrame& frame : frames) {
      in_flight.push_back(Delivery{
          from, frame.to_gdo, std::move(frame.payload)});
    }
  };
  for (std::uint32_t g = 0; g < sessions.size(); ++g) {
    collect(g, sessions[g]->step({}));
  }
  std::vector<Delivery> to_leader;
  std::vector<Delivery> to_member;
  while (!in_flight.empty()) {
    Delivery delivery = std::move(in_flight.front());
    in_flight.pop_front();
    if (delivery.to == 0) to_leader.push_back(delivery);
    if (delivery.to == 1) to_member.push_back(delivery);
    collect(delivery.to, sessions[delivery.to]->step(
                             {InFrame{delivery.from, delivery.payload}}));
  }
  for (ProtocolSession* session : sessions) {
    if (session->wants() != SessionWants::done) {
      std::fprintf(stderr, "clean run did not complete: %s\n",
                   session->status().error().to_string().c_str());
      return 1;
    }
  }

  // The leader's seeds must carry each member's LD window, or the fuzzer
  // would start without a frame that reaches the window handler.
  if (observability.metrics.counter("ld.window_tiles") < 2) {
    std::fprintf(stderr, "clean run carried no LD window per member\n");
    return 1;
  }

  // Full-conversation seed plus one seed per frame, per role.
  bool ok = true;
  const auto emit_role = [&](const char* name, std::uint8_t role,
                             const std::vector<Delivery>& frames) {
    std::vector<std::uint8_t> full{role};
    for (std::size_t i = 0; i < frames.size(); ++i) {
      append_frame_op(full, frames[i].from, frames[i].payload);
      std::vector<std::uint8_t> single{role};
      append_frame_op(single, frames[i].from, frames[i].payload);
      ok = ok && write_and_check(corpus_dir / (std::string(name) + "_frame_" +
                                               std::to_string(i)),
                                 single);
    }
    ok = ok &&
         write_and_check(corpus_dir / (std::string(name) + "_full"), full);
  };
  emit_role("leader", kLeaderRole, to_leader);
  emit_role("member", kMemberRole, to_member);
  return ok ? 0 : 1;
}
