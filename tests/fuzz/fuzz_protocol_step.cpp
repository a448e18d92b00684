// libFuzzer harness for the sans-IO protocol sessions.
//
// Each input is a little event script driven straight into the session's
// event surface — the same entry points the event-loop driver uses. The
// first byte picks the role (member or leader); the rest is a sequence of
// operations: deliver a frame (mutated wire bytes included), tick past the
// receive deadline, report a peer loss (the driver reports a refused send
// the same way), or tick early. The seed corpus wraps the frames of a
// recorded clean 3-GDO run in this format, so the fuzzer starts from real
// handshakes and sealed records and mutates from there.
//
// The harness asserts the driver contract rather than protocol success:
// after every event, with its output drained, a session fed arbitrary
// events is in exactly one of recv/done/failed with a consistent status,
// and it never crashes or leaks.
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "fuzz_protocol_step.hpp"

#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "tee/attestation.hpp"

namespace gendpr::fuzz {
namespace {

using core::LeaderSession;
using core::MemberSession;
using core::ProtocolSession;
using core::SessionWants;

/// One fixed tiny study: enough structure for every protocol phase while
/// keeping per-input session construction cheap.
struct Fixture {
  Fixture() {
    genome::CohortSpec spec;
    spec.num_case = 24;
    spec.num_control = 24;
    spec.num_snps = 8;
    spec.seed = 1234;
    cohort = genome::generate_cohort(spec);
  }
  genome::Cohort cohort;
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

/// Consumes the script one field at a time; reads past the end return 0.
struct Script {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool done() const { return pos >= size; }
  std::uint8_t u8() { return pos < size ? data[pos++] : 0; }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  common::BytesView payload(std::size_t len) {
    const std::size_t take = std::min(len, size - std::min(pos, size));
    const common::BytesView bytes(data + pos, take);
    pos += take;
    return bytes;
  }
};

/// The driver contract every entry point keeps: with its output drained
/// the session waits for input or has finished, with a status to match.
void check_settled(ProtocolSession& session) {
  (void)session.take_output();
  switch (session.wants()) {
    case SessionWants::done:
      if (!session.status().ok()) std::abort();
      break;
    case SessionWants::failed:
      if (session.status().ok()) std::abort();
      break;
    case SessionWants::recv:
      break;
    case SessionWants::idle:
      std::abort();  // start() was called
  }
}

void drive(ProtocolSession& session, Script script) {
  using Clock = ProtocolSession::Clock;
  Clock::time_point now = Clock::now();
  session.start(now);
  check_settled(session);
  // Bound the event count: a script byte can always mint one more op, and
  // the fuzzer should explore breadth, not spin one session forever.
  for (int ops = 0; ops < 512; ++ops) {
    if (session.wants() == SessionWants::done ||
        session.wants() == SessionWants::failed) {
      break;
    }
    if (script.done()) break;
    switch (script.u8() % 4) {
      case 0: {  // deliver a frame
        const std::uint32_t from = script.u8() % 4;
        session.on_frame(from, script.payload(script.u16()), now);
        break;
      }
      case 1: {  // time passes; fire the armed deadline if any
        now += std::chrono::milliseconds(1 + script.u8());
        const auto deadline = session.next_deadline();
        if (deadline.has_value() && *deadline > now) now = *deadline;
        session.on_tick(now);
        break;
      }
      case 2:  // a peer connection drops
        session.on_peer_lost(script.u8() % 4, now);
        break;
      default:  // spurious early tick: must be ignored
        session.on_tick(now);
        break;
    }
    check_settled(session);
  }
}

}  // namespace

int run_one_input(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const Fixture& study = fixture();
  Script script{data + 1, size - 1};
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x41});
  if (data[0] % 2 == 0) {
    tee::Platform platform(2, authority,
                           crypto::Csprng(std::array<std::uint8_t, 32>{2}));
    MemberSession member(platform, 1, 0,
                         genome::BitPlanes(study.cohort.cases, 8, 16));
    member.set_receive_timeout(std::chrono::milliseconds(100));
    drive(member, script);
  } else {
    tee::Platform platform(1, authority,
                           crypto::Csprng(std::array<std::uint8_t, 32>{1}));
    LeaderSession leader(platform, 0, 3,
                         genome::BitPlanes(study.cohort.cases, 0, 8),
                         genome::BitPlanes(study.cohort.controls),
                         core::StudyConfig{}, core::CollusionPolicy::none());
    leader.set_receive_timeout(std::chrono::milliseconds(100));
    drive(leader, script);
  }
  return 0;
}

}  // namespace gendpr::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return gendpr::fuzz::run_one_input(data, size);
}
