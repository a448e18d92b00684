// libFuzzer harness for the sans-IO protocol sessions.
//
// Each input is a little event script driven straight into the session step
// surface — the same entry points the epoll driver and the blocking pumps
// use. The first byte picks the role (member or leader); the rest is a
// sequence of operations: deliver a frame (mutated wire bytes included),
// tick past the receive deadline, report a peer loss, close the transport,
// or fail a pending send. The seed corpus wraps the frames of a recorded
// clean 3-GDO run in this format, so the fuzzer starts from real handshakes
// and sealed records and mutates from there.
//
// The harness asserts the driver contract rather than protocol success: a
// session fed arbitrary events must always settle into exactly one of
// done/failed/recv, never crash, never leak, and never keep output queued
// after a flush was acknowledged.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fuzz_protocol_step.hpp"

#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "tee/attestation.hpp"

namespace gendpr::fuzz {
namespace {

using core::LeaderSession;
using core::MemberSession;
using core::OutFrame;
using core::ProtocolSession;
using core::SendFailure;
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
/// The send-failure decisions read from the BACK of the script so they
/// cannot shear the frame encoding at the front out of alignment — the
/// fuzzer gets a dedicated control region instead.
struct Script {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  std::size_t back;

  Script(const std::uint8_t* bytes, std::size_t count)
      : data(bytes), size(count), back(count) {}

  bool done() const { return pos >= back; }
  std::uint8_t u8() { return pos < back ? data[pos++] : 0; }
  std::uint8_t u8_back() { return back > pos ? data[--back] : 0; }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  common::Bytes payload(std::size_t len) {
    const std::size_t take = std::min(len, back - std::min(pos, back));
    common::Bytes bytes(data + pos, data + pos + take);
    pos += take;
    return bytes;
  }
};

void drive(ProtocolSession& session, Script script) {
  using Clock = ProtocolSession::Clock;
  Clock::time_point now = Clock::now();
  session.start(now);
  // Bound the event count: a script byte can always mint one more op, and
  // the fuzzer should explore breadth, not spin one session forever.
  for (int ops = 0; ops < 512; ++ops) {
    if (session.wants() == SessionWants::done ||
        session.wants() == SessionWants::failed) {
      break;
    }
    if (session.wants() == SessionWants::send) {
      std::vector<OutFrame> frames = session.take_output();
      std::vector<SendFailure> failures;
      if (script.u8_back() % 8 == 1 && !frames.empty()) {
        failures.push_back(SendFailure{
            frames.front().to_gdo,
            common::make_error(common::Errc::unknown_peer,
                               "fuzz: peer connection lost")});
      }
      session.on_sends_complete(std::move(failures), now);
      continue;
    }
    if (script.done()) break;
    switch (script.u8() % 5) {
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
      case 3:  // this node's own transport goes away
        session.on_transport_closed(now);
        break;
      default:  // spurious early tick: must be ignored
        session.on_tick(now);
        break;
    }
  }
  // Contract: after any event sequence the session is in a defined state
  // with a consistent status.
  switch (session.wants()) {
    case SessionWants::done:
      if (!session.status().ok()) std::abort();
      break;
    case SessionWants::failed:
      if (session.status().ok()) std::abort();
      break;
    case SessionWants::recv:
      break;
    case SessionWants::send:
    case SessionWants::idle:
      std::abort();  // drive() always settles sends; start() was called
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
