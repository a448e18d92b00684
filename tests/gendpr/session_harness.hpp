// Test support for federations assembled by hand: protocol sessions, real
// or scripted, each on its own hub, all driven on one event loop by the
// same SessionDriver the federation runner uses. Members dial the leader.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gendpr/session.hpp"
#include "gendpr/session_driver.hpp"
#include "message_bytes.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "net/memory_hub.hpp"

namespace gendpr::core {

class SessionHarness {
 public:
  enum class Transport { memory, epoll };

  explicit SessionHarness(std::uint32_t leader_gdo = 0,
                          Transport transport = Transport::memory)
      : leader_gdo_(leader_gdo), transport_(transport) {}

  /// Adds GDO `gdo`, run by `session` (which must outlive the harness).
  void add(std::uint32_t gdo, ProtocolSession& session) {
    std::unique_ptr<net::Hub> hub;
    if (transport_ == Transport::memory) {
      hub = std::make_unique<net::MemoryHub>(registry_, loop_, node_id_of(gdo));
    } else {
      auto created = net::EpollHub::create(loop_, node_id_of(gdo), 0);
      if (created.ok()) hub = std::move(created).take();
    }
    drivers_.push_back(std::make_unique<SessionDriver>(loop_, *hub, session));
    hubs_.push_back(std::move(hub));
    gdos_.push_back(gdo);
  }

  /// Invoked on the loop thread when GDO `gdo`'s session finishes.
  void on_finished(std::uint32_t gdo, std::function<void()> callback) {
    drivers_[index_of(gdo)]->set_on_finished(std::move(callback));
  }

  /// Destroys GDO `gdo`'s hub: its host goes away mid-study. Posted, so it
  /// is safe to call from a hub callback.
  void kill_hub(std::uint32_t gdo) {
    loop_.post([this, i = index_of(gdo)] {
      drivers_[i].reset();
      hubs_[i].reset();
    });
  }

  /// Starts every session (members first, dialing the leader) and runs the
  /// loop until every session finished.
  void run() {
    const std::size_t leader = index_of(leader_gdo_);
    for (std::size_t i = 0; i < gdos_.size(); ++i) {
      if (i == leader) continue;
      hubs_[i]->connect_peer(node_id_of(leader_gdo_), "127.0.0.1",
                             hubs_[leader]->port());
      drivers_[i]->start();
    }
    drivers_[leader]->start();
    loop_.run_until([this] {
      for (const auto& driver : drivers_) {
        if (driver != nullptr && !driver->finished()) return false;
      }
      return true;
    });
  }

  /// GDO `gdo`'s hub (alive until the harness is destroyed or the hub is
  /// killed).
  net::Hub& hub(std::uint32_t gdo) { return *hubs_[index_of(gdo)]; }

 private:
  std::size_t index_of(std::uint32_t gdo) const {
    for (std::size_t i = 0; i < gdos_.size(); ++i) {
      if (gdos_[i] == gdo) return i;
    }
    return gdos_.size();
  }

  std::uint32_t leader_gdo_;
  Transport transport_;
  net::EventLoop loop_;
  net::MemoryHub::Registry registry_;
  std::vector<std::uint32_t> gdos_;
  std::vector<std::unique_ptr<net::Hub>> hubs_;
  std::vector<std::unique_ptr<SessionDriver>> drivers_;
};

/// A member host scripted by the test instead of MemberSession's logic. It
/// speaks the protocol from GdoEnclave and SecureChannel primitives, so a
/// test can forge, corrupt, or go silent at a chosen step.
class ScriptedMember : public ProtocolSession {
 public:
  enum class Stop { after_handshake, after_announce, after_reply };

  /// Builds the record sent after the announce from the enclave that
  /// processed it and the established channel.
  using Reply =
      std::function<common::Bytes(GdoEnclave&, tee::SecureChannel&)>;

  struct Script {
    /// Sent in place of the attested handshake; the script then stops.
    std::optional<common::Bytes> raw_handshake;
    Stop stop = Stop::after_reply;
    Reply reply;
    /// When set, the script also takes the leader's Phase1Result into the
    /// enclave and then sends this record (built like `reply`).
    Reply after_phase1;
  };

  ScriptedMember(tee::Platform& platform, std::uint32_t gdo,
                 std::uint32_t leader_gdo, genome::BitPlanes cases,
                 Script script)
      : leader_gdo_(leader_gdo),
        enclave_(platform, gdo),
        script_(std::move(script)) {
    provision_status_ = enclave_.provision_dataset(std::move(cases));
  }
  ~ScriptedMember() override { destroy_coroutine(); }

  /// A member that sends the honest summary stats, then goes silent: a
  /// crash right after phase-1 input submission.
  static Script until_summary() {
    Script script;
    script.reply = [](GdoEnclave& enclave, tee::SecureChannel& channel) {
      return channel
          .seal(envelope(MsgType::summary_stats,
                         serialize(enclave.make_summary_stats())))
          .value();
    };
    return script;
  }

  /// A member that goes silent at `stop` without sending anything further.
  static Script silent_at(Stop stop) {
    Script script;
    script.stop = stop;
    return script;
  }

 protected:
  Main run_protocol() override {
    if (!provision_status_.ok()) co_return provision_status_;
    if (script_.raw_handshake.has_value()) {
      queue_frame(leader_gdo_, *script_.raw_handshake);
      (void)co_await flush_sends();
      co_return common::Status::success();
    }
    auto channel = enclave_.channel_to(trusted_module_measurement(),
                                       /*initiator=*/true);
    queue_frame(leader_gdo_, channel->handshake_message());
    (void)co_await flush_sends();

    Event handshake = co_await wait_input();
    while (handshake.kind == Event::Kind::wake) {
      handshake = co_await wait_input();
    }
    if (handshake.kind != Event::Kind::frame) {
      co_return common::make_error(common::Errc::state_violation,
                                   "scripted member: no handshake reply");
    }
    if (auto s = channel->complete(handshake.payload); !s.ok()) co_return s;
    if (script_.stop == Stop::after_handshake) {
      co_return common::Status::success();
    }

    Event announce_record = co_await wait_input();
    while (announce_record.kind == Event::Kind::wake) {
      announce_record = co_await wait_input();
    }
    if (announce_record.kind != Event::Kind::frame) {
      co_return common::make_error(common::Errc::state_violation,
                                   "scripted member: no announce");
    }
    auto plaintext = channel->open(announce_record.payload);
    if (!plaintext.ok()) co_return plaintext.error();
    auto opened = open_envelope(plaintext.value());
    if (!opened.ok()) co_return opened.error();
    auto announce = wire::decode<StudyAnnounce>(opened.value().second);
    if (!announce.ok()) co_return announce.error();
    if (auto s = enclave_.on_study_announce(announce.value()); !s.ok()) {
      co_return s;
    }
    if (script_.stop == Stop::after_announce) {
      co_return common::Status::success();
    }

    queue_frame(leader_gdo_, script_.reply(enclave_, *channel));
    (void)co_await flush_sends();
    if (!script_.after_phase1) co_return common::Status::success();

    Event phase1_record = co_await wait_input();
    while (phase1_record.kind == Event::Kind::wake) {
      phase1_record = co_await wait_input();
    }
    if (phase1_record.kind != Event::Kind::frame) {
      co_return common::make_error(common::Errc::state_violation,
                                   "scripted member: no phase-1 result");
    }
    auto phase1_plaintext = channel->open(phase1_record.payload);
    if (!phase1_plaintext.ok()) co_return phase1_plaintext.error();
    auto phase1_opened = open_envelope(phase1_plaintext.value());
    if (!phase1_opened.ok()) co_return phase1_opened.error();
    auto phase1 = wire::decode<Phase1Result>(phase1_opened.value().second);
    if (!phase1.ok()) co_return phase1.error();
    if (auto s = enclave_.on_phase1(phase1.value()); !s.ok()) co_return s;
    queue_frame(leader_gdo_, script_.after_phase1(enclave_, *channel));
    (void)co_await flush_sends();
    co_return common::Status::success();
  }

 private:
  std::uint32_t leader_gdo_;
  GdoEnclave enclave_;
  Script script_;
  common::Status provision_status_;
};

}  // namespace gendpr::core
