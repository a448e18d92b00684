// Sans-IO protocol sessions.
//
// A ProtocolSession is the per-node protocol state machine with every I/O
// dependency inverted: no sockets, no threads, no clocks inside. The driver
// feeds events in through four entry points (`start`, `on_frame`,
// `on_tick`, `on_peer_lost`) and after each one hands the frames the
// session queued meanwhile (`take_output()`) to its transport; a send the
// transport refuses comes back as `on_peer_lost`. After start() the session
// is in recv, done or failed whenever an entry point returns: the body
// suspends only while it waits, and each wait ends in one of three ways, a
// frame, a deadline or a peer loss. There is no input mailbox: a frame for
// a session that is not waiting (not yet started, or finished) is dropped.
// Deadlines are pure data: a recv wait publishes its expiry through
// next_deadline() and the driver reports the passage of time with
// on_tick(now), so the timeout/abort semantics are the same under any
// front-end.
//
// The protocol bodies are written once as C++20 coroutines (run_protocol)
// that suspend only at their receive points; the event-loop host
// (session_driver.hpp), step-level unit tests, and the fuzz harnesses are
// all just different drivers of the same coroutine. Sessions speak GDO
// indices; translating them to transport node ids is the driver's job.
#pragma once

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/coro.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gendpr/messages.hpp"
#include "gendpr/study_result.hpp"
#include "gendpr/trusted.hpp"
#include "obs/observability.hpp"
#include "tee/enclave.hpp"

namespace gendpr::core {

/// What a session needs from its driver to make progress.
enum class SessionWants {
  idle,    // constructed; start() not yet called
  recv,    // waiting for a frame, a tick past next_deadline(), or a loss
  done,    // protocol finished cleanly; status().ok()
  failed,  // protocol finished with an error; see status()
};

/// A frame the session wants delivered to `to_gdo`. The payload is the
/// sealed record (or handshake message) exactly as it must cross the wire;
/// the driver moves it into the hub.
struct OutFrame {
  std::uint32_t to_gdo = 0;
  common::Bytes payload;
};

/// A message serialized (and enveloped) once for fan-out: broadcast and
/// multicast seal the same staged bytes per peer, so the serialization cost
/// is paid per distinct message, never per recipient.
struct StagedMessage {
  common::Bytes bytes;
  /// Set by the first per-peer seal; later seals count as fan-out reuses.
  bool sealed_once = false;
};

/// A frame received from `from_gdo` (driver-translated from transport ids).
struct InFrame {
  std::uint32_t from_gdo = 0;
  common::Bytes payload;
};

/// Base protocol session: driver-facing surface plus the coroutine plumbing
/// the member/leader protocol bodies are written against.
class ProtocolSession {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  ProtocolSession() = default;
  virtual ~ProtocolSession();

  ProtocolSession(const ProtocolSession&) = delete;
  ProtocolSession& operator=(const ProtocolSession&) = delete;

  /// Bounds every protocol wait (kNoDeadline = wait forever). Each recv
  /// suspension takes a fresh deadline of now + timeout. Call before
  /// start().
  void set_receive_timeout(std::chrono::milliseconds timeout) noexcept {
    receive_timeout_ = timeout;
  }

  /// Starts the protocol body; runs it until its first suspension. The
  /// session is single-threaded: all entry points below must be called from
  /// the driver's thread, never concurrently.
  void start(TimePoint now);

  /// Delivers one frame to the waiting protocol body. The view aliases the
  /// caller's buffer and is consumed before this call returns. A frame for
  /// a session that is not waiting (idle, done or failed) is dropped.
  void on_frame(std::uint32_t from_gdo, common::BytesView payload,
                TimePoint now);

  /// Reports the passage of time. Resumes a recv wait with a timeout event
  /// iff `now` has reached next_deadline(); earlier ticks are ignored, so
  /// spurious wakeups are harmless.
  void on_tick(TimePoint now);

  /// Reports that the transport lost the connection to a peer, or refused a
  /// frame for it. Queues the loss for the protocol body (leader waits fold
  /// it into the dead set; a member fails on its leader's) and wakes the
  /// current recv wait, or the next one if the body is not waiting, once so
  /// the body can react. Repeats are harmless.
  void on_peer_lost(std::uint32_t gdo_index, TimePoint now);

  SessionWants wants() const noexcept { return wants_; }

  /// Frames queued since the last call, in send order (empties the queue).
  /// Drivers drain it after every entry point above, whatever wants() then
  /// reads: a session that just finished may have queued its last frames
  /// (a member's final reply, the leader's abort notices).
  std::vector<OutFrame> take_output();

  /// Expiry of the current recv wait, if one is armed (wants()==recv and a
  /// positive receive timeout is configured).
  std::optional<TimePoint> next_deadline() const noexcept {
    return wants_ == SessionWants::recv ? wait_deadline_ : std::nullopt;
  }

  /// Final status (valid once wants() is done/failed; ok() iff done).
  const common::Status& status() const noexcept { return status_; }

  /// Convenience driver for tests and fuzzers: starts the session if
  /// needed, feeds `frames` in order while the session asks to receive, and
  /// returns the frames it queued along the way.
  std::vector<OutFrame> step(std::vector<InFrame> frames,
                             TimePoint now = TimePoint{});

 protected:
  /// One resumption cause for a suspended receive point. A frame's payload
  /// aliases the driver's receive buffer and is valid only until the
  /// coroutine next suspends: the protocol bodies decrypt or parse every
  /// payload before their next co_await.
  struct Event {
    enum class Kind { frame, timeout, wake };
    Kind kind = Kind::wake;
    std::uint32_t from_gdo = 0;
    common::BytesView payload;
  };

  /// Root coroutine of a protocol body. Lazily started; its co_returned
  /// Status becomes the session outcome (done on ok, failed otherwise).
  class Main {
   public:
    struct promise_type {
      ProtocolSession* session = nullptr;

      Main get_return_object() noexcept {
        return Main(std::coroutine_handle<promise_type>::from_promise(*this));
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_value(common::Status status) noexcept;
      void unhandled_exception() noexcept;
    };

    Main() noexcept = default;
    explicit Main(std::coroutine_handle<promise_type> handle) noexcept
        : handle_(handle) {}
    Main(Main&& other) noexcept
        : handle_(std::exchange(other.handle_, {})) {}
    Main& operator=(Main&& other) noexcept {
      if (this != &other) {
        if (handle_) handle_.destroy();
        handle_ = std::exchange(other.handle_, {});
      }
      return *this;
    }
    Main(const Main&) = delete;
    Main& operator=(const Main&) = delete;
    ~Main() {
      if (handle_) handle_.destroy();
    }

    std::coroutine_handle<promise_type> handle() const noexcept {
      return handle_;
    }
    void reset() noexcept {
      if (handle_) handle_.destroy();
      handle_ = {};
    }

   private:
    std::coroutine_handle<promise_type> handle_;
  };

  /// The protocol body. Implementations suspend only through wait_input();
  /// everything else, sends included, is ordinary synchronous code.
  virtual Main run_protocol() = 0;

  /// Awaits the next input event (frame / timeout / wake). Completes at
  /// once with a wake when a peer loss arrived while the body was not
  /// waiting; otherwise suspends with wants()==recv and arms the configured
  /// receive deadline.
  auto wait_input() {
    struct Awaiter {
      ProtocolSession* session;
      bool await_ready() noexcept {
        return std::exchange(session->lost_wake_pending_, false);
      }
      void await_suspend(std::coroutine_handle<> handle) noexcept {
        session->suspend_for_input(handle);
      }
      Event await_resume() noexcept {
        return std::exchange(session->pending_event_, Event{});
      }
    };
    return Awaiter{this};
  }

  /// Queues one frame for the driver's next take_output().
  void queue_frame(std::uint32_t to_gdo, common::Bytes payload);

  /// Drains the transport-reported peer losses accumulated since the last
  /// call (the session-side analogue of the node's hook_dead_ set).
  std::set<std::uint32_t> take_lost_peers();

  /// Destroys the protocol coroutine frame. Derived destructors call this
  /// first so frame-held locals never outlive the members they reference.
  void destroy_coroutine() noexcept { main_.reset(); }

 private:
  friend struct Main::promise_type;

  void finish(common::Status status) noexcept;
  void suspend_for_input(std::coroutine_handle<> handle) noexcept;
  void deliver_event(Event event);

  Main main_;
  SessionWants wants_ = SessionWants::idle;
  common::Status status_;
  std::chrono::milliseconds receive_timeout_{std::chrono::milliseconds{0}};
  TimePoint now_{};
  std::optional<TimePoint> wait_deadline_;
  std::coroutine_handle<> resume_;
  Event pending_event_;
  std::vector<OutFrame> outbox_;
  std::set<std::uint32_t> lost_peers_;
  bool lost_wake_pending_ = false;
};

/// Member-side protocol session: handshakes with the leader, then answers
/// phase requests until the study completes, every wait a suspension
/// point.
class MemberSession : public ProtocolSession {
 public:
  MemberSession(tee::Platform& platform, std::uint32_t gdo_index,
                std::uint32_t leader_gdo, genome::BitPlanes cases);
  ~MemberSession() override;

  /// Dataset provisioning outcome (EPC failures surface before start()).
  const common::Status& provision_status() const noexcept {
    return provision_status_;
  }

  void set_observability(obs::Observability* obs) noexcept { obs_ = obs; }

  const GdoEnclave& enclave() const noexcept { return enclave_; }
  double compute_ms() const noexcept { return compute_ms_; }

 protected:
  Main run_protocol() override;

 private:
  template <class M>
  common::Status send_reply(const M& msg);
  /// Drains the reported losses; true if the leader is among them.
  bool leader_lost();
  /// Ok for a frame from the leader; otherwise the member's study status,
  /// naming the peer at fault: an expired deadline or a lost leader names
  /// the leader, a frame from any other GDO names its sender.
  common::Status check_wait(const Event& event, const char* where) const;

  std::uint32_t gdo_index_;
  std::uint32_t leader_gdo_;
  GdoEnclave enclave_;
  std::unique_ptr<tee::SecureChannel> channel_;
  common::Status provision_status_;
  double compute_ms_ = 0;
  obs::Observability* obs_ = nullptr;
};

/// Leader-side protocol session: establishes channels to every member, then
/// drives the three phases and produces the study result. Only its waits
/// suspend; a broadcast queues its records and returns. The transport-meter
/// fields of StudyResult are left for the driver (the session has no
/// transport to read them from).
class LeaderSession : public ProtocolSession {
 public:
  LeaderSession(tee::Platform& platform, std::uint32_t gdo_index,
                std::uint32_t num_gdos, genome::BitPlanes cases,
                genome::BitPlanes reference, const StudyConfig& config,
                const CollusionPolicy& policy);
  ~LeaderSession() override;

  void set_observability(obs::Observability* obs,
                         obs::SpanId study_span = obs::kNoSpan) noexcept {
    obs_ = obs;
    study_span_ = study_span;
    coordinator_.set_observability(obs, study_span);
  }
  /// The study's thread pool (nullptr = serial), handed to the coordinator:
  /// the LD phase's association p-values and the LR phase's per-combination
  /// selections run on it. Call before start().
  void set_pool(common::ThreadPool* pool) noexcept {
    coordinator_.set_pool(pool);
  }

  /// Dataset provisioning outcome (EPC failures surface before start()).
  const common::Status& provision_status() const noexcept {
    return provision_status_;
  }

  const GdoEnclave& enclave() const noexcept { return enclave_; }
  const Coordinator& coordinator() const noexcept { return coordinator_; }

  /// Study result (valid once wants()==done). network_bytes_total,
  /// leader_bytes_received and network_links are zero/empty: they belong to
  /// the transport, so the driver fills them.
  const StudyResult& result() const noexcept { return result_; }

 protected:
  Main run_protocol() override;

 private:
  common::Task<common::Result<StudyResult>> run_study_impl();
  common::Task<common::Status> establish_channels();
  /// Seals an already-staged envelope for one more recipient (per-peer AEAD
  /// pass only; the plaintext was serialized once by stage_envelope).
  common::Status send_staged(std::uint32_t gdo_index, StagedMessage& staging);
  template <class M>
  common::Status broadcast(const M& msg);
  void broadcast_abort(common::Error error);
  /// Takes one record body of a gathered stream from `member` into the
  /// coordinator, with the work its arrival unlocks.
  using Ingest = std::function<common::Status(
      std::uint32_t member, MsgType type, common::BytesView body)>;
  /// Names the members the gather waits on next (empty once the phase has
  /// all it needs); the LD phase first walks as far as it can and sends the
  /// request the walk opened.
  using Owing = std::function<common::Result<std::set<std::uint32_t>>()>;
  /// The gather of Alg. 1, one coroutine for every member->leader stream:
  /// folds in the reported losses, asks `owing`, waits, and hands each
  /// record (whose type must be one of `types`) to `ingest`, until `owing`
  /// names no member. Members still owed at the deadline are declared dead;
  /// `phase` names the gather in logs and errors. Returns the time spent
  /// waiting for records and opening them.
  common::Task<common::Result<double>> gather(
      const char* phase, std::span<const MsgType> types,
      const Owing& owing, const Ingest& ingest);
  /// The members that owe `stream` a tile, as a gather's `owing`.
  Owing owing_tiles(Coordinator::Stream stream);
  std::set<std::uint32_t> live_members() const;
  void sync_dead_peers();
  void mark_pending_dead(std::set<std::uint32_t>& pending, const char* phase);
  common::Error dead_peers_error(const char* phase) const;

  std::uint32_t gdo_index_;
  std::uint32_t num_gdos_;
  GdoEnclave enclave_;
  Coordinator coordinator_;
  std::vector<std::unique_ptr<tee::SecureChannel>> channels_;  // per GDO
  common::Status provision_status_;
  obs::Observability* obs_ = nullptr;
  obs::SpanId study_span_ = obs::kNoSpan;
  StudyResult result_;
};

}  // namespace gendpr::core
