// Sans-IO protocol sessions.
//
// A ProtocolSession is the per-node protocol state machine with every I/O
// dependency inverted: no sockets, no threads, no clocks inside. The session
// tells its driver what it needs through wants() — deliver frames, flush
// queued output, or nothing further — and the driver feeds events back in
// (`on_frame`, `on_tick`, `on_peer_lost`, `on_transport_closed`,
// `on_sends_complete`). Deadlines are pure data: a recv wait publishes its
// expiry through next_deadline() and the driver reports the passage of time
// with on_tick(now), so PR 2's timeout/abort semantics survive unchanged
// under any front-end.
//
// The protocol bodies are written once as C++20 coroutines (run_protocol)
// that suspend at their receive and send-flush points; the event-loop host
// (session_driver.hpp), step-level unit tests, and the fuzz harnesses are
// all just different drivers of the same coroutine. Sessions speak GDO
// indices; translating them to transport node ids is the driver's job.
#pragma once

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <deque>
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
  send,    // frames queued: take_output(), deliver them, on_sends_complete()
  recv,    // waiting for a frame, a tick past next_deadline(), or a close
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

/// Delivery failure for one frame of a flush, reported with the transport's
/// error so the session can distinguish peer loss from hard faults.
struct SendFailure {
  std::uint32_t to_gdo = 0;
  common::Error error;
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

  /// Delivers one frame. Frames arriving while the session is not waiting
  /// (mid-send, or before it reaches its next receive) are queued in order,
  /// exactly like a transport mailbox would buffer them.
  void on_frame(std::uint32_t from_gdo, common::Bytes payload, TimePoint now);

  /// Zero-copy delivery: when the session is blocked on a receive the view
  /// is handed to the protocol body directly (it aliases the caller's
  /// buffer and is consumed before this call returns); otherwise the bytes
  /// are copied into the input queue exactly like the owning overload.
  void on_frame(std::uint32_t from_gdo, common::BytesView payload,
                TimePoint now);

  /// Reports the passage of time. Resumes a recv wait with a timeout event
  /// iff `now` has reached next_deadline(); earlier ticks are ignored, so
  /// spurious wakeups are harmless.
  void on_tick(TimePoint now);

  /// Reports that the transport lost the connection to a peer. Queues the
  /// loss for the protocol body (leader gathers fold it into the dead set)
  /// and wakes a blocked recv wait once so the body can react.
  void on_peer_lost(std::uint32_t gdo_index, TimePoint now);

  /// Reports that the session's own transport endpoint is gone (mailbox
  /// closed / event loop shutting down). The current and every later recv
  /// wait resumes with a closed event.
  void on_transport_closed(TimePoint now);

  /// Acknowledges a wants()==send flush: the driver attempted delivery of
  /// every frame it took and reports the per-frame failures (empty = all
  /// delivered / accepted by the transport).
  void on_sends_complete(std::vector<SendFailure> failures, TimePoint now);

  SessionWants wants() const noexcept { return wants_; }

  /// Frames queued for delivery (valid during wants()==send; empties the
  /// queue). The driver must take them before acknowledging the flush.
  std::vector<OutFrame> take_output();

  /// Expiry of the current recv wait, if one is armed (wants()==recv and a
  /// positive receive timeout is configured).
  std::optional<TimePoint> next_deadline() const noexcept {
    return wants_ == SessionWants::recv ? wait_deadline_ : std::nullopt;
  }

  /// Final status (valid once wants() is done/failed; ok() iff done).
  const common::Status& status() const noexcept { return status_; }

  /// Convenience driver for tests and fuzzers: starts the session if
  /// needed, feeds `frames` in order whenever the session asks to receive,
  /// auto-acknowledges every send flush with "all delivered", and returns
  /// the frames the session emitted along the way.
  std::vector<OutFrame> step(std::vector<InFrame> frames,
                             TimePoint now = TimePoint{});

 protected:
  /// One resumption cause for a suspended receive point. Frame payloads are
  /// views: a frame that passed through the input queue views its own
  /// `owned` backing (moved along with the event), while a frame delivered
  /// straight from the transport aliases the receive buffer and is valid
  /// only until the coroutine next suspends — the protocol bodies decrypt
  /// or parse every payload before their next co_await.
  struct Event {
    enum class Kind { frame, timeout, wake, closed };
    Kind kind = Kind::wake;
    std::uint32_t from_gdo = 0;
    common::BytesView payload;
    common::Bytes owned;
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

  /// The protocol body. Implementations suspend only through wait_input()
  /// and flush_sends(); everything else is ordinary synchronous code.
  virtual Main run_protocol() = 0;

  /// Awaits the next input event (frame / timeout / wake / closed).
  /// Completes immediately when input is already queued; otherwise suspends
  /// with wants()==recv and arms the configured receive deadline.
  auto wait_input() {
    struct Awaiter {
      ProtocolSession* session;
      bool await_ready() noexcept { return session->input_ready(); }
      void await_suspend(std::coroutine_handle<> handle) noexcept {
        session->suspend_for_input(handle);
      }
      Event await_resume() noexcept {
        return std::move(session->pending_event_);
      }
    };
    return Awaiter{this};
  }

  /// Hands the queued output frames to the driver and awaits the delivery
  /// report. Completes immediately (no failures) when nothing is queued.
  auto flush_sends() {
    struct Awaiter {
      ProtocolSession* session;
      bool await_ready() const noexcept { return session->outbox_.empty(); }
      void await_suspend(std::coroutine_handle<> handle) noexcept {
        session->suspend_for_sends(handle);
      }
      std::vector<SendFailure> await_resume() noexcept {
        return std::move(session->send_failures_);
      }
    };
    return Awaiter{this};
  }

  /// Queues one frame for the next flush_sends().
  void queue_frame(std::uint32_t to_gdo, common::Bytes payload);

  /// Drains the transport-reported peer losses accumulated since the last
  /// call (the session-side analogue of the node's hook_dead_ set).
  std::set<std::uint32_t> take_lost_peers();

  /// Time of the most recent driver entry (metrics/debugging only — never
  /// control flow; deadlines are handled by the wait plumbing itself).
  TimePoint now() const noexcept { return now_; }

  std::chrono::milliseconds receive_timeout() const noexcept {
    return receive_timeout_;
  }

  /// Destroys the protocol coroutine frame. Derived destructors call this
  /// first so frame-held locals never outlive the members they reference.
  void destroy_coroutine() noexcept { main_.reset(); }

 private:
  friend struct Main::promise_type;

  void finish(common::Status status) noexcept;
  bool input_ready() noexcept;
  void suspend_for_input(std::coroutine_handle<> handle) noexcept;
  void suspend_for_sends(std::coroutine_handle<> handle) noexcept;
  void deliver_event(Event event);
  void deliver_queued_frame();

  Main main_;
  SessionWants wants_ = SessionWants::idle;
  common::Status status_;
  std::chrono::milliseconds receive_timeout_{std::chrono::milliseconds{0}};
  TimePoint now_{};
  std::optional<TimePoint> wait_deadline_;
  std::coroutine_handle<> resume_;
  Event pending_event_;
  std::deque<InFrame> input_queue_;
  std::vector<OutFrame> outbox_;
  std::vector<SendFailure> send_failures_;
  std::set<std::uint32_t> lost_peers_;
  bool lost_wake_pending_ = false;
  bool closed_ = false;
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
  common::Task<common::Status> send_reply(const M& msg);
  common::Error wait_error(bool timed_out, const char* where) const;

  std::uint32_t gdo_index_;
  std::uint32_t leader_gdo_;
  GdoEnclave enclave_;
  std::unique_ptr<tee::SecureChannel> channel_;
  common::Status provision_status_;
  double compute_ms_ = 0;
  obs::Observability* obs_ = nullptr;
};

/// Leader-side protocol session: establishes channels to every member, then
/// drives the three phases and produces the study result, its gathers and
/// broadcasts suspending instead of blocking. The transport-meter fields of
/// StudyResult are left for the driver (the session has no transport to
/// read them from).
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
  /// Thread pool for the LR phase's per-combination evaluation (nullptr =
  /// serial). Call before start().
  void set_pool(common::ThreadPool* pool) noexcept { pool_ = pool; }

  const GdoEnclave& enclave() const noexcept { return enclave_; }
  const Coordinator& coordinator() const noexcept { return coordinator_; }

  /// Study result (valid once wants()==done). network_bytes_total,
  /// leader_bytes_received and network_links are zero/empty: they belong to
  /// the transport, so the driver fills them.
  const StudyResult& result() const noexcept { return result_; }

 protected:
  Main run_protocol() override;

 private:
  /// One arrival during a phase gather: either a decrypted record from a
  /// live member (`got == true`) or the news that every still-pending
  /// member has been declared dead (`got == false`, gather is over).
  struct GatherStep {
    bool got = false;
    std::uint32_t member = 0;
    common::Bytes plaintext;
  };

  common::Task<common::Result<StudyResult>> run_study_impl();
  common::Task<common::Status> establish_channels();
  /// Seals an already-staged envelope for one more recipient (per-peer AEAD
  /// pass only; the plaintext was serialized once by stage_envelope).
  common::Task<common::Status> send_staged(std::uint32_t gdo_index,
                                           StagedMessage& staging);
  template <class M>
  common::Task<common::Status> broadcast(const M& msg);
  common::Task<void> broadcast_abort(common::Error error);
  common::Task<common::Result<GatherStep>> next_record(
      const char* phase, std::set<std::uint32_t>& pending);
  /// Takes one record body of a gathered stream from `member` into the
  /// coordinator, with the work its arrival unlocks.
  using Ingest = std::function<common::Status(
      std::uint32_t member, MsgType type, common::BytesView body)>;
  /// Names the members the gather waits on next (empty once the phase has
  /// all it needs); the LD phase first walks as far as it can and sends the
  /// request the walk opened.
  using Owing =
      std::function<common::Task<common::Result<std::set<std::uint32_t>>>()>;
  /// The gather of Alg. 1, one routine for every member->leader stream:
  /// hands each record (whose type must be one of `types`) to `ingest`
  /// until `owing` names no member. A member that misses the deadline is
  /// declared dead; `phase` names the gather in logs and errors. Returns
  /// the time spent waiting for records.
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
  bool channels_established_ = false;
  obs::Observability* obs_ = nullptr;
  obs::SpanId study_span_ = obs::kNoSpan;
  common::ThreadPool* pool_ = nullptr;
  StudyResult result_;
};

}  // namespace gendpr::core
