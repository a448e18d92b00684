#include "gendpr/session.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "genome/kernels/kernels.hpp"

namespace gendpr::core {

using common::Errc;
using common::make_error;
using common::Result;
using common::Status;
using common::Stopwatch;

namespace {

/// True for failures that mean "this peer is gone", as opposed to protocol
/// or crypto violations that must abort the study.
bool is_peer_loss(const common::Error& error) {
  return error.code == Errc::unknown_peer || error.code == Errc::io_error;
}

/// Serializes `msg` behind its type byte once; every recipient then costs
/// only a seal (one AEAD pass into the record it sends).
template <class M>
StagedMessage stage_envelope(const M& msg) {
  StagedMessage staging;
  wire::Writer w;
  w.reserve(1 + wire::encoded_size(msg));
  w.u8(static_cast<std::uint8_t>(M::kType));
  wire::encode_into(w, msg);
  staging.bytes = std::move(w).take();
  return staging;
}

/// The record types each leader gather takes.
constexpr MsgType kSummaryRecords[] = {MsgType::summary_stats};
constexpr MsgType kLdRecords[] = {MsgType::ld_window,
                                  MsgType::moments_response};
constexpr MsgType kLrRecords[] = {MsgType::lr_planes};

}  // namespace

// ---------------------------------------------------------------------------
// ProtocolSession: driver surface + coroutine plumbing
// ---------------------------------------------------------------------------

void ProtocolSession::Main::promise_type::return_value(
    common::Status status) noexcept {
  session->finish(std::move(status));
}

void ProtocolSession::Main::promise_type::unhandled_exception() noexcept {
  // Protocol bodies signal failures through Status; an escaping exception is
  // a bug, but the session must still reach a terminal state so drivers
  // (and fuzzers) never hang on it.
  try {
    throw;
  } catch (const std::exception& e) {
    session->finish(make_error(
        Errc::state_violation,
        std::string("protocol session terminated by exception: ") + e.what()));
  } catch (...) {
    session->finish(make_error(Errc::state_violation,
                               "protocol session terminated by exception"));
  }
}

ProtocolSession::~ProtocolSession() { destroy_coroutine(); }

void ProtocolSession::start(TimePoint now) {
  if (wants_ != SessionWants::idle) return;
  now_ = now;
  main_ = run_protocol();
  main_.handle().promise().session = this;
  main_.handle().resume();
}

void ProtocolSession::on_frame(std::uint32_t from_gdo, common::Bytes payload,
                               TimePoint now) {
  now_ = now;
  input_queue_.push_back(InFrame{from_gdo, std::move(payload)});
  if (wants_ != SessionWants::recv) return;  // buffered like a mailbox
  deliver_queued_frame();
}

void ProtocolSession::on_frame(std::uint32_t from_gdo,
                               common::BytesView payload, TimePoint now) {
  now_ = now;
  if (wants_ == SessionWants::recv && input_queue_.empty()) {
    // Direct handoff: the protocol body consumes the view (decrypts or
    // parses it) before this call returns, so no owning copy is needed.
    Event event;
    event.kind = Event::Kind::frame;
    event.from_gdo = from_gdo;
    event.payload = payload;
    deliver_event(std::move(event));
    return;
  }
  input_queue_.push_back(
      InFrame{from_gdo, common::Bytes(payload.begin(), payload.end())});
  if (wants_ != SessionWants::recv) return;
  deliver_queued_frame();
}

void ProtocolSession::deliver_queued_frame() {
  Event event;
  event.kind = Event::Kind::frame;
  event.from_gdo = input_queue_.front().from_gdo;
  event.owned = std::move(input_queue_.front().payload);
  event.payload = common::BytesView(event.owned.data(), event.owned.size());
  input_queue_.pop_front();
  deliver_event(std::move(event));
}

void ProtocolSession::on_tick(TimePoint now) {
  now_ = now;
  if (wants_ != SessionWants::recv) return;
  if (!wait_deadline_.has_value() || now < *wait_deadline_) return;
  deliver_event(Event{Event::Kind::timeout, 0, {}, {}});
}

void ProtocolSession::on_peer_lost(std::uint32_t gdo_index, TimePoint now) {
  now_ = now;
  lost_peers_.insert(gdo_index);
  if (wants_ == SessionWants::recv) {
    deliver_event(Event{Event::Kind::wake, 0, {}, {}});
  } else {
    lost_wake_pending_ = true;
  }
}

void ProtocolSession::on_transport_closed(TimePoint now) {
  now_ = now;
  closed_ = true;
  if (wants_ == SessionWants::recv) {
    deliver_event(Event{Event::Kind::closed, 0, {}, {}});
  }
}

void ProtocolSession::on_sends_complete(std::vector<SendFailure> failures,
                                        TimePoint now) {
  now_ = now;
  if (wants_ != SessionWants::send) return;
  outbox_.clear();  // anything the driver chose not to take is gone
  send_failures_ = std::move(failures);
  auto handle = std::exchange(resume_, {});
  if (!handle) return;
  handle.resume();
}

std::vector<OutFrame> ProtocolSession::take_output() {
  return std::exchange(outbox_, {});
}

std::vector<OutFrame> ProtocolSession::step(std::vector<InFrame> frames,
                                            TimePoint now) {
  std::vector<OutFrame> emitted;
  if (wants_ == SessionWants::idle) start(now);
  std::size_t next = 0;
  for (;;) {
    if (wants_ == SessionWants::send) {
      for (OutFrame& frame : take_output()) emitted.push_back(std::move(frame));
      on_sends_complete({}, now);
      continue;
    }
    if (wants_ == SessionWants::recv && next < frames.size()) {
      InFrame& frame = frames[next++];
      on_frame(frame.from_gdo, std::move(frame.payload), now);
      continue;
    }
    break;
  }
  return emitted;
}

void ProtocolSession::queue_frame(std::uint32_t to_gdo, common::Bytes payload) {
  outbox_.push_back(OutFrame{to_gdo, std::move(payload)});
}

std::set<std::uint32_t> ProtocolSession::take_lost_peers() {
  lost_wake_pending_ = false;
  return std::exchange(lost_peers_, {});
}

void ProtocolSession::finish(common::Status status) noexcept {
  status_ = std::move(status);
  wants_ = status_.ok() ? SessionWants::done : SessionWants::failed;
  resume_ = {};
  wait_deadline_.reset();
}

bool ProtocolSession::input_ready() noexcept {
  if (!input_queue_.empty()) {
    Event event;
    event.kind = Event::Kind::frame;
    event.from_gdo = input_queue_.front().from_gdo;
    event.owned = std::move(input_queue_.front().payload);
    event.payload = common::BytesView(event.owned.data(), event.owned.size());
    input_queue_.pop_front();
    pending_event_ = std::move(event);
    return true;
  }
  if (lost_wake_pending_) {
    lost_wake_pending_ = false;
    pending_event_ = Event{Event::Kind::wake, 0, {}, {}};
    return true;
  }
  if (closed_) {
    pending_event_ = Event{Event::Kind::closed, 0, {}, {}};
    return true;
  }
  return false;
}

void ProtocolSession::suspend_for_input(
    std::coroutine_handle<> handle) noexcept {
  resume_ = handle;
  wants_ = SessionWants::recv;
  // Fresh deadline per wait: every receive gets the full timeout.
  if (receive_timeout_ > std::chrono::milliseconds{0}) {
    wait_deadline_ = now_ + receive_timeout_;
  } else {
    wait_deadline_.reset();
  }
}

void ProtocolSession::suspend_for_sends(
    std::coroutine_handle<> handle) noexcept {
  resume_ = handle;
  wants_ = SessionWants::send;
}

void ProtocolSession::deliver_event(Event event) {
  auto handle = std::exchange(resume_, {});
  if (!handle) return;
  pending_event_ = std::move(event);
  wait_deadline_.reset();
  handle.resume();
}

// ---------------------------------------------------------------------------
// MemberSession
// ---------------------------------------------------------------------------

MemberSession::MemberSession(tee::Platform& platform, std::uint32_t gdo_index,
                             std::uint32_t leader_gdo, genome::BitPlanes cases)
    : gdo_index_(gdo_index),
      leader_gdo_(leader_gdo),
      enclave_(platform, gdo_index) {
  provision_status_ = enclave_.provision_dataset(std::move(cases));
}

MemberSession::~MemberSession() { destroy_coroutine(); }

common::Error MemberSession::wait_error(bool timed_out,
                                        const char* where) const {
  // Translates a bounded-wait failure into the member's study status:
  // expiry names the leader (the only peer this node waits on).
  if (timed_out) {
    return make_error(Errc::timeout,
                      "gdo " + std::to_string(gdo_index_) + ": leader gdo " +
                          std::to_string(leader_gdo_) + " unresponsive (" +
                          where + " deadline expired)");
  }
  return make_error(Errc::state_violation,
                    std::string("mailbox closed ") + where);
}

template <class M>
common::Task<Status> MemberSession::send_reply(const M& msg) {
  const StagedMessage staging = stage_envelope(msg);
  auto record = channel_->seal(staging.bytes);
  if (!record.ok()) co_return record.error();
  obs::add_counter(obs_, "wire.serializations");
  obs::add_counter(obs_, "wire.records_sent");
  queue_frame(leader_gdo_, std::move(record).take());
  const std::vector<SendFailure> failures = co_await flush_sends();
  if (!failures.empty()) co_return failures.front().error;
  co_return Status::success();
}

ProtocolSession::Main MemberSession::run_protocol() {
  if (!provision_status_.ok()) co_return provision_status_;

  // Attested handshake: member initiates toward the leader's enclave. The
  // blocking node never checked this send's status; delivery failures keep
  // surfacing as a handshake wait timeout instead.
  channel_ = enclave_.channel_to(trusted_module_measurement(),
                                 /*initiator=*/true);
  queue_frame(leader_gdo_, channel_->handshake_message());
  (void)co_await flush_sends();
  Event handshake = co_await wait_input();
  while (handshake.kind == Event::Kind::wake) {
    handshake = co_await wait_input();
  }
  if (handshake.kind != Event::Kind::frame) {
    co_return wait_error(handshake.kind == Event::Kind::timeout,
                         "in handshake");
  }
  if (Status s = channel_->complete(handshake.payload); !s.ok()) co_return s;

  // Serve phase requests until the study completes. One scratch buffer is
  // reused across records so the hot loop does not allocate per message.
  common::Bytes plaintext_scratch;
  while (!enclave_.study_complete()) {
    Event message = co_await wait_input();
    while (message.kind == Event::Kind::wake) {
      message = co_await wait_input();
    }
    if (message.kind != Event::Kind::frame) {
      co_return wait_error(message.kind == Event::Kind::timeout, "mid-study");
    }
    if (Status s = channel_->open_to(message.payload, plaintext_scratch);
        !s.ok()) {
      co_return s;
    }
    auto opened = open_envelope(plaintext_scratch);
    if (!opened.ok()) co_return opened.error();
    const MsgType type = opened.value().first;
    const common::BytesView body = opened.value().second;
    obs::add_counter(obs_,
                     "member." + std::to_string(gdo_index_) + ".requests");

    switch (type) {
      case MsgType::study_announce: {
        auto announce = wire::decode<StudyAnnounce>(body);
        if (!announce.ok()) co_return announce.error();
        if (Status s = enclave_.on_study_announce(announce.value()); !s.ok()) {
          co_return s;
        }
        // One summary per tile of the announce-derived plan (a single tile
        // when tiling is off). Each reply goes out as soon as its tile is
        // counted, so the leader assesses tile k while this member is still
        // computing tile k+1.
        const genome::TilePlan plan = genome::TilePlan::over(
            announce.value().num_snps, announce.value().snp_tile_width);
        for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
          const Stopwatch compute_watch;
          const SummaryStats stats =
              enclave_.make_summary_tile(plan.begin(k), plan.end(k), k);
          compute_ms_ += compute_watch.elapsed_ms();
          if (Status s = co_await send_reply(stats); !s.ok()) {
            co_return s;
          }
        }
        break;
      }
      case MsgType::phase1_result: {
        auto result = wire::decode<Phase1Result>(body);
        if (!result.ok()) co_return result.error();
        if (Status s = enclave_.on_phase1(result.value()); !s.ok()) {
          co_return s;
        }
        // Phase 1 is answered with the LD windows, one per L' tile and
        // unrequested: the leader walks tile k while later tiles are in
        // flight. Each window is charged to this enclave while it is built
        // and sent.
        const genome::TilePlan plan = enclave_.ld_plan();
        for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
          const Stopwatch compute_watch;
          auto charge = enclave_.reserve_epc(std::uint64_t{plan.width_of(k)} *
                                             kLdWindow * 4);
          if (!charge.ok()) co_return charge.error();
          const LdWindow window =
              enclave_.make_ld_window(plan.begin(k), plan.end(k), k);
          compute_ms_ += compute_watch.elapsed_ms();
          obs::max_gauge(obs_, "epc.member.peak_bytes",
                         static_cast<double>(enclave_.platform().epc().peak()));
          if (Status s = co_await send_reply(window); !s.ok()) {
            co_return s;
          }
        }
        break;
      }
      case MsgType::moments_request: {
        auto request = wire::decode<MomentsRequest>(body);
        if (!request.ok()) co_return request.error();
        const Stopwatch compute_watch;
        auto response = enclave_.on_moments_request(request.value());
        compute_ms_ += compute_watch.elapsed_ms();
        if (!response.ok()) co_return response.error();
        if (Status s = co_await send_reply(response.value()); !s.ok()) {
          co_return s;
        }
        break;
      }
      case MsgType::phase2_result: {
        auto result = wire::decode<Phase2Result>(body);
        if (!result.ok()) co_return result.error();
        const Stopwatch compute_watch;
        auto planes = enclave_.on_phase2(result.value());
        compute_ms_ += compute_watch.elapsed_ms();
        if (!planes.ok()) co_return planes.error();
        obs::max_gauge(obs_, "epc.member.peak_bytes",
                       static_cast<double>(enclave_.platform().epc().peak()));
        if (Status s = co_await send_reply(planes.value()); !s.ok()) {
          co_return s;
        }
        break;
      }
      case MsgType::phase3_result: {
        auto result = wire::decode<Phase3Result>(body);
        if (!result.ok()) co_return result.error();
        if (Status s = enclave_.on_phase3(result.value()); !s.ok()) {
          co_return s;
        }
        break;
      }
      case MsgType::abort_notice: {
        auto notice = wire::decode<AbortNotice>(body);
        if (!notice.ok()) co_return notice.error();
        std::string reason = "study aborted by leader";
        if (notice.value().failed_gdo != AbortNotice::kNoFailedGdo) {
          reason += " (gdo " + std::to_string(notice.value().failed_gdo) +
                    " unresponsive)";
        }
        reason += ": " + notice.value().reason;
        co_return make_error(Errc::aborted, std::move(reason));
      }
      default:
        co_return make_error(Errc::bad_message, "unexpected message type");
    }
  }
  obs::observe(obs_, "member.compute_ms", compute_ms_);
  co_return Status::success();
}

// ---------------------------------------------------------------------------
// LeaderSession
// ---------------------------------------------------------------------------

LeaderSession::LeaderSession(tee::Platform& platform, std::uint32_t gdo_index,
                             std::uint32_t num_gdos, genome::BitPlanes cases,
                             genome::BitPlanes reference,
                             const StudyConfig& config,
                             const CollusionPolicy& policy)
    : gdo_index_(gdo_index),
      num_gdos_(num_gdos),
      enclave_(platform, gdo_index),
      coordinator_(enclave_, std::move(reference), num_gdos, config, policy),
      channels_(num_gdos) {
  // Provisioning failures (EPC limit) surface from the protocol body, which
  // checks that the dataset is present before announcing.
  provision_status_ = enclave_.provision_dataset(std::move(cases));
}

LeaderSession::~LeaderSession() { destroy_coroutine(); }

void LeaderSession::sync_dead_peers() {
  for (std::uint32_t gdo : take_lost_peers()) {
    if (coordinator_.dead_gdos().count(gdo) != 0) continue;
    common::log_warn("leader", "connection to gdo ", gdo,
                     " lost; marking unresponsive");
    (void)coordinator_.mark_gdo_dead(gdo);
  }
}

void LeaderSession::mark_pending_dead(std::set<std::uint32_t>& pending,
                                      const char* phase) {
  for (std::uint32_t gdo : pending) {
    common::log_warn("leader", phase, ": gdo ", gdo,
                     " unresponsive (deadline expired); marking dead");
    (void)coordinator_.mark_gdo_dead(gdo);
  }
  pending.clear();
}

common::Error LeaderSession::dead_peers_error(const char* phase) const {
  std::string message(phase);
  message += " timed out: unresponsive gdo(s):";
  for (std::uint32_t gdo : coordinator_.dead_gdos()) {
    message += ' ';
    message += std::to_string(gdo);
  }
  return make_error(Errc::timeout, std::move(message));
}

std::set<std::uint32_t> LeaderSession::live_members() const {
  std::set<std::uint32_t> members;
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == gdo_index_ || channels_[g] == nullptr) continue;
    if (coordinator_.dead_gdos().count(g) != 0) continue;
    members.insert(g);
  }
  return members;
}

common::Task<Status> LeaderSession::establish_channels() {
  std::set<std::uint32_t> pending;
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g != gdo_index_) pending.insert(g);
  }
  for (;;) {
    sync_dead_peers();
    for (std::uint32_t gdo : coordinator_.dead_gdos()) pending.erase(gdo);
    if (pending.empty()) break;
    Event event = co_await wait_input();
    if (event.kind == Event::Kind::wake) continue;
    if (event.kind == Event::Kind::timeout) {
      mark_pending_dead(pending, "handshake");
      break;
    }
    if (event.kind == Event::Kind::closed) {
      co_return make_error(Errc::state_violation,
                           "mailbox closed in handshake");
    }
    const std::uint32_t member = event.from_gdo;
    if (member >= num_gdos_ || member == gdo_index_) {
      co_return make_error(Errc::unknown_peer, "handshake from unknown node");
    }
    if (coordinator_.dead_gdos().count(member) != 0) continue;
    auto channel = enclave_.channel_to(trusted_module_measurement(),
                                       /*initiator=*/false);
    if (Status s = channel->complete(event.payload); !s.ok()) co_return s;
    queue_frame(member, channel->handshake_message());
    bool lost = false;
    for (const SendFailure& failure : co_await flush_sends()) {
      if (failure.to_gdo != member) continue;
      if (!is_peer_loss(failure.error)) co_return Status(failure.error);
      lost = true;
    }
    if (lost) {
      // The member vanished between handshake halves.
      (void)coordinator_.mark_gdo_dead(member);
      pending.erase(member);
      continue;
    }
    channels_[member] = std::move(channel);
    pending.erase(member);
  }
  // Any established channel is reachable for abort notices from here on,
  // even if the handshake round itself ends in a timeout below.
  channels_established_ = true;
  if (coordinator_.live_combination_count() == 0) {
    co_return dead_peers_error("handshake");
  }
  co_return Status::success();
}

common::Task<Status> LeaderSession::send_staged(std::uint32_t gdo_index,
                                                StagedMessage& staging) {
  if (channels_[gdo_index] == nullptr) {
    co_return make_error(Errc::unknown_peer,
                         "no channel to gdo " + std::to_string(gdo_index));
  }
  auto record = channels_[gdo_index]->seal(staging.bytes);
  if (!record.ok()) co_return record.error();
  // The first recipient pays for the (single) serialization; every further
  // one is a pure fan-out reuse. Counted lazily at seal time so the
  // conservation law serializations + fanout_reuses == records_sent holds
  // even for staged messages that end up with no recipients.
  if (staging.sealed_once) {
    obs::add_counter(obs_, "wire.fanout_reuses");
  } else {
    staging.sealed_once = true;
    obs::add_counter(obs_, "wire.serializations");
  }
  obs::add_counter(obs_, "wire.records_sent");
  queue_frame(gdo_index, std::move(record).take());
  const std::vector<SendFailure> failures = co_await flush_sends();
  for (const SendFailure& failure : failures) {
    if (failure.to_gdo == gdo_index) co_return Status(failure.error);
  }
  co_return Status::success();
}

template <class M>
common::Task<Status> LeaderSession::broadcast(const M& msg) {
  sync_dead_peers();
  StagedMessage staging = stage_envelope(msg);
  for (std::uint32_t g : live_members()) {
    Status s = co_await send_staged(g, staging);
    if (s.ok()) continue;
    if (!is_peer_loss(s.error())) co_return s;
    common::log_warn("leader", "send to gdo ", g,
                     " failed: ", s.error().to_string());
    (void)coordinator_.mark_gdo_dead(g);
  }
  if (coordinator_.live_combination_count() == 0) {
    co_return dead_peers_error("broadcast");
  }
  co_return Status::success();
}

common::Task<void> LeaderSession::broadcast_abort(common::Error error) {
  AbortNotice notice;
  const auto& dead = coordinator_.dead_gdos();
  if (!dead.empty()) notice.failed_gdo = *dead.begin();
  notice.reason = error.to_string();
  StagedMessage staging = stage_envelope(notice);
  for (std::uint32_t g : live_members()) {
    (void)co_await send_staged(g, staging);  // best effort
  }
}

common::Task<Result<LeaderSession::GatherStep>> LeaderSession::next_record(
    const char* phase, std::set<std::uint32_t>& pending) {
  for (;;) {
    sync_dead_peers();
    for (std::uint32_t gdo : coordinator_.dead_gdos()) pending.erase(gdo);
    if (pending.empty()) co_return GatherStep{};
    Event event = co_await wait_input();
    if (event.kind == Event::Kind::wake) continue;  // losses synced above
    if (event.kind == Event::Kind::timeout) {
      mark_pending_dead(pending, phase);
      co_return GatherStep{};
    }
    if (event.kind == Event::Kind::closed) {
      co_return make_error(Errc::state_violation, "mailbox closed mid-study");
    }
    const std::uint32_t member = event.from_gdo;
    if (member >= num_gdos_) {
      co_return make_error(Errc::unknown_peer, "record from unknown node");
    }
    // A record from a declared-dead member means it was slow, not gone;
    // its combinations are already skipped, so drop the late arrival.
    if (coordinator_.dead_gdos().count(member) != 0) continue;
    if (channels_[member] == nullptr) {
      co_return make_error(Errc::unknown_peer, "record from unknown node");
    }
    auto plaintext = channels_[member]->open(event.payload);
    if (!plaintext.ok()) co_return plaintext.error();
    GatherStep step;
    step.got = true;
    step.member = member;
    step.plaintext = std::move(plaintext).take();
    co_return step;
  }
}

common::Task<Result<double>> LeaderSession::gather(
    const char* phase, std::span<const MsgType> types,
    const Owing& owing, const Ingest& ingest) {
  double wait_ms = 0;
  for (;;) {
    // Re-asked after every arrival and every death.
    auto pending = co_await owing();
    if (!pending.ok()) co_return pending.error();
    if (pending.value().empty()) co_return wait_ms;
    const Stopwatch wait_watch;
    auto step = co_await next_record(phase, pending.value());
    wait_ms += wait_watch.elapsed_ms();
    if (!step.ok()) co_return step.error();
    if (!step.value().got) continue;  // the pending members died
    const std::uint32_t member = step.value().member;
    auto opened = open_envelope(step.value().plaintext);
    if (!opened.ok()) co_return opened.error();
    const MsgType type = opened.value().first;
    if (std::find(types.begin(), types.end(), type) == types.end()) {
      co_return make_error(Errc::state_violation,
                           std::string(phase) + ": gdo " +
                               std::to_string(member) +
                               " sent an unexpected message type");
    }
    if (Status s = ingest(member, type, opened.value().second); !s.ok()) {
      co_return s.error();
    }
  }
}

LeaderSession::Owing LeaderSession::owing_tiles(Coordinator::Stream stream) {
  return [this, stream]() -> common::Task<Result<std::set<std::uint32_t>>> {
    co_return coordinator_.members_owing(stream);
  };
}

ProtocolSession::Main LeaderSession::run_protocol() {
  auto result = co_await run_study_impl();
  if (!result.ok()) {
    // On failure after channel setup, a best-effort abort notice is sent to
    // the surviving members so they stop waiting instead of running into
    // their own deadlines.
    if (channels_established_) co_await broadcast_abort(result.error());
    co_return Status(result.error());
  }
  result_ = std::move(result).take();
  co_return Status::success();
}

common::Task<Result<StudyResult>> LeaderSession::run_study_impl() {
  const Stopwatch total_watch;
  PhaseTimings timings;

  if (Status valid = validate(coordinator_.config()); !valid.ok()) {
    co_return valid.error();
  }
  if (!provision_status_.ok()) co_return provision_status_.error();
  // The study spans the reference panel's SNPs; the leader's own counts
  // must cover the same ones.
  const StudyAnnounce announce = coordinator_.announce();
  if (enclave_.planes().num_snps() != announce.num_snps) {
    co_return make_error(Errc::invalid_argument,
                         "leader dataset and reference panel differ in SNP "
                         "count");
  }
  {
    const obs::ScopedSpan handshake_span(obs::recorder_of(obs_),
                                         "step.handshake", study_span_);
    if (Status s = co_await establish_channels(); !s.ok()) co_return s.error();
  }

  // --- Announce + Phase 1 input gathering ("Data Aggregation"). ---
  obs::ScopedSpan gather_span(obs::recorder_of(obs_), "step.gather_summaries",
                              study_span_);
  Stopwatch aggregation_watch;
  if (Status s = co_await broadcast(announce); !s.ok()) {
    co_return s.error();
  }
  // Each member streams one summary per tile of the phase-1 plan. After
  // every arrival the leader assesses whatever tiles are now complete
  // across all live members, so MAF math overlaps the remaining transfers
  // (the pipelined engine's phase-1 half). Inline assessment time is
  // attributed to indexing, not aggregation, to keep the Figure 5/6
  // categories honest.
  double inline_assess_ms = 0;
  std::size_t maf_tiles_inline = 0;
  const auto take_summary = [this, &inline_assess_ms, &maf_tiles_inline](
                                std::uint32_t member, MsgType,
                                common::BytesView body) -> Status {
    auto stats = wire::decode<SummaryStats>(body);
    if (!stats.ok()) return stats.error();
    if (Status s = coordinator_.add_summary(member, stats.value()); !s.ok()) {
      return s;
    }
    const Stopwatch assess_watch;
    maf_tiles_inline += coordinator_.assess_ready_maf_tiles();
    inline_assess_ms += assess_watch.elapsed_ms();
    return Status::success();
  };
  if (auto waited = co_await gather(
          "data aggregation", kSummaryRecords,
          owing_tiles(Coordinator::Stream::summaries), take_summary);
      !waited.ok()) {
    co_return waited.error();
  }
  if (coordinator_.live_combination_count() == 0) {
    co_return dead_peers_error("data aggregation");
  }
  timings.aggregation_ms += aggregation_watch.elapsed_ms() - inline_assess_ms;
  timings.indexing_ms += inline_assess_ms;
  obs::observe(obs_, "pipeline.leader_assess_ms", inline_assess_ms);
  obs::add_counter(obs_, "pipeline.maf_tiles_assessed_inline",
                   maf_tiles_inline);
  gather_span.end();

  // --- Phase 1: MAF analysis ("Indexing/Sorting/AlleleFreq."). ---
  Stopwatch indexing_watch;
  auto phase1 = coordinator_.run_maf_phase();
  if (!phase1.ok()) co_return phase1.error();
  timings.indexing_ms += indexing_watch.elapsed_ms();

  aggregation_watch.restart();
  {
    const obs::ScopedSpan broadcast_span(obs::recorder_of(obs_),
                                         "step.broadcast_phase1", study_span_);
    if (Status s = co_await broadcast(phase1.value()); !s.ok()) {
      co_return s.error();
    }
  }
  timings.aggregation_ms += aggregation_watch.elapsed_ms();

  // --- Phase 2: LD analysis. ---
  // Members answer phase 1 with one LD window per L' tile. One gather takes
  // windows and moments answers alike. Before each wait the coordinator
  // walks every tile now complete across the live members (the LD half of
  // the inline tile engine) until a pair further apart than the window
  // stops it; the request it opens goes to every live member, and until
  // they answered or died the wait is on them alone. Every wait on members,
  // for windows and answers alike, counts as fetch wait.
  Stopwatch ld_watch;
  const auto walk = [this]() -> common::Task<Result<std::set<std::uint32_t>>> {
    for (;;) {
      auto opened = coordinator_.advance_ld_walks();
      if (!opened.ok()) co_return opened.error();
      if (!opened.value().has_value()) break;
      if (Status s = co_await broadcast(*opened.value()); !s.ok()) {
        co_return s.error();
      }
    }
    std::set<std::uint32_t> owing = coordinator_.members_owing_moments();
    if (owing.empty()) {
      owing = coordinator_.members_owing(Coordinator::Stream::ld_windows);
    }
    co_return owing;
  };
  const auto take_ld_record = [this](std::uint32_t member, MsgType type,
                                     common::BytesView body) -> Status {
    if (type == MsgType::moments_response) {
      auto response = wire::decode<MomentsResponse>(body);
      if (!response.ok()) return response.error();
      return coordinator_.add_moments(member, response.value());
    }
    auto window = wire::decode<LdWindow>(body);
    if (!window.ok()) return window.error();
    return coordinator_.add_ld_window(member, std::move(window).take());
  };
  auto fetch_wait_ms =
      co_await gather("LD phase", kLdRecords, walk, take_ld_record);
  if (!fetch_wait_ms.ok()) co_return fetch_wait_ms.error();
  if (coordinator_.live_combination_count() == 0) {
    co_return dead_peers_error("LD phase");
  }
  auto phase2 = coordinator_.run_ld_phase();
  if (!phase2.ok()) co_return phase2.error();
  timings.ld_ms += ld_watch.elapsed_ms() - fetch_wait_ms.value();
  timings.aggregation_ms += fetch_wait_ms.value();
  obs::observe(obs_, "leader.ld_fetch_wait_ms", fetch_wait_ms.value());

  aggregation_watch.restart();
  obs::ScopedSpan lr_gather_span(obs::recorder_of(obs_),
                                 "step.gather_lr_matrices", study_span_);
  // L'' goes out as one self-contained message per tile of the phase-3
  // plan (a single message when tiling is off): each body is the tile's
  // SNP ids, whatever the federation size. Members answer tile k with its
  // planes while later tiles are still in flight.
  std::uint64_t phase2_body_bytes = 0;
  for (const Phase2Result& tile : coordinator_.phase2_tiles()) {
    const std::size_t body_size = wire::encoded_size(tile);
    phase2_body_bytes += body_size;
    obs::add_counter(obs_, "leader.phase2_body_bytes", body_size);
    obs::add_counter(obs_, "leader.phase2_broadcast_bytes",
                     body_size * live_members().size());
    if (Status s = co_await broadcast(tile); !s.ok()) {
      co_return s.error();
    }
  }

  // --- Phase 3: gather every member's LR planes, then select. ---
  // Each member answers every phase-2 tile with one LrPlanes reply.
  const auto take_planes = [this](std::uint32_t member, MsgType,
                                  common::BytesView body) -> Status {
    auto planes = wire::decode<LrPlanes>(body);
    if (!planes.ok()) return planes.error();
    return coordinator_.add_lr_planes(member, planes.value());
  };
  if (auto waited = co_await gather("LR gather", kLrRecords,
                                    owing_tiles(Coordinator::Stream::lr_planes),
                                    take_planes);
      !waited.ok()) {
    co_return waited.error();
  }
  timings.aggregation_ms += aggregation_watch.elapsed_ms();
  lr_gather_span.end();

  Stopwatch lr_watch;
  auto phase3 = coordinator_.run_lr_phase(pool_);
  if (!phase3.ok()) co_return phase3.error();
  timings.lr_ms += lr_watch.elapsed_ms();

  aggregation_watch.restart();
  {
    const obs::ScopedSpan broadcast_span(obs::recorder_of(obs_),
                                         "step.broadcast_phase3", study_span_);
    if (Status s = co_await broadcast(phase3.value()); !s.ok()) {
      co_return s.error();
    }
  }
  timings.aggregation_ms += aggregation_watch.elapsed_ms();
  timings.total_ms = total_watch.elapsed_ms();

  StudyResult result;
  result.outcome = coordinator_.outcome();
  result.timings = timings;
  result.dead_gdos.assign(coordinator_.dead_gdos().begin(),
                          coordinator_.dead_gdos().end());
  result.leader_gdo = gdo_index_;
  result.num_gdos = num_gdos_;
  result.num_combinations = coordinator_.combinations().size();
  result.live_combinations = coordinator_.live_combination_count();
  result.combination_members_total = coordinator_.combination_members_total();
  result.n_case_per_gdo = coordinator_.case_populations();
  result.phase2_body_bytes = phase2_body_bytes;
  result.ld_pairs_fetched = coordinator_.ld_pairs_fetched();
  // The transport meter, the EPC peaks and the AEAD counters are run-wide;
  // the federation runner fills them after every session finished.
  result.kernel_backend = genome::kernels::kernel_backend_name(
      genome::kernels::active_kernel_backend());
  result.snp_tile_width = coordinator_.config().snp_tile_width;
  result.maf_tiles = coordinator_.maf_plan().tile_count();
  result.lr_tiles = coordinator_.lr_plan().tile_count();
  result.maf_tiles_assessed_inline = maf_tiles_inline;
  result.leader_inline_assess_ms = inline_assess_ms;
  if (obs_ != nullptr) {
    obs_->metrics.set_label("kernel.backend", result.kernel_backend);
    obs_->metrics.set_gauge("tiles.width",
                            static_cast<double>(result.snp_tile_width));
    obs_->metrics.set_gauge("tiles.count",
                            static_cast<double>(result.maf_tiles));
    obs_->metrics.set_gauge("tiles.lr_count",
                            static_cast<double>(result.lr_tiles));
    obs_->metrics.observe("leader.phase.aggregation_ms",
                          timings.aggregation_ms);
    obs_->metrics.observe("leader.phase.indexing_ms", timings.indexing_ms);
    obs_->metrics.observe("leader.phase.ld_ms", timings.ld_ms);
    obs_->metrics.observe("leader.phase.lr_ms", timings.lr_ms);
  }
  co_return result;
}

}  // namespace gendpr::core
