#include "net/uring_hub.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/log.hpp"

#if defined(__linux__)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

#if defined(__linux__) && defined(__NR_io_uring_setup)

namespace {

constexpr unsigned kRingEntries = 256;
constexpr std::size_t kRecvBufBytes = 64 * 1024;
/// Fixed-buffer receive slots registered with the kernel (1 MiB slab).
constexpr int kFixedRecvSlots = 16;
/// user_data of ASYNC_CANCEL ops: never a valid (aligned) Op pointer.
constexpr std::uint64_t kCancelToken = 1;

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg,
                          unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int make_nonblocking_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

void set_nodelay(int fd) {
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
}

}  // namespace

/// One in-flight kernel operation. Heap-allocated, ownership passes to the
/// kernel at submission (user_data carries the raw pointer) and back at CQE
/// reap. Holding the Conn by shared_ptr keeps its fd slot and buffers alive
/// until the kernel is provably done with them.
struct UringHub::Op {
  enum class Kind { accept, recv, send, connect };
  Kind kind;
  std::shared_ptr<Conn> conn;  // null for accept
  sockaddr_in addr{};          // connect target / accept peer storage
  socklen_t addr_len = sizeof(sockaddr_in);
  /// Registered slot a READ_FIXED receive targets; -1 = plain RECV into the
  /// connection's fallback buffer. The slot stays claimed until this op's
  /// CQE is reaped, so the kernel never writes into a recycled slot.
  int buf_slot = -1;
};

/// One TCP connection (inbound, adopted, or dialed). All state is
/// loop-thread-only; liveness across late completions comes from the Op's
/// shared_ptr.
struct UringHub::Conn {
  explicit Conn(int conn_fd) : fd(conn_fd), recv_buf(kRecvBufBytes) {}

  int fd;
  NodeId peer = kNoNode;        // known after dial / after inbound hello
  bool awaiting_hello = false;  // inbound: first frame must be the hello
  bool connecting = false;      // CONNECT op still in flight
  bool dead = false;            // dropped; ignore every later completion
  bool paused = false;          // write queue above the high watermark
  wire::FrameDecoder decoder;
  std::vector<std::uint8_t> recv_buf;  // fallback RECV target (no fixed slot)
  std::deque<wire::WireBuffer> write_queue;  // pooled, header-stamped frames
  std::size_t write_offset = 0;  // bytes of the front frame already written
  std::size_t queued_bytes = 0;  // unsent bytes across the whole queue
  Op* recv_op = nullptr;         // in-flight ops, for targeted cancel
  Op* send_op = nullptr;
  Op* connect_op = nullptr;
};

void UringHub::RingHandler::on_ready(std::uint32_t events) {
  (void)events;
  hub->reap();
}

bool UringHub::available() {
  static const bool supported = [] {
    io_uring_params params{};
    const int fd = sys_io_uring_setup(4, &params);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return supported;
}

UringHub::UringHub(EventLoop& loop, NodeId self, std::uint16_t port)
    : Hub(self, port), loop_(&loop) {}

common::Status UringHub::init_ring() {
  io_uring_params params{};
  ring_fd_ = sys_io_uring_setup(kRingEntries, &params);
  if (ring_fd_ < 0) {
    return make_error(Errc::io_error, std::string("io_uring_setup: ") +
                                          std::strerror(errno));
  }
  sq_map_len_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_map_len_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap_) {
    sq_map_len_ = cq_map_len_ = std::max(sq_map_len_, cq_map_len_);
  }
  sq_ptr_ = ::mmap(nullptr, sq_map_len_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ptr_ == MAP_FAILED) {
    sq_ptr_ = nullptr;
    destroy_ring();
    return make_error(Errc::io_error,
                      std::string("mmap sq: ") + std::strerror(errno));
  }
  if (single_mmap_) {
    cq_ptr_ = sq_ptr_;
  } else {
    cq_ptr_ = ::mmap(nullptr, cq_map_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ptr_ == MAP_FAILED) {
      cq_ptr_ = nullptr;
      destroy_ring();
      return make_error(Errc::io_error,
                        std::string("mmap cq: ") + std::strerror(errno));
    }
  }
  sqes_map_len_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ptr_ = ::mmap(nullptr, sqes_map_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ptr_ == MAP_FAILED) {
    sqes_ptr_ = nullptr;
    destroy_ring();
    return make_error(Errc::io_error,
                      std::string("mmap sqes: ") + std::strerror(errno));
  }
  auto* sq_base = static_cast<std::uint8_t*>(sq_ptr_);
  sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  sq_entries_ = params.sq_entries;
  auto* cq_base = static_cast<std::uint8_t*>(cq_ptr_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cqes_ = cq_base + params.cq_off.cqes;
  register_fixed_buffers();
  return Status::success();
}

void UringHub::register_fixed_buffers() {
#if defined(__NR_io_uring_register)
  // One slab, carved into per-receive slots and registered as one iovec per
  // slot — the kernel pins the pages once here instead of per operation.
  fixed_slab_.assign(
      static_cast<std::size_t>(kFixedRecvSlots) * kRecvBufBytes, 0);
  std::vector<iovec> iovs(static_cast<std::size_t>(kFixedRecvSlots));
  for (int slot = 0; slot < kFixedRecvSlots; ++slot) {
    iovs[static_cast<std::size_t>(slot)].iov_base =
        fixed_slab_.data() + static_cast<std::size_t>(slot) * kRecvBufBytes;
    iovs[static_cast<std::size_t>(slot)].iov_len = kRecvBufBytes;
  }
  const int rc = sys_io_uring_register(ring_fd_, IORING_REGISTER_BUFFERS,
                                       iovs.data(),
                                       static_cast<unsigned>(iovs.size()));
  if (rc == 0) {
    use_fixed_ = true;
    free_slots_.reserve(static_cast<std::size_t>(kFixedRecvSlots));
    for (int slot = kFixedRecvSlots - 1; slot >= 0; --slot) {
      free_slots_.push_back(slot);
    }
  } else {
    fixed_slab_.clear();
    fixed_slab_.shrink_to_fit();
  }
#endif
}

void UringHub::destroy_ring() {
  if (sqes_ptr_ != nullptr) ::munmap(sqes_ptr_, sqes_map_len_);
  if (cq_ptr_ != nullptr && !single_mmap_) ::munmap(cq_ptr_, cq_map_len_);
  if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_map_len_);
  sqes_ptr_ = cq_ptr_ = sq_ptr_ = nullptr;
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

common::Status UringHub::init_listener(std::uint16_t port) {
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    return make_error(Errc::io_error,
                      std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("getsockname: ") + std::strerror(errno));
  }
  listen_fd_ = fd;
  set_port(ntohs(addr.sin_port));
  return Status::success();
}

common::Result<std::unique_ptr<UringHub>> UringHub::create(
    EventLoop& loop, NodeId self, std::uint16_t port) {
  auto hub = std::unique_ptr<UringHub>(new UringHub(loop, self, port));
  if (Status s = hub->init_ring(); !s.ok()) return s.error();
  if (Status s = hub->init_listener(port); !s.ok()) return s.error();
  if (Status s = loop.watch(hub->ring_fd_, EPOLLIN,
                            std::make_shared<RingHandler>(hub.get()));
      !s.ok()) {
    return s.error();
  }
  if (!hub->submit_accept()) {
    return make_error(Errc::io_error, "io_uring: cannot arm accept");
  }
  return hub;
}

common::Result<std::unique_ptr<UringHub>> UringHub::create_adopt_only(
    EventLoop& loop, NodeId self) {
  auto hub = std::unique_ptr<UringHub>(new UringHub(loop, self, 0));
  if (Status s = hub->init_ring(); !s.ok()) return s.error();
  if (Status s = loop.watch(hub->ring_fd_, EPOLLIN,
                            std::make_shared<RingHandler>(hub.get()));
      !s.ok()) {
    return s.error();
  }
  return hub;
}

UringHub::~UringHub() {
  shutting_down_ = true;
  for (auto& [peer, dial] : dials_) {
    if (dial.retry_timer.has_value()) loop_->cancel_timer(*dial.retry_timer);
  }
  // Make every in-flight op completable: shutdown unblocks RECV/SEND, the
  // explicit cancels cover ACCEPT and CONNECT (and are harmless no-ops for
  // ops that already completed).
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    cancel_conn_ops(conn);
  }
  if (accept_op_ != nullptr) submit_cancel(accept_op_);
  // Reap until the kernel owns nothing of ours; only then may buffers and
  // mappings be released.
  while (outstanding_ > 0) {
    const int rc =
        sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
    if (rc < 0 && errno != EINTR) break;
    reap();
  }
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (ring_fd_ >= 0) loop_->unwatch(ring_fd_);
  destroy_ring();
}

bool UringHub::submit_op(std::unique_ptr<Op> op) {
  // Immediate one-SQE submission: the queue never accumulates, so a full SQ
  // means kRingEntries ops are genuinely in flight — beyond this hub's
  // bounded per-connection op count, i.e. unreachable.
  const unsigned tail = *sq_tail_;
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  if (tail - head >= sq_entries_) return false;
  auto* sqes = static_cast<io_uring_sqe*>(sqes_ptr_);
  io_uring_sqe* sqe = &sqes[tail & sq_mask_];
  std::memset(sqe, 0, sizeof(*sqe));
  switch (op->kind) {
    case Op::Kind::accept:
      sqe->opcode = IORING_OP_ACCEPT;
      sqe->fd = listen_fd_;
      sqe->addr = reinterpret_cast<std::uintptr_t>(&op->addr);
      sqe->addr2 = reinterpret_cast<std::uintptr_t>(&op->addr_len);
      sqe->accept_flags = SOCK_CLOEXEC;
      break;
    case Op::Kind::recv:
      if (op->buf_slot >= 0) {
        // Registered-buffer receive: RECV has no fixed variant, but on a
        // socket READ_FIXED at offset 0 is the same read — minus the per-op
        // page pin, because the slot was registered at ring setup.
        sqe->opcode = IORING_OP_READ_FIXED;
        sqe->fd = op->conn->fd;
        sqe->addr = reinterpret_cast<std::uintptr_t>(
            fixed_slab_.data() +
            static_cast<std::size_t>(op->buf_slot) * kRecvBufBytes);
        sqe->len = static_cast<std::uint32_t>(kRecvBufBytes);
        sqe->off = 0;
        sqe->buf_index = static_cast<std::uint16_t>(op->buf_slot);
      } else {
        sqe->opcode = IORING_OP_RECV;
        sqe->fd = op->conn->fd;
        sqe->addr =
            reinterpret_cast<std::uintptr_t>(op->conn->recv_buf.data());
        sqe->len = static_cast<std::uint32_t>(op->conn->recv_buf.size());
      }
      break;
    case Op::Kind::send: {
      const common::BytesView front = op->conn->write_queue.front().frame();
      sqe->opcode = IORING_OP_SEND;
      sqe->fd = op->conn->fd;
      sqe->addr = reinterpret_cast<std::uintptr_t>(front.data() +
                                                   op->conn->write_offset);
      sqe->len =
          static_cast<std::uint32_t>(front.size() - op->conn->write_offset);
      sqe->msg_flags = MSG_NOSIGNAL;
      break;
    }
    case Op::Kind::connect:
      sqe->opcode = IORING_OP_CONNECT;
      sqe->fd = op->conn->fd;
      sqe->addr = reinterpret_cast<std::uintptr_t>(&op->addr);
      sqe->off = op->addr_len;
      break;
  }
  sqe->user_data = reinterpret_cast<std::uintptr_t>(op.get());
  sq_array_[tail & sq_mask_] = tail & sq_mask_;
  __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
  for (;;) {
    const int rc = sys_io_uring_enter(ring_fd_, 1, 0, 0);
    if (rc >= 0) break;
    if (errno != EINTR) return false;
  }
  outstanding_ += 1;
  op.release();  // the kernel owns it until the CQE is reaped
  return true;
}

void UringHub::submit_cancel(const Op* target) {
  const unsigned tail = *sq_tail_;
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  if (tail - head >= sq_entries_) return;
  auto* sqes = static_cast<io_uring_sqe*>(sqes_ptr_);
  io_uring_sqe* sqe = &sqes[tail & sq_mask_];
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = reinterpret_cast<std::uintptr_t>(target);
  sqe->user_data = kCancelToken;
  sq_array_[tail & sq_mask_] = tail & sq_mask_;
  __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
  for (;;) {
    const int rc = sys_io_uring_enter(ring_fd_, 1, 0, 0);
    if (rc >= 0) break;
    if (errno != EINTR) return;
  }
  outstanding_ += 1;
}

bool UringHub::submit_accept() {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::accept;
  Op* raw = op.get();
  if (!submit_op(std::move(op))) return false;
  accept_op_ = raw;
  return true;
}

bool UringHub::submit_recv(const std::shared_ptr<Conn>& conn) {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::recv;
  op->conn = conn;
  int slot = -1;
  if (use_fixed_ && !free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  op->buf_slot = slot;
  Op* raw = op.get();
  if (!submit_op(std::move(op))) {
    if (slot >= 0) free_slots_.push_back(slot);
    return false;
  }
  conn->recv_op = raw;
  return true;
}

void UringHub::maybe_submit_send(const std::shared_ptr<Conn>& conn) {
  if (conn->send_op != nullptr || conn->write_queue.empty() || conn->dead) {
    return;
  }
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::send;
  op->conn = conn;
  Op* raw = op.get();
  if (!submit_op(std::move(op))) {
    drop_conn(conn);
    return;
  }
  conn->send_op = raw;
  wire_stats_.writev_batches += 1;  // one submitted SEND is one batch
}

bool UringHub::submit_connect(const std::shared_ptr<Conn>& conn) {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::connect;
  op->conn = conn;
  op->addr = {};
  // The dial target was validated and stored by attempt_dial via the Dial
  // entry; re-derive it here so the sockaddr lives inside the Op for the
  // whole kernel lifetime of the CONNECT.
  auto it = dials_.find(conn->peer);
  if (it == dials_.end()) return false;
  op->addr.sin_family = AF_INET;
  op->addr.sin_port = htons(it->second.port);
  if (::inet_pton(AF_INET, it->second.host.c_str(), &op->addr.sin_addr) !=
      1) {
    return false;
  }
  op->addr_len = sizeof(op->addr);
  Op* raw = op.get();
  if (!submit_op(std::move(op))) return false;
  conn->connect_op = raw;
  return true;
}

void UringHub::reap() {
  auto* cqes = static_cast<io_uring_cqe*>(cqes_);
  for (;;) {
    const unsigned head = *cq_head_;
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    if (head == tail) break;
    const io_uring_cqe& cqe = cqes[head & cq_mask_];
    const std::int32_t res = cqe.res;
    const std::uint64_t user_data = cqe.user_data;
    __atomic_store_n(cq_head_, head + 1, __ATOMIC_RELEASE);
    handle_cqe(res, user_data);
  }
}

void UringHub::handle_cqe(std::int32_t res, std::uint64_t user_data) {
  if (outstanding_ > 0) outstanding_ -= 1;
  if (user_data == kCancelToken) return;  // a cancel's own completion
  std::unique_ptr<Op> op(reinterpret_cast<Op*>(
      static_cast<std::uintptr_t>(user_data)));
  switch (op->kind) {
    case Op::Kind::accept:
      on_accept_done(res, op.get());
      break;
    case Op::Kind::recv: {
      if (op->conn->recv_op == op.get()) op->conn->recv_op = nullptr;
      const int slot = op->buf_slot;
      const std::uint8_t* data =
          slot >= 0 ? fixed_slab_.data() +
                          static_cast<std::size_t>(slot) * kRecvBufBytes
                    : op->conn->recv_buf.data();
      on_recv_done(res, op->conn, data, slot >= 0);
      // The frames were delivered (or stashed) before this point, so the
      // slot is free for the next receive.
      if (slot >= 0) free_slots_.push_back(slot);
      break;
    }
    case Op::Kind::send:
      if (op->conn->send_op == op.get()) op->conn->send_op = nullptr;
      on_send_done(res, op->conn);
      break;
    case Op::Kind::connect:
      if (op->conn->connect_op == op.get()) op->conn->connect_op = nullptr;
      on_connect_done(res, op->conn);
      break;
  }
}

void UringHub::on_accept_done(std::int32_t res, Op* op) {
  (void)op;
  accept_op_ = nullptr;
  if (shutting_down_) {
    if (res >= 0) ::close(res);
    return;
  }
  if (res >= 0) {
    set_nodelay(res);
    auto conn = std::make_shared<Conn>(res);
    conn->awaiting_hello = true;
    conns_.insert(conn);
    if (!submit_recv(conn)) drop_conn(conn);
  } else if (res == -ECANCELED) {
    return;  // shutting down; do not re-arm
  }
  if (!submit_accept()) {
    common::log_warn("uring", "hub ", self_, " cannot re-arm accept");
  }
}

void UringHub::on_recv_done(std::int32_t res,
                            const std::shared_ptr<Conn>& conn,
                            const std::uint8_t* data, bool was_fixed) {
  if (conn->dead || shutting_down_) return;
  if (was_fixed && (res == -EINVAL || res == -EOPNOTSUPP)) {
    // Kernel accepted the registration but rejects READ_FIXED on sockets:
    // flip the whole hub to plain RECV and re-arm this connection.
    use_fixed_ = false;
    if (!submit_recv(conn)) drop_conn(conn);
    return;
  }
  if (res <= 0) {
    drop_conn(conn);
    return;
  }
  conn->decoder.feed(common::BytesView(data, static_cast<std::size_t>(res)));
  deliver_frames(conn);
  if (!conn->dead && !submit_recv(conn)) drop_conn(conn);
}

void UringHub::deliver_frames(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    auto frame = conn->decoder.next();
    if (!frame.ok()) {
      common::log_warn("uring", "malformed frame on hub ", self_);
      drop_conn(conn);
      return;
    }
    if (!frame.value().has_value()) break;
    const wire::FrameDecoder::Frame f = *frame.value();
    if (conn->awaiting_hello) {
      // Same contract as EpollHub::read_frames: the first frame must be a
      // hello naming the peer, for the one study this hub serves.
      const auto study = f.hello_study();
      if (!study.has_value() || f.from == kNoNode || *study != study_id_) {
        drop_conn(conn);
        return;
      }
      conn->awaiting_hello = false;
      conn->peer = f.from;
      register_established(f.from, conn);
      continue;
    }
    meter_.record(f.from, self_, f.payload.size());
    if (frame_handler_) frame_handler_(f.from, f.payload);
    if (conn->dead) return;  // handler tore the hub's state down
  }
}

void UringHub::on_send_done(std::int32_t res,
                            const std::shared_ptr<Conn>& conn) {
  if (conn->dead || shutting_down_) return;
  if (res <= 0) {
    drop_conn(conn);
    return;
  }
  const auto written = static_cast<std::size_t>(res);
  conn->write_offset += written;
  conn->queued_bytes -= written;
  if (conn->write_offset == conn->write_queue.front().frame().size()) {
    conn->write_queue.pop_front();  // pooled storage returns here
    conn->write_offset = 0;
  }
  maybe_submit_send(conn);
  if (conn->dead) return;
  // Resume last, mirroring EpollHub::flush_writes: a producer resumed by
  // this callback may enqueue immediately and must find the next SEND
  // already armed.
  note_drained(conn->peer, conn->queued_bytes, conn->paused);
}

void UringHub::on_connect_done(std::int32_t res,
                               const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  const NodeId peer = conn->peer;
  if (shutting_down_) return;
  if (res != 0) {
    conn->dead = true;
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.erase(conn);
    dial_attempt_failed(peer);
    return;
  }
  conn->connecting = false;
  if (!submit_recv(conn)) {
    drop_conn(conn);
    return;
  }
  finish_dial(peer, conn);
}

void UringHub::enqueue_frame(const std::shared_ptr<Conn>& conn,
                             wire::WireBuffer buf) {
  conn->queued_bytes += buf.frame().size();
  conn->write_queue.push_back(std::move(buf));
  wire_stats_.frames_sent += 1;
  note_enqueued(conn->peer, conn->queued_bytes, conn->paused);
}

void UringHub::cancel_conn_ops(const std::shared_ptr<Conn>& conn) {
  if (conn->recv_op != nullptr) submit_cancel(conn->recv_op);
  if (conn->send_op != nullptr) submit_cancel(conn->send_op);
  if (conn->connect_op != nullptr) submit_cancel(conn->connect_op);
}

void UringHub::drop_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->fd >= 0) {
    // Shutdown first so in-flight RECV/SEND complete promptly; the cancels
    // cover a pending CONNECT. The kernel's file reference (taken at
    // submission) keeps late completions harmless, and the Op shared_ptrs
    // keep the buffers they target alive until reaped.
    ::shutdown(conn->fd, SHUT_RDWR);
    cancel_conn_ops(conn);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conns_.erase(conn);
  const NodeId peer = conn->peer;
  if (peer == kNoNode) return;
  release_pause_on_drop(peer, conn->paused);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second != conn) return;
  peers_.erase(it);
  report_peer_lost(peer);
}

void UringHub::report_peer_lost(NodeId peer) {
  lost_peers_.insert(peer);
  common::log_warn("uring", "hub ", self_, " lost connection to peer ", peer);
  if (peer_lost_handler_) peer_lost_handler_(peer);
}

void UringHub::register_established(NodeId peer,
                                    const std::shared_ptr<Conn>& conn) {
  lost_peers_.erase(peer);  // a reconnect clears the lost mark
  peers_[peer] = conn;
}

void UringHub::adopt_inbound(int fd, NodeId peer, common::Bytes leftover) {
  set_nodelay(fd);
  auto conn = std::make_shared<Conn>(fd);
  conn->peer = peer;
  conns_.insert(conn);
  register_established(peer, conn);
  if (!leftover.empty()) {
    conn->decoder.feed(common::BytesView(leftover.data(), leftover.size()));
    deliver_frames(conn);
    if (conn->dead) return;
  }
  if (!submit_recv(conn)) drop_conn(conn);
}

void UringHub::connect_peer(NodeId peer, const std::string& host,
                            std::uint16_t port, DialOptions options) {
  if (options.max_attempts < 1) options.max_attempts = 1;
  Dial dial;
  dial.host = host;
  dial.port = port;
  dial.attempts_left = options.max_attempts;
  dial.backoff = options.initial_backoff;
  dials_[peer] = std::move(dial);
  attempt_dial(peer);
}

void UringHub::attempt_dial(NodeId peer) {
  auto it = dials_.find(peer);
  if (it == dials_.end()) return;
  Dial& dial = it->second;
  dial.retry_timer.reset();
  dial.attempts_left -= 1;
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    dial_attempt_failed(peer);
    return;
  }
  set_nodelay(fd);
  auto conn = std::make_shared<Conn>(fd);
  conn->peer = peer;
  conn->connecting = true;
  conns_.insert(conn);
  if (!submit_connect(conn)) {
    conn->dead = true;
    ::close(fd);
    conn->fd = -1;
    conns_.erase(conn);
    dial.attempts_left = 0;  // a bad address never resolves itself
    dial_attempt_failed(peer);
    return;
  }
}

void UringHub::dial_attempt_failed(NodeId peer) {
  auto it = dials_.find(peer);
  if (it == dials_.end()) return;
  Dial& dial = it->second;
  if (dial.attempts_left <= 0) {
    // Frames queued against the dial die with it; the counter makes the
    // loss visible in run reports instead of silent.
    wire_stats_.dial_dropped_frames += dial.pending.size();
    dials_.erase(it);
    report_peer_lost(peer);
    return;
  }
  // Same jittered schedule as EpollHub: reconnect storms must not arrive as
  // one synchronized wave per backoff step.
  const std::chrono::milliseconds backoff = jittered(dial.backoff);
  dial.backoff *= 2;
  dial.retry_timer =
      loop_->add_timer_after(backoff, [this, peer] { attempt_dial(peer); });
}

void UringHub::finish_dial(NodeId peer, const std::shared_ptr<Conn>& conn) {
  auto it = dials_.find(peer);
  // Hello first, then everything queued while the dial was in flight,
  // preserving send order.
  enqueue_frame(conn,
                wire::WireBuffer::from_frame(
                    pool(), wire::encode_hello(self_, study_id_)));
  if (it != dials_.end()) {
    for (wire::WireBuffer& buf : it->second.pending) {
      meter_.record(self_, peer, buf.payload_size());
      enqueue_frame(conn, std::move(buf));
    }
    dials_.erase(it);
  }
  register_established(peer, conn);
  maybe_submit_send(conn);
}

Status UringHub::send_frame(NodeId to, wire::WireBuffer buf) {
  buf.finish_frame(self_);
  if (auto dial = dials_.find(to); dial != dials_.end()) {
    // Still pooled: the buffer waits in its wire shape until the dial
    // resolves, with no eager re-encode and no extra copy.
    dial->second.pending.push_back(std::move(buf));
    return Status::success();
  }
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    const bool lost = lost_peers_.count(to) > 0;
    return make_error(Errc::unknown_peer,
                      (lost ? "connection to node " : "no connection to node ") +
                          std::to_string(to) + (lost ? " was lost" : ""));
  }
  const std::shared_ptr<Conn> conn = it->second;
  meter_.record(self_, to, buf.payload_size());
  enqueue_frame(conn, std::move(buf));
  maybe_submit_send(conn);
  if (conn->dead) {
    return make_error(Errc::unknown_peer,
                      "connection to node " + std::to_string(to) +
                          " was lost");
  }
  return Status::success();
}

bool UringHub::is_connected(NodeId peer) const {
  return peers_.count(peer) > 0;
}

#else  // no io_uring syscall numbers on this platform

struct UringHub::Conn {};
struct UringHub::Op {};

void UringHub::RingHandler::on_ready(std::uint32_t) {}

bool UringHub::available() { return false; }

UringHub::UringHub(EventLoop& loop, NodeId self, std::uint16_t port)
    : Hub(self, port), loop_(&loop) {}

common::Status UringHub::init_ring() {
  return make_error(Errc::io_error, "io_uring unsupported on this platform");
}
common::Status UringHub::init_listener(std::uint16_t) {
  return make_error(Errc::io_error, "io_uring unsupported on this platform");
}
void UringHub::destroy_ring() {}

common::Result<std::unique_ptr<UringHub>> UringHub::create(EventLoop&, NodeId,
                                                           std::uint16_t) {
  return make_error(Errc::io_error, "io_uring unsupported on this platform");
}
common::Result<std::unique_ptr<UringHub>> UringHub::create_adopt_only(
    EventLoop&, NodeId) {
  return make_error(Errc::io_error, "io_uring unsupported on this platform");
}

UringHub::~UringHub() = default;

void UringHub::connect_peer(NodeId peer, const std::string&, std::uint16_t,
                            DialOptions) {
  if (peer_lost_handler_) peer_lost_handler_(peer);
}
common::Status UringHub::send_frame(NodeId, wire::WireBuffer) {
  return make_error(Errc::io_error, "io_uring unsupported on this platform");
}
bool UringHub::is_connected(NodeId) const { return false; }
void UringHub::adopt_inbound(int fd, NodeId, common::Bytes) { ::close(fd); }

#endif

}  // namespace gendpr::net
