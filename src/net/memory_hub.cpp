#include "net/memory_hub.hpp"

#include <deque>
#include <utility>

#include "common/log.hpp"

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

struct MemoryHub::Inbox {
  explicit Inbox(EventLoop& owner_loop, MemoryHub* owner)
      : loop(&owner_loop), hub(owner) {}

  EventLoop* loop;
  std::deque<Item> items;
  bool drain_posted = false;
  /// Null once the hub is destroyed; later deliveries are refused.
  MemoryHub* hub;
};

MemoryHub::MemoryHub(Registry& registry, EventLoop& loop, NodeId self)
    : Hub(self, 0),
      registry_(&registry),
      inbox_(std::make_shared<Inbox>(loop, this)) {
  registry_->inboxes_[self] = inbox_;
}

MemoryHub::~MemoryHub() {
  auto it = registry_->inboxes_.find(self_);
  if (it != registry_->inboxes_.end() && it->second == inbox_) {
    registry_->inboxes_.erase(it);
  }
  inbox_->hub = nullptr;
  std::deque<Item> undelivered;
  undelivered.swap(inbox_->items);
  // Every linked peer learns this endpoint is gone, including dialers whose
  // link was still queued here.
  for (Item& item : undelivered) {
    if (item.kind == Item::Kind::link) links_[item.from] = std::move(item.peer);
  }
  for (const auto& [peer, peer_inbox] : links_) {
    push(peer_inbox, Item{Item::Kind::lost, self_, {}, nullptr});
  }
}

bool MemoryHub::push(const std::shared_ptr<Inbox>& inbox, Item item) {
  if (inbox->hub == nullptr) return false;
  inbox->items.push_back(std::move(item));
  // One drain task per batch: deliveries that land before it runs ride
  // along without another task.
  if (!std::exchange(inbox->drain_posted, true)) {
    inbox->loop->post([inbox] { drain(inbox); });
  }
  return true;
}

void MemoryHub::drain(const std::shared_ptr<Inbox>& inbox) {
  std::deque<Item> batch;
  batch.swap(inbox->items);
  inbox->drain_posted = false;
  // A handler may destroy the hub mid-batch. Items are popped before
  // delivery so each frame is freed as soon as its handler returns, not
  // when the whole batch is done.
  while (!batch.empty() && inbox->hub != nullptr) {
    Item item = std::move(batch.front());
    batch.pop_front();
    inbox->hub->on_item(item);
  }
}

void MemoryHub::on_item(Item& item) {
  switch (item.kind) {
    case Item::Kind::link:
      lost_peers_.erase(item.from);  // a reconnect clears the lost mark
      links_[item.from] = std::move(item.peer);
      return;
    case Item::Kind::lost:
      links_.erase(item.from);
      lost_peers_.insert(item.from);
      common::log_warn("memory", "hub ", self_, " lost peer ", item.from);
      if (peer_lost_handler_) peer_lost_handler_(item.from);
      return;
    case Item::Kind::frame:
      meter_.record(item.from, self_, item.frame.size());
      if (frame_handler_) frame_handler_(item.from, item.frame);
      return;
  }
}

void MemoryHub::connect_peer(NodeId peer, const std::string& host,
                             std::uint16_t port, DialOptions options) {
  (void)host;
  (void)port;
  (void)options;
  std::shared_ptr<Inbox> peer_inbox;
  auto it = registry_->inboxes_.find(peer);
  if (it != registry_->inboxes_.end()) peer_inbox = it->second;
  if (peer_inbox == nullptr ||
      !push(peer_inbox, Item{Item::Kind::link, self_, {}, inbox_})) {
    // Nobody to dial: fail the way an exhausted socket dial does, through
    // the loss handler on this hub's own loop.
    push(inbox_, Item{Item::Kind::lost, peer, {}, nullptr});
    return;
  }
  lost_peers_.erase(peer);
  links_[peer] = std::move(peer_inbox);
}

Status MemoryHub::send(NodeId to, common::Bytes payload) {
  auto it = links_.find(to);
  if (it == links_.end()) {
    const bool lost = lost_peers_.count(to) > 0;
    return make_error(
        Errc::unknown_peer,
        (lost ? "connection to node " : "no connection to node ") +
            std::to_string(to) + (lost ? " was lost" : ""));
  }
  const std::size_t bytes = payload.size();
  if (!push(it->second,
            Item{Item::Kind::frame, self_, std::move(payload), {}})) {
    // The peer is gone; its loss notice is already queued for this hub.
    return make_error(Errc::unknown_peer,
                      "connection to node " + std::to_string(to) +
                          " was lost");
  }
  // Meter only delivered bytes, as the socket hubs do.
  meter_.record(self_, to, bytes);
  return Status::success();
}

bool MemoryHub::is_connected(NodeId peer) const {
  return links_.count(peer) > 0;
}

}  // namespace gendpr::net
