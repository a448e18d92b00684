// In-process transport behind the Hub seam.
//
// A MemoryHub is a GDO endpoint whose links are in-memory queues instead of
// sockets. send() moves the payload vector itself into the peer hub's inbox
// and, when the inbox was empty, posts one drain task to the peer's
// EventLoop; the drain hands each payload view to the frame handler and
// frees the vector once the handler returns. No framing, no copy, no
// syscall.
//
// Hubs find each other through a MemoryHub::Registry shared by one
// in-process federation. connect_peer() links two hubs in both directions
// (the dialed hub learns the link before any frame that follows it, like an
// accepted TCP dial with its hello), and destroying a hub reports it lost to
// every linked peer: the in-memory analogue of a dropped connection.
//
// Threading: the hubs of one registry, their inboxes and their handlers
// all belong to one loop's thread, so nothing here is locked. A send only
// queues the frame; the peer's handler runs later, from the loop.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "net/event_loop.hpp"
#include "net/hub.hpp"

namespace gendpr::net {

class MemoryHub : public Hub {
  struct Inbox;

 public:
  /// Name service for the hubs of one in-process federation. Must outlive
  /// every hub registered with it.
  class Registry {
   public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

   private:
    friend class MemoryHub;
    std::map<NodeId, std::shared_ptr<Inbox>> inboxes_;
  };

  /// Registers node `self` in `registry`; frames for it are delivered on
  /// `loop`. Both must outlive the hub.
  MemoryHub(Registry& registry, EventLoop& loop, NodeId self);
  ~MemoryHub() override;

  void connect_peer(NodeId peer, const std::string& host, std::uint16_t port,
                    DialOptions options) override;
  using Hub::connect_peer;

  common::Status send(NodeId to, common::Bytes payload) override;

  bool is_connected(NodeId peer) const override;

 private:
  /// One queued delivery: a frame, a new link from a dialing peer, or the
  /// loss of a peer (hub destroyed, or nothing registered to dial).
  struct Item {
    enum class Kind { frame, link, lost };
    Kind kind = Kind::frame;
    NodeId from = kNoNode;
    common::Bytes frame;
    std::shared_ptr<Inbox> peer;  // kind == link: the dialer's inbox
  };

  /// Queues `item` for the inbox's hub; false when that hub is gone.
  static bool push(const std::shared_ptr<Inbox>& inbox, Item item);
  /// Delivers everything queued so far; runs as a task on the inbox's loop.
  static void drain(const std::shared_ptr<Inbox>& inbox);
  void on_item(Item& item);

  Registry* registry_;
  std::shared_ptr<Inbox> inbox_;
  std::map<NodeId, std::shared_ptr<Inbox>> links_;  // established peers
  std::set<NodeId> lost_peers_;
};

}  // namespace gendpr::net
