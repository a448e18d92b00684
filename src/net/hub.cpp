#include "net/hub.hpp"

namespace gendpr::net {

void TrafficMeter::record(NodeId from, NodeId to, std::size_t bytes) {
  LinkStats& stats = links_[{from, to}];
  stats.bytes += bytes;
  stats.messages += 1;
}

std::uint64_t TrafficMeter::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [link, stats] : links_) total += stats.bytes;
  return total;
}

std::uint64_t TrafficMeter::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& [link, stats] : links_) total += stats.messages;
  return total;
}

std::uint64_t TrafficMeter::bytes_sent_by(NodeId node) const {
  std::uint64_t total = 0;
  for (const auto& [link, stats] : links_) {
    if (link.first == node) total += stats.bytes;
  }
  return total;
}

std::uint64_t TrafficMeter::bytes_received_by(NodeId node) const {
  std::uint64_t total = 0;
  for (const auto& [link, stats] : links_) {
    if (link.second == node) total += stats.bytes;
  }
  return total;
}

std::vector<TrafficMeter::Link> TrafficMeter::snapshot() const {
  std::vector<Link> links;
  links.reserve(links_.size());
  for (const auto& [link, stats] : links_) {
    links.push_back(Link{link.first, link.second, stats.bytes, stats.messages});
  }
  return links;
}

void TrafficMeter::reset() {
  links_.clear();
}

}  // namespace gendpr::net
