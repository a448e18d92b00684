#include "wire/buffer_pool.hpp"

#include <cstring>
#include <utility>

namespace gendpr::wire {

namespace {

constexpr std::size_t kDefaultRetained = 64;

void store_u32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value & 0xff);
  out[1] = static_cast<std::uint8_t>((value >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((value >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((value >> 24) & 0xff);
}

}  // namespace

BufferPool::BufferPool(std::size_t max_retained)
    : max_retained_(max_retained != 0 ? max_retained : kDefaultRetained) {}

common::Bytes BufferPool::acquire(std::size_t min_capacity) {
  common::Bytes storage;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      storage = std::move(free_.back());
      free_.pop_back();
      hit = true;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.peak_outstanding) {
      stats_.peak_outstanding = stats_.outstanding;
    }
  }
  storage.clear();
  if (!hit || storage.capacity() < min_capacity) {
    storage.reserve(min_capacity);
  }
  return storage;
}

void BufferPool::release(common::Bytes storage) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.outstanding > 0) {
    --stats_.outstanding;
  }
  if (free_.size() < max_retained_) {
    storage.clear();
    free_.push_back(std::move(storage));
  }
}

void BufferPool::forfeit() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.outstanding > 0) {
    --stats_.outstanding;
  }
}

void BufferPool::note_copy() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.copies;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

BufferPool& default_pool() {
  static BufferPool pool;
  return pool;
}

WireBuffer::~WireBuffer() { reset(); }

WireBuffer::WireBuffer(WireBuffer&& other) noexcept
    : pool_(other.pool_),
      storage_(std::move(other.storage_)),
      finished_(other.finished_) {
  other.pool_ = nullptr;
  other.storage_.clear();
  other.finished_ = false;
}

WireBuffer& WireBuffer::operator=(WireBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = other.pool_;
    storage_ = std::move(other.storage_);
    finished_ = other.finished_;
    other.pool_ = nullptr;
    other.storage_.clear();
    other.finished_ = false;
  }
  return *this;
}

void WireBuffer::reset() noexcept {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  storage_.clear();
  finished_ = false;
}

WireBuffer WireBuffer::from_payload(BufferPool& pool,
                                    common::BytesView payload) {
  common::Bytes storage = pool.acquire(kHeaderBytes + payload.size());
  storage.resize(kHeaderBytes);
  storage.insert(storage.end(), payload.begin(), payload.end());
  if (!payload.empty()) {
    pool.note_copy();
  }
  return WireBuffer(&pool, std::move(storage), false);
}

WireBuffer WireBuffer::from_frame(BufferPool& pool, common::Bytes frame) {
  // The frame is already fully encoded; adopt its bytes so finish_frame()
  // does not rewrite the header. The storage still cycles through `pool`.
  return WireBuffer(&pool, std::move(frame), true);
}

WireBuffer WireBuffer::for_record(BufferPool& pool,
                                  std::size_t plaintext_capacity) {
  // [0..8) frame header | [8..16) seq | plaintext → ciphertext | 16 B tag.
  common::Bytes storage =
      pool.acquire(kHeaderBytes + kSeqBytes + plaintext_capacity + 16);
  storage.resize(kHeaderBytes + kSeqBytes);
  return WireBuffer(&pool, std::move(storage), false);
}

void WireBuffer::finish_frame(std::uint32_t from) {
  if (finished_) {
    return;
  }
  const std::size_t payload = payload_size();
  store_u32(storage_.data(), static_cast<std::uint32_t>(payload + 4));
  store_u32(storage_.data() + 4, from);
  finished_ = true;
}

void WireBuffer::discard() noexcept {
  if (pool_ != nullptr) {
    pool_->forfeit();
    pool_ = nullptr;
  }
  common::Bytes().swap(storage_);
  finished_ = false;
}

common::Bytes WireBuffer::release_storage() && {
  // The pool pointer stays: adopt_storage() hands the bytes back before this
  // WireBuffer is destroyed, so the storage still returns to the pool.
  return std::move(storage_);
}

void WireBuffer::adopt_storage(common::Bytes storage) noexcept {
  storage_ = std::move(storage);
}

}  // namespace gendpr::wire
