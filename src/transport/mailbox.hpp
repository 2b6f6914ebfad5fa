// Blocking MPSC mailbox used by the threaded runtime.
//
// Multiple sender threads push; the owning node thread pops with a
// deadline (so protocol timers can fire while the queue is idle).  Pushes
// from one sender thread keep their order — together with one mailbox per
// node this yields the reliable-FIFO channel semantics the protocols
// assume.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace modubft::transport {

template <typename T>
class Mailbox {
 public:
  /// Enqueues an item.  Returns false if the mailbox is closed.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Pops the next item, waiting until `deadline` at most.
  /// Returns nullopt on deadline expiry or when closed and drained.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, deadline,
                   [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }

  /// Pops up to `max` immediately-available items after waiting (until
  /// `deadline`) for at least one.  Returns items in queue order — the
  /// batched counterpart of pop_until for runtimes that dispatch whole
  /// mailbox drains at once.  Empty result on deadline expiry or when
  /// closed and drained.
  std::vector<T> drain_until(std::chrono::steady_clock::time_point deadline,
                             std::size_t max) {
    std::vector<T> out;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, deadline,
                   [this] { return !queue_.empty() || closed_; });
    while (!queue_.empty() && out.size() < max) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }

  /// Closes the mailbox: pending items remain poppable, pushes fail, and
  /// waiting poppers wake.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool closed_ = false;
};

/// Shape of the delivery batches the node loops hand to Actor::on_batch,
/// summed over every node of a run.
struct BatchStats {
  std::uint64_t batches = 0;         // on_batch dispatches
  std::uint64_t batch_messages = 0;  // messages delivered through them
  std::uint64_t max_batch = 0;       // largest single dispatch
};

/// BatchStats fed concurrently by the node threads.
class BatchCounter {
 public:
  void record(std::uint64_t size) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    messages_.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (size > seen &&
           !max_.compare_exchange_weak(seen, size,
                                       std::memory_order_relaxed)) {
    }
  }

  BatchStats load() const {
    return BatchStats{batches_.load(), messages_.load(), max_.load()};
  }

 private:
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace modubft::transport
