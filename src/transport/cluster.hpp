// Threaded in-memory cluster: the "real concurrency" runtime.
//
// Runs the same Actor programs as the deterministic simulator, but each
// process lives on its own OS thread, messages travel through MPSC
// mailboxes, time is the wall clock, and interleavings are whatever the
// scheduler produces.  This is the deployment-shaped substrate: it
// validates that the protocols do not secretly depend on the simulator's
// determinism, and it exercises the locking/timer plumbing a real system
// needs.
//
// Channel guarantees match the model: reliable (in-process queues) and
// FIFO per ordered pair (senders push sequentially, mailboxes preserve
// per-sender order).  Crash injection drops a node silently at a chosen
// point in time.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"
#include "transport/mailbox.hpp"

namespace modubft::transport {

struct ClusterConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  /// Wall-clock budget for run(); nodes still running afterwards are
  /// abandoned (their threads are joined after a close).
  std::chrono::milliseconds budget{10'000};
  /// Maximum deliveries drained from the mailbox into one Actor::on_batch
  /// dispatch.  1 restores strict one-message-at-a-time dispatch; the
  /// default keeps batches small enough that timers stay responsive.
  std::size_t max_batch = 64;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Installs the actor for `id`.  Call for every id before run().
  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor);

  /// Schedules a silent halt of `id` after `after` of wall-clock run time.
  void crash_after(ProcessId id, std::chrono::microseconds after);

  /// Schedules a restart of a node previously given to crash_after: at
  /// `after` (from the run epoch, > the crash instant), `factory()` builds
  /// a FRESH actor that takes over the node — same id, same rng stream,
  /// empty timer set; deliveries that arrived during the outage are
  /// discarded.  One-shot: a restart whose deadline falls after the
  /// cluster began stopping (budget expiry / teardown) is abandoned, never
  /// a hang.
  void set_restart(ProcessId id, std::chrono::microseconds after,
                   std::function<std::unique_ptr<sim::Actor>()> factory);

  /// Optional observer invoked on every delivery, right before the
  /// receiving actor's on_message.  Calls are serialized by an internal
  /// mutex (they come from every node thread), so the tap itself needs no
  /// locking; `Delivery::payload` points at a copy made on the node thread
  /// *outside* that mutex, and is only valid for the call's duration.
  /// Times are µs since the run epoch — the same clock crash_after uses.
  void set_delivery_tap(std::function<void(const sim::Delivery&)> tap);

  /// Starts all node threads and blocks until every node stopped (or the
  /// budget expires).  Returns true iff all nodes stopped by themselves;
  /// on budget expiry the stragglers are reported via unstopped() and a
  /// warning log naming each culprit.
  bool run();

  bool stopped(ProcessId id) const;

  /// Nodes that had not stopped when the run() budget expired (empty after
  /// a clean run) — a hung node is a named test failure, not a silent
  /// budget expiry.
  std::vector<ProcessId> unstopped() const;

  /// Aggregate message counters, comparable field-for-field with
  /// sim::Simulation::stats().  events_executed counts actor callbacks
  /// (message + timer dispatches).
  sim::Stats stats() const;

  /// Shape of the mailbox drains dispatched through Actor::on_batch.
  BatchStats batch_stats() const { return stats_.batches.load(); }

  /// Wall-clock duration of the completed run.
  std::chrono::microseconds elapsed() const { return elapsed_; }

 private:
  struct TimerEntry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t id;
  };

  struct Envelope {
    ProcessId from;
    Bytes payload;
    /// µs since the run epoch at push time (0 for pre-epoch pushes).
    SimTime sent_at = 0;
  };

  struct Node;
  class NodeContext;

  void node_main(Node& node);
  void node_pump(Node& node, NodeContext& ctx);
  SimTime since_epoch() const;
  void tap_delivery(const Envelope& env, ProcessId to);

  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_{};
  std::chrono::microseconds elapsed_{0};
  std::vector<ProcessId> unstopped_;
  bool ran_ = false;

  struct AtomicStats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_delivered{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> events_executed{0};
    BatchCounter batches;
  };
  AtomicStats stats_;

  std::mutex tap_mu_;
  std::function<void(const sim::Delivery&)> tap_;
};

}  // namespace modubft::transport
