// TCP cluster: the protocols over real sockets.
//
// Runs the same Actor programs as the simulator and the in-memory threaded
// cluster, but every channel is a TCP connection on the loopback
// interface: real framing, real kernel buffering, real partial reads.
// This is the closest substrate to a deployment and the robustness proving
// ground — nothing above this layer changes.
//
// Topology: full mesh of unidirectional links.  Every node dials every
// peer and uses that connection exclusively for its own sends (i → j);
// inbound connections are identified by a hello frame carrying the
// dialer's id.  The receive side of each node is a single level-triggered
// epoll event loop driving nonblocking sockets (accept + every inbound
// link), so a node costs one IO thread regardless of n — the former
// thread-per-connection readers are gone (see docs/TRANSPORT.md).  Unlike
// the first-generation transport, the reliable-FIFO
// contract the protocols assume is *re-established by this layer* rather
// than presumed from a single healthy TCP connection: each link is a
// `ResilientChannel` with per-link sequence numbers, CRC-checked frames, a
// bounded retransmit buffer, reconnect with capped exponential backoff,
// and duplicate suppression on resume — so injected link faults
// (`LinkFaultPlan`) or real socket failures are absorbed below the
// protocol instead of silently breaking the model.
//
// Wire protocol (see resilient_channel.hpp for the byte-level encoders):
//   hello  = [u32 magic][u32 sender id]
//   resume = [u64 next expected seq]        (receiver → dialer)
//   frame  = [u32 len][u64 seq][u32 crc32c(len‖seq‖payload)][payload]
//   ack    = [u64 next expected seq]        (receiver → dialer, cumulative)
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"
#include "transport/link_faults.hpp"
#include "transport/mailbox.hpp"
#include "transport/resilient_channel.hpp"

namespace modubft::transport {

struct TcpClusterConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  std::chrono::milliseconds budget{10'000};
  /// Maximum accepted frame size (defensive cap on the wire).
  std::uint32_t max_frame_bytes = 16u << 20;
  /// Reconnect / retransmit / timeout policy applied to every link.
  RetryPolicy retry;
  /// Link faults injected below the framing layer (empty = healthy links).
  LinkFaultPlan faults;
  /// Records every delivered (link, seq) so tests can audit FIFO and
  /// exactly-once delivery.  Off by default (unbounded memory per frame).
  bool audit_deliveries = false;
  /// Maximum deliveries drained from the mailbox into one Actor::on_batch
  /// dispatch (1 = strict one-at-a-time dispatch).
  std::size_t max_batch = 64;
};

/// Aggregate counters across every link of the cluster.
struct TcpLinkStats {
  std::uint64_t reconnects = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dial_failures = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t kills_injected = 0;
  std::uint64_t truncates_injected = 0;
  std::uint64_t flips_injected = 0;
  std::uint64_t delays_injected = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t gap_resets = 0;
  std::uint64_t malformed_hellos = 0;
  std::uint64_t degraded_links = 0;
};

class TcpCluster {
 public:
  explicit TcpCluster(TcpClusterConfig config);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor);

  /// Schedules a silent halt of `id` after `after` of wall-clock run time:
  /// the node's actor stops receiving, sending and firing timers, matching
  /// Cluster::crash_after and sim::Simulation::crash_at semantics.  Frames
  /// already handed to the resilient channels may still reach peers (they
  /// are "in the channel", as in the simulator's model).
  void crash_after(ProcessId id, std::chrono::microseconds after);

  /// Schedules a restart of a node previously given to crash_after: at
  /// `after` (from the run epoch, > the crash instant), `factory()` builds
  /// a FRESH actor that takes over the node — same id, same rng stream,
  /// empty timer set; frames that arrived during the outage are discarded.
  /// One-shot: a restart whose deadline falls after the cluster began
  /// stopping (budget expiry / teardown) is abandoned, never a hang.
  void set_restart(ProcessId id, std::chrono::microseconds after,
                   std::function<std::unique_ptr<sim::Actor>()> factory);

  /// Optional observer invoked on every delivery, right before the
  /// receiving actor's on_message.  Serialized by an internal mutex;
  /// `Delivery::payload` is valid only for the call.  `send_time` is the
  /// frame's arrival at the receiving transport (the wire carries no send
  /// timestamp), `deliver_time` the dispatch to the actor — both µs since
  /// the run epoch.
  void set_delivery_tap(std::function<void(const sim::Delivery&)> tap);

  /// Establishes the mesh, runs every node to completion (or budget
  /// expiry).  Returns true iff all nodes stopped by themselves; on budget
  /// expiry the stragglers are reported via unstopped() and a warning log.
  bool run();

  bool stopped(ProcessId id) const;

  /// Nodes that had not stopped when the run() budget expired (empty
  /// after a clean run) — makes hung-transport failures diagnosable.
  std::vector<ProcessId> unstopped() const;

  /// Loopback port the node listens on (0 until run() binds it).  Exposed
  /// so tests can poke the wire protocol directly.
  std::uint16_t port(ProcessId id) const;

  /// Per-node transport errors (malformed hellos, oversized frames, …).
  std::vector<std::string> errors(ProcessId id) const;

  /// Total frames/bytes actually written to sockets (retransmits count).
  std::uint64_t frames_sent() const;
  std::uint64_t bytes_sent() const;

  /// Protocol-level message counters, comparable field-for-field with
  /// sim::Simulation::stats() and Cluster::stats(): sends/bytes are
  /// counted at the Context::send boundary (before framing, retransmits
  /// excluded), deliveries at actor dispatch.
  sim::Stats stats() const;

  /// Shape of the mailbox drains dispatched through Actor::on_batch.
  BatchStats batch_stats() const { return msg_stats_.batches.load(); }

  /// Aggregate fault/recovery counters over all links.
  TcpLinkStats link_stats() const;

  /// Counters of the directed link from → to.
  ChannelStats channel_stats(ProcessId from, ProcessId to) const;

  /// Sequence numbers delivered on link from → to, in delivery order.
  /// Requires config.audit_deliveries.
  std::vector<std::uint64_t> delivered_seqs(ProcessId from,
                                            ProcessId to) const;

 private:
  struct TimerEntry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t id;
  };

  struct Envelope {
    ProcessId from;
    Bytes payload;
    /// µs since the run epoch when the frame reached this node's mailbox.
    SimTime arrived_at = 0;
  };

  struct RecvLink;
  struct Conn;
  struct Node;
  class NodeContext;

  void node_main(Node& node);
  void node_pump(Node& node, NodeContext& ctx);
  /// The per-node receive event loop: one epoll instance drives the
  /// listen socket plus every inbound connection (nonblocking), replacing
  /// the former accept thread + thread-per-connection readers.
  void io_main(Node& node);
  bool send_frame(Node& node, ProcessId to, const Bytes& payload);
  /// Broadcast with one shared wire payload across all n−1 channels.
  void broadcast_frame(Node& node, const Bytes& payload);
  void record_error(Node& node, std::string message);
  void teardown();
  SimTime since_epoch() const;
  void tap_delivery(const Envelope& env, ProcessId to);

  TcpClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<ProcessId> unstopped_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<bool> shutting_down_{false};
  bool ran_ = false;
  bool torn_down_ = false;

  struct AtomicStats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_delivered{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> events_executed{0};
    BatchCounter batches;
  };
  AtomicStats msg_stats_;

  std::mutex tap_mu_;
  std::function<void(const sim::Delivery&)> tap_;
};

}  // namespace modubft::transport
