#include "transport/tcp_cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace modubft::transport {

namespace {
using Clock = std::chrono::steady_clock;

/// Label salt separating the channels' jitter streams from the fault
/// injectors' streams (both are derived from the cluster seed).
constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc908ULL;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void encode_u64(std::uint8_t out[8], std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}
}  // namespace

/// Receive-side state of one directed link sender → this node.  Survives
/// connection replacement: expected_seq is what makes resumed links
/// duplicate-free and FIFO.
struct TcpCluster::RecvLink {
  std::mutex mu;
  int current_fd = -1;
  std::uint64_t expected_seq = 0;
  std::uint32_t since_ack = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t gap_resets = 0;
  std::vector<std::uint64_t> audit;
};

/// One inbound connection's state inside the node's epoll loop: a small
/// per-fd state machine (hello → frame header → frame payload) plus an
/// outbound staging buffer for resume/ack bytes the nonblocking socket
/// refused to take immediately.
struct TcpCluster::Conn {
  int fd = -1;
  enum class Phase { kHello, kHeader, kPayload } phase = Phase::kHello;
  /// Accumulates the fixed-size prefix of the current phase (hello or
  /// frame header — whichever is larger bounds the buffer).
  std::uint8_t prefix[kFrameHeaderBytes] = {};
  std::size_t prefix_have = 0;
  FrameHeader header;
  Bytes payload;
  std::size_t payload_have = 0;
  /// Peer id once the hello was accepted; -1 while unidentified.
  std::int64_t sender = -1;
  /// Hello- or payload-completion deadline (the two phases a stalled or
  /// desynced peer must not be able to pin forever).
  std::optional<Clock::time_point> deadline;
  /// Resume/ack bytes not yet accepted by the socket; flushed on
  /// EPOLLOUT.
  Bytes pending_out;
  std::size_t pending_off = 0;
  bool want_write = false;
};

struct TcpCluster::Node {
  ProcessId id;
  std::unique_ptr<sim::Actor> actor;
  Mailbox<Envelope> mailbox;
  std::unique_ptr<Rng> rng;

  int listen_fd = -1;
  std::atomic<std::uint16_t> port{0};

  // The receive event loop: one epoll instance + one thread per node.
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread io_thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  // channels[j]: resilient sender for my link to p_{j+1} (null for j == id).
  std::vector<std::unique_ptr<ResilientChannel>> channels;
  // recv_links[j]: receive state for the link p_{j+1} → me.
  std::vector<std::unique_ptr<RecvLink>> recv_links;

  mutable std::mutex errors_mu;
  std::vector<std::string> errors;
  std::atomic<std::uint64_t> malformed_hellos{0};

  std::vector<TimerEntry> timers;
  std::unordered_set<std::uint64_t> cancelled;
  std::uint64_t next_timer_id = 1;

  std::atomic<bool> stop_requested{false};
  std::atomic<bool> stopped{false};
  // crash_at / restart_at / restart_factory are owned by the node thread
  // once run() spawns it (run() rebases them onto the epoch before the
  // spawn; the thread resets them after a restart fires).
  std::optional<Clock::time_point> crash_at;
  std::optional<Clock::time_point> restart_at;
  std::function<std::unique_ptr<sim::Actor>()> restart_factory;
  std::atomic<bool> crashed{false};

  TcpCluster* cluster = nullptr;
};

class TcpCluster::NodeContext final : public sim::Context {
 public:
  NodeContext(TcpCluster& cluster, Node& node)
      : cluster_(cluster), node_(node) {}

  ProcessId id() const override { return node_.id; }
  std::uint32_t n() const override { return cluster_.config_.n; }

  SimTime now() const override {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - cluster_.epoch_)
            .count());
  }

  void send(ProcessId to, Bytes payload) override {
    cluster_.send_frame(node_, to, payload);
  }

  void broadcast(const Bytes& payload) override {
    cluster_.broadcast_frame(node_, payload);
  }

  std::uint64_t set_timer(SimTime delay) override {
    const std::uint64_t id = node_.next_timer_id++;
    node_.timers.push_back(
        TimerEntry{Clock::now() + std::chrono::microseconds(delay), id});
    return id;
  }

  void cancel_timer(std::uint64_t timer_id) override {
    node_.cancelled.insert(timer_id);
  }

  Rng& rng() override { return *node_.rng; }

  void stop() override { node_.stop_requested.store(true); }

 private:
  TcpCluster& cluster_;
  Node& node_;
};

TcpCluster::TcpCluster(TcpClusterConfig config) : config_(config) {
  MODUBFT_EXPECTS(config_.n > 0);
  Rng root(config_.seed);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    auto node = std::make_unique<Node>();
    node->id = ProcessId{i};
    node->rng = std::make_unique<Rng>(root.split(i + 1));
    node->cluster = this;
    node->channels.resize(config_.n);
    for (std::uint32_t j = 0; j < config_.n; ++j) {
      node->recv_links.push_back(std::make_unique<RecvLink>());
    }
    nodes_.push_back(std::move(node));
  }
}

TcpCluster::~TcpCluster() { teardown(); }

void TcpCluster::set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  nodes_[id.value]->actor = std::move(actor);
}

void TcpCluster::crash_after(ProcessId id, std::chrono::microseconds after) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  // Resolved against the epoch when run() starts.
  nodes_[id.value]->crash_at = Clock::time_point(
      after.count() >= 0 ? Clock::duration(after) : Clock::duration::zero());
}

void TcpCluster::set_restart(
    ProcessId id, std::chrono::microseconds after,
    std::function<std::unique_ptr<sim::Actor>()> factory) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  MODUBFT_EXPECTS(nodes_[id.value]->crash_at.has_value());
  MODUBFT_EXPECTS(factory != nullptr);
  // Resolved against the epoch when run() starts.
  nodes_[id.value]->restart_at = Clock::time_point(
      after.count() >= 0 ? Clock::duration(after) : Clock::duration::zero());
  nodes_[id.value]->restart_factory = std::move(factory);
}

void TcpCluster::set_delivery_tap(
    std::function<void(const sim::Delivery&)> tap) {
  MODUBFT_EXPECTS(!ran_);
  tap_ = std::move(tap);
}

SimTime TcpCluster::since_epoch() const {
  if (epoch_ == Clock::time_point{}) return 0;
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
}

void TcpCluster::tap_delivery(const Envelope& env, ProcessId to) {
  if (!tap_) return;
  // Copy on the node thread, outside tap_mu_ — see Cluster::tap_delivery:
  // the audit path must not stretch the serialized section or touch a
  // buffer any other lock protects.
  const Bytes payload = env.payload;
  sim::Delivery d;
  d.send_time = env.arrived_at;
  d.deliver_time = since_epoch();
  d.from = env.from;
  d.to = to;
  d.size = payload.size();
  d.payload = &payload;
  std::lock_guard<std::mutex> lock(tap_mu_);
  tap_(d);
}

void TcpCluster::record_error(Node& node, std::string message) {
  std::lock_guard<std::mutex> lock(node.errors_mu);
  node.errors.push_back(std::move(message));
}

bool TcpCluster::send_frame(Node& node, ProcessId to, const Bytes& payload) {
  MODUBFT_EXPECTS(to.value < config_.n);
  if (node.crashed.load(std::memory_order_relaxed)) return false;
  msg_stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);
  msg_stats_.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
  if (to == node.id) {
    // Loopback delivery without a socket round trip keeps "send to Π"
    // semantics identical to the other substrates.
    node.mailbox.push(Envelope{node.id, payload, since_epoch()});
    return true;
  }
  ResilientChannel* channel = node.channels[to.value].get();
  if (channel == nullptr) return false;
  return channel->enqueue(payload);
}

void TcpCluster::broadcast_frame(Node& node, const Bytes& payload) {
  if (node.crashed.load(std::memory_order_relaxed)) return;
  msg_stats_.messages_sent.fetch_add(config_.n, std::memory_order_relaxed);
  msg_stats_.bytes_sent.fetch_add(payload.size() * config_.n,
                                  std::memory_order_relaxed);
  // One allocation for all n−1 wire copies: every channel's queue and
  // retransmit buffer alias the same immutable payload.
  const auto shared = std::make_shared<const Bytes>(payload);
  for (std::uint32_t j = 0; j < config_.n; ++j) {
    if (j == node.id.value) {
      node.mailbox.push(Envelope{node.id, payload, since_epoch()});
      continue;
    }
    if (ResilientChannel* channel = node.channels[j].get()) {
      channel->enqueue(shared);
    }
  }
}

void TcpCluster::io_main(Node& node) {
  // The node's whole receive side on one thread: the listen socket, the
  // teardown eventfd and every inbound connection share one level-triggered
  // epoll set.  All sockets are nonblocking — a stalled peer costs a
  // deadline sweep, never a blocked thread.
  const auto hello_timeout = config_.retry.handshake_timeout;

  auto arm = [&](Conn& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(node.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  auto close_conn = [&](Conn& conn) {
    if (conn.sender >= 0) {
      RecvLink& link = *node.recv_links[static_cast<std::size_t>(conn.sender)];
      std::lock_guard<std::mutex> lock(link.mu);
      if (link.current_fd == conn.fd) link.current_fd = -1;
    }
    ::epoll_ctl(node.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    node.conns.erase(conn.fd);  // destroys conn — caller must not touch it
  };

  // Attempts to hand `len` bytes to the socket; whatever the kernel
  // refuses is staged in pending_out and flushed on EPOLLOUT.  Only fatal
  // socket errors return false (the conn should then be closed).
  auto queue_out = [&](Conn& conn, const std::uint8_t* data,
                       std::size_t len) -> bool {
    if (conn.pending_out.size() == conn.pending_off) {
      conn.pending_out.clear();
      conn.pending_off = 0;
      while (len > 0) {
        const ssize_t put = ::send(conn.fd, data, len, MSG_NOSIGNAL);
        if (put > 0) {
          data += put;
          len -= static_cast<std::size_t>(put);
          continue;
        }
        if (put < 0 && errno == EINTR) continue;
        if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;
      }
    }
    if (len > 0) {
      conn.pending_out.insert(conn.pending_out.end(), data, data + len);
      if (!conn.want_write) {
        conn.want_write = true;
        arm(conn);
      }
    }
    return true;
  };

  auto flush_out = [&](Conn& conn) -> bool {
    while (conn.pending_off < conn.pending_out.size()) {
      const ssize_t put = ::send(conn.fd, conn.pending_out.data() +
                                              conn.pending_off,
                                 conn.pending_out.size() - conn.pending_off,
                                 MSG_NOSIGNAL);
      if (put > 0) {
        conn.pending_off += static_cast<std::size_t>(put);
        continue;
      }
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    conn.pending_out.clear();
    conn.pending_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      arm(conn);
    }
    return true;
  };

  auto send_ack = [&](Conn& conn, std::uint64_t next_expected) -> bool {
    std::uint8_t ack[kAckBytes];
    encode_u64(ack, next_expected);
    return queue_out(conn, ack, kAckBytes);
  };

  // Hello complete: identify the peer, supersede any older connection of
  // the same link, reply with the resume sequence number.  Returns false
  // when the conn must be closed (the accounting mirrors the former
  // blocking reader byte for byte).
  auto accept_hello = [&](Conn& conn) -> bool {
    const std::optional<std::uint32_t> sender = decode_hello(conn.prefix);
    if (!sender.has_value()) {
      node.malformed_hellos.fetch_add(1);
      record_error(node, "hello: bad magic from peer");
      return false;
    }
    if (*sender >= config_.n || *sender == node.id.value) {
      node.malformed_hellos.fetch_add(1);
      std::ostringstream os;
      os << "hello: sender id " << *sender << " out of range (n="
         << config_.n << ")";
      record_error(node, os.str());
      return false;
    }
    RecvLink& link = *node.recv_links[*sender];
    std::uint64_t resume = 0;
    int old_fd = -1;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      old_fd = link.current_fd;
      link.current_fd = conn.fd;
      link.since_ack = 0;
      resume = link.expected_seq;
    }
    if (old_fd >= 0) {
      // A newer connection supersedes the old one; its conn (owned by
      // this same loop) is simply closed, partial frame and all.
      auto it = node.conns.find(old_fd);
      if (it != node.conns.end()) close_conn(*it->second);
    }
    conn.sender = *sender;
    conn.phase = Conn::Phase::kHeader;
    conn.prefix_have = 0;
    conn.deadline.reset();
    return send_ack(conn, resume);
  };

  // One complete frame: CRC, duplicate suppression, gap detection,
  // in-order delivery into the mailbox — the same ladder as the former
  // reader thread.  Returns false when the connection must be torn down.
  auto accept_frame = [&](Conn& conn) -> bool {
    RecvLink& link = *node.recv_links[static_cast<std::size_t>(conn.sender)];
    const ProcessId from{static_cast<std::uint32_t>(conn.sender)};
    Bytes payload = std::move(conn.payload);
    conn.payload = Bytes{};
    conn.phase = Conn::Phase::kHeader;
    conn.prefix_have = 0;
    conn.payload_have = 0;
    conn.deadline.reset();

    std::uint64_t ack_value = 0;
    bool want_ack = false;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      if (!verify_frame_crc(conn.header, payload)) {
        // Wire corruption: tear the connection down; the sender still
        // holds the frame unacked and will retransmit it on resume.
        ++link.checksum_failures;
        return false;
      }
      if (conn.header.seq < link.expected_seq) {
        // Duplicate from a retransmit race: suppress, but re-ack so the
        // sender can trim its buffer.
        ++link.dup_suppressed;
        ack_value = link.expected_seq;
        want_ack = true;
      } else if (conn.header.seq > link.expected_seq) {
        // A gap cannot happen on a healthy resumed stream; force a resync.
        ++link.gap_resets;
        return false;
      } else {
        ++link.expected_seq;
        if (config_.audit_deliveries) link.audit.push_back(conn.header.seq);
        node.mailbox.push(Envelope{from, std::move(payload), since_epoch()});
        if (++link.since_ack >= config_.retry.ack_every) {
          link.since_ack = 0;
          ack_value = link.expected_seq;
          want_ack = true;
        }
      }
    }
    return !want_ack || send_ack(conn, ack_value);
  };

  // Reads until EAGAIN, stepping the per-conn state machine.  Returns
  // false when the conn died (EOF, error, protocol violation).
  auto handle_readable = [&](Conn& conn) -> bool {
    for (;;) {
      std::uint8_t* dst = nullptr;
      std::size_t want = 0;
      switch (conn.phase) {
        case Conn::Phase::kHello:
          dst = conn.prefix + conn.prefix_have;
          want = kHelloBytes - conn.prefix_have;
          break;
        case Conn::Phase::kHeader:
          dst = conn.prefix + conn.prefix_have;
          want = kFrameHeaderBytes - conn.prefix_have;
          break;
        case Conn::Phase::kPayload:
          dst = conn.payload.data() + conn.payload_have;
          want = conn.payload.size() - conn.payload_have;
          break;
      }
      const ssize_t got = ::recv(conn.fd, dst, want, 0);
      if (got == 0) return false;  // EOF
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      const std::size_t n = static_cast<std::size_t>(got);
      switch (conn.phase) {
        case Conn::Phase::kHello:
          conn.prefix_have += n;
          if (conn.prefix_have == kHelloBytes && !accept_hello(conn)) {
            return false;
          }
          break;
        case Conn::Phase::kHeader:
          conn.prefix_have += n;
          if (conn.prefix_have < kFrameHeaderBytes) break;
          conn.header = decode_frame_header(conn.prefix);
          if (conn.header.len > config_.max_frame_bytes) {
            std::ostringstream os;
            os << "frame from p" << conn.sender << ": length "
               << conn.header.len << " exceeds max_frame_bytes="
               << config_.max_frame_bytes;
            record_error(node, os.str());
            return false;
          }
          if (conn.header.len == 0) {
            conn.payload.clear();
            if (!accept_frame(conn)) return false;
            break;
          }
          conn.payload.assign(conn.header.len, 0);
          conn.payload_have = 0;
          conn.phase = Conn::Phase::kPayload;
          // A frame, once its header arrived, must complete promptly: a
          // corrupted length prefix desyncs the stream, and the half-frame
          // would otherwise linger forever.
          conn.deadline = Clock::now() + hello_timeout;
          break;
        case Conn::Phase::kPayload:
          conn.payload_have += n;
          if (conn.payload_have == conn.payload.size() &&
              !accept_frame(conn)) {
            return false;
          }
          break;
      }
    }
  };

  auto handle_accept = [&] {
    for (;;) {
      int fd = ::accept(node.listen_fd, nullptr, nullptr);
      if (fd < 0) {
        // A signal landing mid-sweep must not abandon the rest of the
        // backlog until the next epoll tick; only a genuinely drained
        // queue (or a shut-down listen socket) ends the sweep.
        if (errno == EINTR) continue;
        return;  // EAGAIN/EWOULDBLOCK, or listen socket shut down
      }
      if (shutting_down_.load()) {
        ::close(fd);
        return;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      set_nonblocking(fd);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      // Until the sender is identified this fd is accountable to nobody,
      // so a silent dialer must not be able to pin it forever.
      conn->deadline = Clock::now() + hello_timeout;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(node.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      node.conns.emplace(fd, std::move(conn));
    }
  };

  epoll_event events[64];
  while (!shutting_down_.load()) {
    // The nearest conn deadline bounds the wait (capped so shutdown is
    // never far away even with no deadlines armed).
    int timeout_ms = 50;
    const Clock::time_point now = Clock::now();
    for (const auto& [fd, conn] : node.conns) {
      if (!conn->deadline.has_value()) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *conn->deadline - now);
      timeout_ms = std::max(0, std::min<int>(timeout_ms,
                                             static_cast<int>(left.count())));
    }
    const int ready = ::epoll_wait(node.epoll_fd, events, 64, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == node.wake_fd) {
        std::uint64_t drained = 0;
        // Retry on EINTR: an unconsumed eventfd counter would re-fire the
        // wakeup on every subsequent epoll_wait.
        while (::read(node.wake_fd, &drained, sizeof drained) < 0 &&
               errno == EINTR) {
        }
        continue;  // the while condition re-checks shutting_down_
      }
      if (fd == node.listen_fd) {
        handle_accept();
        continue;
      }
      auto it = node.conns.find(fd);
      if (it == node.conns.end()) continue;  // closed earlier in this batch
      Conn& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !flush_out(conn)) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && !handle_readable(conn)) {
        close_conn(conn);
        continue;
      }
    }
    // Deadline sweep: hello never arrived, or a half-frame stalled.
    const Clock::time_point after = Clock::now();
    for (auto it = node.conns.begin(); it != node.conns.end();) {
      Conn& conn = *it->second;
      ++it;  // close_conn erases — advance first
      if (conn.deadline.has_value() && after >= *conn.deadline) {
        close_conn(conn);
      }
    }
  }

  // Loop exit: drop every remaining connection (listen/epoll/wake fds are
  // closed by teardown, which owns their lifecycle).
  for (auto it = node.conns.begin(); it != node.conns.end();) {
    Conn& conn = *it->second;
    ++it;
    close_conn(conn);
  }
}

void TcpCluster::node_main(Node& node) {
  NodeContext ctx(*this, node);
  for (;;) {
    node.actor->on_start(ctx);
    node_pump(node, ctx);
    if (!node.crashed.load() || !node.restart_at.has_value() ||
        node.stop_requested.load()) {
      break;
    }
    // Dormancy: the node is dead until the restart instant.  Frames that
    // arrive meanwhile are discarded (a crashed process receives nothing),
    // in bounded slices so teardown can always interrupt the wait.
    bool aborted = false;
    for (;;) {
      if (node.stop_requested.load()) {
        aborted = true;
        break;
      }
      const Clock::time_point now = Clock::now();
      if (now >= *node.restart_at) break;
      Clock::time_point deadline = now + std::chrono::milliseconds(20);
      if (*node.restart_at < deadline) deadline = *node.restart_at;
      node.mailbox.pop_until(deadline);
    }
    if (aborted) break;
    // Rebirth: fresh actor, empty timer set, sends re-enabled.  The rng
    // stream continues where the former life left it.
    node.actor = node.restart_factory();
    node.timers.clear();
    node.cancelled.clear();
    node.crash_at.reset();
    node.restart_at.reset();
    node.restart_factory = nullptr;
    node.crashed.store(false);
  }
  node.stopped.store(true);
}

void TcpCluster::node_pump(Node& node, NodeContext& ctx) {
  while (!node.stop_requested.load()) {
    if (node.crash_at.has_value() && Clock::now() >= *node.crash_at) {
      node.crashed.store(true);
      break;  // silent halt: no more receives, no more sends
    }

    Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(20);
    const TimerEntry* earliest = nullptr;
    for (const TimerEntry& t : node.timers) {
      if (node.cancelled.count(t.id)) continue;
      if (earliest == nullptr || t.due < earliest->due) earliest = &t;
    }
    if (earliest != nullptr && earliest->due < deadline) {
      deadline = earliest->due;
    }
    if (node.crash_at.has_value() && *node.crash_at < deadline) {
      deadline = *node.crash_at;
    }

    std::vector<Envelope> drained = node.mailbox.drain_until(
        deadline, std::max<std::size_t>(1, config_.max_batch));
    if (node.stop_requested.load()) break;
    if (node.crash_at.has_value() && Clock::now() >= *node.crash_at) {
      node.crashed.store(true);
      break;
    }

    if (!drained.empty()) {
      // Taps and counters fire per delivery, in delivery order, before
      // the batch dispatch (the ordering-ticket contract of
      // sim::Actor::on_batch).
      std::vector<sim::Incoming> batch;
      batch.reserve(drained.size());
      for (Envelope& env : drained) {
        tap_delivery(env, node.id);
        msg_stats_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
        msg_stats_.events_executed.fetch_add(1, std::memory_order_relaxed);
        batch.push_back(sim::Incoming{env.from, std::move(env.payload)});
      }
      msg_stats_.batches.record(batch.size());
      node.actor->on_batch(ctx, batch);
      continue;
    }

    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> due;
    node.timers.erase(
        std::remove_if(node.timers.begin(), node.timers.end(),
                       [&](const TimerEntry& t) {
                         if (node.cancelled.count(t.id)) {
                           node.cancelled.erase(t.id);
                           return true;
                         }
                         if (t.due <= now) {
                           due.push_back(t.id);
                           return true;
                         }
                         return false;
                       }),
        node.timers.end());
    for (std::uint64_t id : due) {
      if (node.stop_requested.load()) break;
      msg_stats_.events_executed.fetch_add(1, std::memory_order_relaxed);
      node.actor->on_timer(ctx, id);
    }
    if (node.mailbox.closed() && node.timers.empty()) break;
  }
}

bool TcpCluster::run() {
  MODUBFT_EXPECTS(!ran_);
  ran_ = true;
  for (auto& node : nodes_) MODUBFT_EXPECTS(node->actor != nullptr);

  // 1. Listen sockets for everyone (ephemeral loopback ports) before any
  //    dial can happen, so reconnects never race the mesh setup.
  for (auto& node : nodes_) {
    node->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MODUBFT_ASSERT(node->listen_fd >= 0);
    int one = 1;
    ::setsockopt(node->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    MODUBFT_ASSERT(::bind(node->listen_fd,
                          reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0);
    socklen_t len = sizeof addr;
    ::getsockname(node->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    node->port.store(ntohs(addr.sin_port));
    // Backlog 2n: every peer may redial while an old connection lingers.
    MODUBFT_ASSERT(::listen(node->listen_fd,
                            static_cast<int>(2 * config_.n)) == 0);
  }

  // 2. Receive event loops (they run for the whole cluster lifetime:
  //    reconnecting links arrive as fresh inbound connections at any
  //    point).  One epoll set per node watches the listen socket, a
  //    teardown eventfd and every accepted connection.
  for (auto& node : nodes_) {
    set_nonblocking(node->listen_fd);
    node->epoll_fd = ::epoll_create1(0);
    MODUBFT_ASSERT(node->epoll_fd >= 0);
    node->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    MODUBFT_ASSERT(node->wake_fd >= 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = node->listen_fd;
    MODUBFT_ASSERT(::epoll_ctl(node->epoll_fd, EPOLL_CTL_ADD, node->listen_fd,
                               &ev) == 0);
    ev.data.fd = node->wake_fd;
    MODUBFT_ASSERT(::epoll_ctl(node->epoll_fd, EPOLL_CTL_ADD, node->wake_fd,
                               &ev) == 0);
    node->io_thread = std::thread([this, &node = *node] { io_main(node); });
  }

  // 3. Resilient channels for the full mesh; they dial lazily on first
  //    send and redial on any failure.
  for (auto& node : nodes_) {
    for (std::uint32_t j = 0; j < config_.n; ++j) {
      if (j == node->id.value) continue;
      const std::uint16_t peer_port = nodes_[j]->port.load();
      auto dial = [peer_port]() -> int {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(peer_port);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) != 0) {
          ::close(fd);
          return -1;
        }
        return fd;
      };
      const std::uint64_t label =
          (static_cast<std::uint64_t>(node->id.value) << 32) | (j + 1);
      Rng jitter_root(config_.seed ^ kJitterSalt);
      node->channels[j] = std::make_unique<ResilientChannel>(
          node->id, ProcessId{j}, std::move(dial), config_.retry,
          jitter_root.split(label),
          config_.faults.make_injector(node->id, ProcessId{j}));
      node->channels[j]->start();
    }
  }

  // 4. Run the actors.
  epoch_ = Clock::now();
  // Rebase crash deadlines onto the epoch.
  for (auto& node : nodes_) {
    if (node->crash_at.has_value()) {
      node->crash_at = epoch_ + node->crash_at->time_since_epoch();
    }
    if (node->restart_at.has_value()) {
      node->restart_at = epoch_ + node->restart_at->time_since_epoch();
    }
  }
  threads_.reserve(config_.n);
  for (auto& node : nodes_) {
    threads_.emplace_back([this, &node = *node] { node_main(node); });
  }

  const Clock::time_point deadline = epoch_ + config_.budget;
  bool all_stopped = false;
  while (Clock::now() < deadline) {
    all_stopped = true;
    for (auto& node : nodes_) {
      if (!node->stopped.load()) {
        all_stopped = false;
        break;
      }
    }
    if (all_stopped) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Snapshot the stragglers before teardown forces everyone to stop, so
  // a budget expiry is diagnosable after run() returns.
  for (auto& node : nodes_) {
    if (!node->stopped.load()) unstopped_.push_back(node->id);
  }

  teardown();

  if (!all_stopped) {
    std::ostringstream os;
    os << "TcpCluster: budget expired with unstopped nodes:";
    for (ProcessId id : unstopped_) os << ' ' << id;
    log_warn(os.str());
  }
  return all_stopped;
}

void TcpCluster::teardown() {
  if (torn_down_) return;
  torn_down_ = true;
  shutting_down_.store(true);

  // 1. Stop the actors.
  for (auto& node : nodes_) {
    node->stop_requested.store(true);
    node->mailbox.close();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();

  // 2. Stop the send side while receivers still drain, so no channel can
  //    block on a full socket buffer.
  for (auto& node : nodes_) {
    for (auto& channel : node->channels) {
      if (channel) channel->shutdown();
    }
  }
  for (auto& node : nodes_) {
    for (auto& channel : node->channels) {
      if (channel) channel->join();
    }
  }

  // 3. Stop the receive event loops: poke each eventfd (shutting_down_ is
  //    already set, so the loop exits and closes its connections), join,
  //    then release the loop's fds.
  for (auto& node : nodes_) {
    if (node->wake_fd >= 0) {
      const std::uint64_t one = 1;
      (void)::write(node->wake_fd, &one, sizeof one);
    }
  }
  for (auto& node : nodes_) {
    if (node->io_thread.joinable()) node->io_thread.join();
    close_fd(node->listen_fd);
    close_fd(node->wake_fd);
    close_fd(node->epoll_fd);
  }
}

bool TcpCluster::stopped(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  return nodes_[id.value]->stopped.load();
}

std::vector<ProcessId> TcpCluster::unstopped() const { return unstopped_; }

std::uint16_t TcpCluster::port(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  return nodes_[id.value]->port.load();
}

std::vector<std::string> TcpCluster::errors(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  Node& node = *nodes_[id.value];
  std::lock_guard<std::mutex> lock(node.errors_mu);
  return node.errors;
}

std::uint64_t TcpCluster::frames_sent() const {
  std::uint64_t total = 0;
  for (auto& node : nodes_) {
    for (auto& channel : node->channels) {
      if (channel) total += channel->stats().frames_sent;
    }
  }
  return total;
}

std::uint64_t TcpCluster::bytes_sent() const {
  std::uint64_t total = 0;
  for (auto& node : nodes_) {
    for (auto& channel : node->channels) {
      if (channel) total += channel->stats().bytes_sent;
    }
  }
  return total;
}

sim::Stats TcpCluster::stats() const {
  sim::Stats s;
  s.messages_sent = msg_stats_.messages_sent.load();
  s.messages_delivered = msg_stats_.messages_delivered.load();
  s.bytes_sent = msg_stats_.bytes_sent.load();
  s.events_executed = msg_stats_.events_executed.load();
  return s;
}

TcpLinkStats TcpCluster::link_stats() const {
  TcpLinkStats agg;
  for (auto& node : nodes_) {
    for (auto& channel : node->channels) {
      if (!channel) continue;
      const ChannelStats s = channel->stats();
      agg.reconnects += s.reconnects;
      agg.retransmits += s.retransmits;
      agg.dial_failures += s.dial_failures;
      agg.frames_dropped += s.frames_dropped;
      agg.kills_injected += s.kills_injected;
      agg.truncates_injected += s.truncates_injected;
      agg.flips_injected += s.flips_injected;
      agg.delays_injected += s.delays_injected;
      agg.degraded_links += s.degraded ? 1 : 0;
    }
    for (auto& link : node->recv_links) {
      std::lock_guard<std::mutex> lock(link->mu);
      agg.checksum_failures += link->checksum_failures;
      agg.dup_suppressed += link->dup_suppressed;
      agg.gap_resets += link->gap_resets;
    }
    agg.malformed_hellos += node->malformed_hellos.load();
  }
  return agg;
}

ChannelStats TcpCluster::channel_stats(ProcessId from, ProcessId to) const {
  MODUBFT_EXPECTS(from.value < config_.n && to.value < config_.n);
  MODUBFT_EXPECTS(from != to);
  const auto& channel = nodes_[from.value]->channels[to.value];
  return channel ? channel->stats() : ChannelStats{};
}

std::vector<std::uint64_t> TcpCluster::delivered_seqs(ProcessId from,
                                                      ProcessId to) const {
  MODUBFT_EXPECTS(from.value < config_.n && to.value < config_.n);
  MODUBFT_EXPECTS(from != to);
  RecvLink& link = *nodes_[to.value]->recv_links[from.value];
  std::lock_guard<std::mutex> lock(link.mu);
  return link.audit;
}

}  // namespace modubft::transport
