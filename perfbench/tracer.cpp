#include "tracer.hpp"

#include <time.h>

#include <algorithm>
#include <functional>
#include <string_view>

#include "bft/message.hpp"
#include "common/serial.hpp"
#include "smr/checkpoint.hpp"

namespace perfbench {

namespace {

using modubft::Reader;
using modubft::SerialError;
namespace smr = modubft::smr;

constexpr std::size_t kOther = kClasses - 1;
constexpr std::size_t kDecideClass = 3;  // BftKind::kDecide - 1
constexpr std::size_t kNextClass = 2;    // BftKind::kNext - 1

std::size_t control_class(smr::ControlKind kind) {
  return kBftClasses + static_cast<std::size_t>(kind) - 1;
}

/// Identifies a frame on its link: size, slot tag and the trailing bytes,
/// which hold the sender's signature (or the client's, or the id list) —
/// enough to tell apart the few frames queued on one FIFO link without
/// hashing whole certificates.
std::uint64_t frame_hash(const Bytes& payload) {
  const std::size_t head = std::min<std::size_t>(payload.size(), 16);
  const std::size_t tail = std::min<std::size_t>(payload.size() - head, 32);
  std::string_view key(reinterpret_cast<const char*>(payload.data()), head);
  const std::uint64_t h1 = std::hash<std::string_view>{}(key);
  const std::uint64_t h2 = std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(payload.data() + payload.size() - tail),
      tail));
  return h1 ^ (h2 * 0x9e3779b97f4a7c15ull) ^ payload.size();
}

/// The calling thread's CPU time (ns).  Replica threads share four cores
/// with the pool and transport threads, so wall time inside a dispatch
/// would also count time spent preempted.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Context handed to the replica: forwards everything, records every
/// outgoing frame in the tap, and keeps tap time and transport time apart
/// so the caller can subtract both from the replica's self time.
class TapContext final : public modubft::sim::ForwardingContext {
 public:
  TapContext(modubft::sim::Context& base, Tracer& tracer)
      : ForwardingContext(base), tracer_(tracer) {}

  void send(ProcessId to, Bytes payload) override {
    const std::uint64_t t0 = thread_cpu_ns();
    tracer_.on_send(id(), to, false, payload, now());
    const std::uint64_t t1 = thread_cpu_ns();
    base_.send(to, std::move(payload));
    tap_ns += t1 - t0;
    send_ns += thread_cpu_ns() - t1;
  }

  void broadcast(const Bytes& payload) override {
    const std::uint64_t t0 = thread_cpu_ns();
    tracer_.on_send(id(), id(), true, payload, now());
    const std::uint64_t t1 = thread_cpu_ns();
    base_.broadcast(payload);
    tap_ns += t1 - t0;
    send_ns += thread_cpu_ns() - t1;
  }

  std::uint64_t tap_ns = 0;
  std::uint64_t send_ns = 0;

 private:
  Tracer& tracer_;
};

class TracedActor final : public modubft::sim::Actor {
 public:
  TracedActor(ProcessId id, std::unique_ptr<modubft::sim::Actor> inner,
              Tracer& tracer)
      : id_(id), inner_(std::move(inner)), tracer_(tracer) {}

  void on_start(modubft::sim::Context& ctx) override {
    TapContext tc(ctx, tracer_);
    const std::uint64_t t0 = thread_cpu_ns();
    inner_->on_start(tc);
    account(t0, tc);
  }

  void on_message(modubft::sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    tracer_.on_deliver(id_, from, payload, ctx.now());
    TapContext tc(ctx, tracer_);
    const std::uint64_t t0 = thread_cpu_ns();
    inner_->on_message(tc, from, payload);
    account(t0, tc);
  }

  void on_batch(modubft::sim::Context& ctx,
                std::vector<modubft::sim::Incoming>& batch) override {
    const SimTime now = ctx.now();
    for (const modubft::sim::Incoming& m : batch) {
      tracer_.on_deliver(id_, m.from, m.payload, now);
    }
    TapContext tc(ctx, tracer_);
    const std::uint64_t t0 = thread_cpu_ns();
    inner_->on_batch(tc, batch);
    account(t0, tc);
  }

  void on_timer(modubft::sim::Context& ctx, std::uint64_t timer_id) override {
    TapContext tc(ctx, tracer_);
    const std::uint64_t t0 = thread_cpu_ns();
    inner_->on_timer(tc, timer_id);
    account(t0, tc);
  }

 private:
  void account(std::uint64_t t0, const TapContext& tc) {
    const std::uint64_t total = thread_cpu_ns() - t0;
    const std::uint64_t outside = tc.tap_ns + tc.send_ns;
    const std::uint64_t self = total > outside ? total - outside : 0;
    Shard& s = tracer_.shard(id_);
    ++s.calls;
    s.busy_ns += self;
    s.send_ns += tc.send_ns;
    s.dispatch_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(self, UINT32_MAX)));
  }

  ProcessId id_;
  std::unique_ptr<modubft::sim::Actor> inner_;
  Tracer& tracer_;
};

template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::size_t classify(const Bytes& payload, std::uint32_t* members) {
  try {
    Reader r(payload);
    const std::uint64_t slot = r.u64();
    if (slot == smr::kControlSlot) {
      const std::uint8_t kind = r.u8();
      if (kind < 1 || kind > kControlClasses) return kOther;
      return kBftClasses + kind - 1;
    }
    // Consensus frame: SignedMessage = bytes(core) ‖ cert ‖ bytes(sig),
    // core starting with the BftKind octet, cert with the pruned flag and
    // (inline) its member count.
    Reader core = r.nested();
    const std::uint8_t kind = core.u8();
    if (kind < 1 || kind > kBftClasses) return kOther;
    if (members != nullptr) *members = r.boolean() ? 0 : r.u32();
    return kind - 1;
  } catch (const SerialError&) {
    return kOther;
  }
}

Tracer::Tracer(std::uint32_t n, std::uint32_t clients,
               std::optional<SimTime> kill_at,
               std::size_t sample_cap)
    : n_(n),
      clients_(clients),
      kill_at_(kill_at),
      sample_cap_(std::max<std::size_t>(2, sample_cap / n)),
      shards_(n),
      links_(new Link[static_cast<std::size_t>(n) * n]) {}

std::unique_ptr<modubft::sim::Actor> Tracer::wrap(
    ProcessId id, std::unique_ptr<modubft::sim::Actor> inner) {
  return std::make_unique<TracedActor>(id, std::move(inner), *this);
}

void Tracer::on_send(ProcessId from, ProcessId to, bool broadcast,
                     const Bytes& payload, SimTime now) {
  Shard& s = shards_[from.value];
  const std::uint64_t h = frame_hash(payload);
  auto record = [&](std::uint32_t dst) {
    Link& l = link(from.value, dst);
    std::lock_guard<std::mutex> lock(l.mu);
    l.sent.emplace_back(h, now);
  };
  if (broadcast) {
    for (std::uint32_t dst = 0; dst < n_; ++dst) record(dst);
    s.to_client_frames += clients_;
  } else if (to.value < n_) {
    record(to.value);
  } else {
    ++s.to_client_frames;
  }
  const std::size_t cls = classify(payload, nullptr);
  if (cls == kDecideClass) {
    s.decide_out.emplace(Reader(payload).u64(), now);
    return;
  }
  try {
    if (cls == control_class(smr::ControlKind::kCmdRelay)) {
      Reader r(payload.data() + 9, payload.size() - 9);
      const smr::CmdRelay relay = smr::decode_cmd_relay(r);
      s.relay_out.emplace(smr::make_client_cmd_id(relay.client, relay.seq),
                          now);
    } else if (cls == control_class(smr::ControlKind::kReply)) {
      Reader r(payload.data() + 9, payload.size() - 9);
      s.reply_out.emplace(smr::decode_client_reply(r).cmd_id, now);
    }
  } catch (const SerialError&) {
  }
}

void Tracer::on_deliver(ProcessId to, ProcessId from, const Bytes& payload,
                        SimTime now) {
  Shard& s = shards_[to.value];
  std::uint32_t members = 0;
  const std::size_t cls = classify(payload, &members);
  ++s.frames[cls];
  s.bytes[cls] += payload.size();

  if (from.value < n_) {
    Link& l = link(from.value, to.value);
    const std::uint64_t h = frame_hash(payload);
    std::lock_guard<std::mutex> lock(l.mu);
    // Links are FIFO; entries before the match were lost to a crash.
    while (!l.sent.empty()) {
      const auto [sent_hash, sent_at] = l.sent.front();
      l.sent.pop_front();
      if (sent_hash == h) {
        s.dwell_us.push_back(now - sent_at);
        break;
      }
    }
  }

  if (cls < kBftClasses) {
    ++s.bft_frames;
    s.cert_members += members;
    if (cls == kNextClass && kill_at_ && now >= *kill_at_ &&
        !s.first_next_after_kill) {
      s.first_next_after_kill = now;
    }
    // Uniform, deterministic sample: keep every `stride`-th frame and
    // halve the sample (doubling the stride) whenever it fills.
    if (s.bft_frames % s.sample_stride == 0) {
      s.sample.emplace_back(payload.begin() + 8, payload.end());
      if (s.sample.size() >= sample_cap_) {
        std::vector<Bytes> kept;
        for (std::size_t i = 1; i < s.sample.size(); i += 2) {
          kept.push_back(std::move(s.sample[i]));
        }
        s.sample = std::move(kept);
        s.sample_stride *= 2;
      }
    }
    return;
  }

  try {
    if (cls == control_class(smr::ControlKind::kRequest)) {
      Reader r(payload.data() + 9, payload.size() - 9);
      const smr::ClientRequest req = smr::decode_client_request(r);
      s.request_in.emplace(smr::make_client_cmd_id(from.value, req.seq), now);
    }
  } catch (const SerialError&) {
  }
}

std::vector<Span> Tracer::spans(
    const modubft::faults::SmrScenarioResult& result, std::uint32_t f) const {
  std::vector<Span> out;
  for (const auto& [cmd, entry] : result.commit_log) {
    if (smr::client_of_cmd(cmd) < n_) continue;  // not a client command
    auto first = [&](auto member,
                     std::uint64_t key) -> std::optional<SimTime> {
      std::optional<SimTime> best;
      for (const Shard& s : shards_) {
        const auto& m = s.*member;
        auto it = m.find(key);
        if (it != m.end() && (!best || it->second < *best)) best = it->second;
      }
      return best;
    };
    const std::optional<SimTime> first_request = first(&Shard::request_in, cmd);
    const std::optional<SimTime> first_relay = first(&Shard::relay_out, cmd);
    const std::optional<SimTime> first_decide =
        first(&Shard::decide_out, entry.first);
    std::vector<SimTime> replies;
    for (const Shard& s : shards_) {
      auto it = s.reply_out.find(cmd);
      if (it != s.reply_out.end()) replies.push_back(it->second);
    }
    if (!first_request || !first_relay || !first_decide ||
        replies.size() <= f) {
      continue;
    }
    const SimTime start = *first_request, relay = *first_relay;
    std::sort(replies.begin(), replies.end());
    // A replica replies only after it committed, so its first REPLY also
    // bounds the decision from above (staged egress can flush the DECIDE
    // broadcast after replies sent in the same dispatch).
    const SimTime decide = std::min(*first_decide, replies.front());
    const SimTime end = std::max(start, replies[f]);
    // Stage boundaries are clamped into [start, end] so the three stages
    // tile the op span exactly; trace.ops_tiled_ratio counts the ops that
    // needed no clamping.
    const SimTime b1 = std::clamp(relay, start, end);
    const SimTime b2 = std::clamp(decide, b1, end);
    const bool clamped =
        !(start <= relay && relay <= decide && decide <= replies[f]);
    out.push_back({cmd, "op", "", start, end, clamped});
    out.push_back({cmd, "admit", "op", start, b1, false});
    out.push_back({cmd, "order", "op", b1, b2, false});
    out.push_back({cmd, "reply", "op", b2, end, false});
  }
  return out;
}

std::vector<Bytes> Tracer::sample() const {
  std::vector<Bytes> out;
  for (const Shard& s : shards_) {
    out.insert(out.end(), s.sample.begin(), s.sample.end());
  }
  return out;
}

std::uint64_t Tracer::bft_frames() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.bft_frames;
  return total;
}

std::uint64_t Tracer::bft_bytes() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    for (std::size_t c = 0; c < kBftClasses; ++c) total += s.bytes[c];
  }
  return total;
}

std::map<std::string, double> Tracer::layer_metrics(
    const modubft::faults::SmrScenarioResult& result,
    const std::vector<Span>& spans, std::uint64_t ops) const {
  const modubft::runtime::RunStats& rs = result.run_stats;
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  std::map<std::string, double> m;

  std::uint64_t calls = 0, busy_ns = 0, send_ns = 0, to_client = 0;
  std::uint64_t cert_members = 0, bft = 0;
  std::array<std::uint64_t, kClasses> frames{}, bytes{};
  std::vector<std::uint32_t> dispatch;
  std::vector<SimTime> dwell;
  std::optional<SimTime> first_next;
  for (const Shard& s : shards_) {
    calls += s.calls;
    busy_ns += s.busy_ns;
    send_ns += s.send_ns;
    to_client += s.to_client_frames;
    cert_members += s.cert_members;
    bft += s.bft_frames;
    for (std::size_t c = 0; c < kClasses; ++c) {
      frames[c] += s.frames[c];
      bytes[c] += s.bytes[c];
    }
    dispatch.insert(dispatch.end(), s.dispatch_ns.begin(), s.dispatch_ns.end());
    dwell.insert(dwell.end(), s.dwell_us.begin(), s.dwell_us.end());
    if (s.first_next_after_kill &&
        (!first_next || *s.first_next_after_kill < *first_next)) {
      first_next = s.first_next_after_kill;
    }
  }
  auto cls_frames = [&](smr::ControlKind k) {
    return static_cast<double>(frames[control_class(k)]);
  };

  // smr: the replica's own work, from the decorator.
  m["smr.busy_us_per_op"] = static_cast<double>(busy_ns) / 1e3 * per;
  m["smr.dispatch_us_p50"] = percentile(dispatch, 0.50) / 1e3;
  m["smr.dispatch_us_p99"] = percentile(dispatch, 0.99) / 1e3;
  m["smr.calls_per_op"] = static_cast<double>(calls) * per;
  const modubft::runtime::PipelineSummary& pipe = rs.pipeline;
  m["smr.slots_per_op"] = static_cast<double>(pipe.slots_committed) * per;
  m["smr.noop_slot_ratio"] = ratio(static_cast<double>(pipe.noop_slots),
                                   static_cast<double>(pipe.slots_committed));
  m["smr.avg_window"] = pipe.avg_window;
  m["smr.stale_dropped_per_op"] = static_cast<double>(pipe.stale_dropped) * per;
  m["smr.future_buffered_per_op"] =
      static_cast<double>(pipe.future_buffered) * per;
  m["smr.relays_per_op"] = cls_frames(smr::ControlKind::kCmdRelay) * per;
  m["smr.fetches_per_op"] = cls_frames(smr::ControlKind::kCmdFetch) * per;
  m["smr.queue_peak"] = static_cast<double>(rs.client.queue_peak);
  m["smr.log_peak"] = static_cast<double>(pipe.log_peak);

  // smr lifecycle stages.
  std::vector<SimTime> admit, order, reply;
  std::uint64_t ops_traced = 0, ops_clamped = 0;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "op") {
      ++ops_traced;
      if (s.clamped) ++ops_clamped;
    }
    if (name == "admit") admit.push_back(s.end - s.start);
    if (name == "order") order.push_back(s.end - s.start);
    if (name == "reply") reply.push_back(s.end - s.start);
  }
  m["smr.admit_us_p50"] = percentile(admit, 0.50);
  m["smr.order_us_p50"] = percentile(order, 0.50);
  m["smr.order_us_p99"] = percentile(order, 0.99);
  m["smr.reply_us_p50"] = percentile(reply, 0.50);
  m["trace.ops_traced_ratio"] = static_cast<double>(ops_traced) * per;
  m["trace.ops_tiled_ratio"] =
      ratio(static_cast<double>(ops_traced - ops_clamped),
            static_cast<double>(ops_traced));

  // smr ingest.
  m["ingest.avg_batch"] = rs.ingest.avg_batch();
  m["ingest.prologue_jobs_per_op"] =
      static_cast<double>(rs.ingest.prologue_jobs) * per;

  // bft: consensus frames delivered to replicas, by kind.
  m["bft.init_per_op"] = static_cast<double>(frames[0]) * per;
  m["bft.current_per_op"] = static_cast<double>(frames[1]) * per;
  m["bft.next_per_op"] = static_cast<double>(frames[2]) * per;
  m["bft.decide_per_op"] = static_cast<double>(frames[3]) * per;
  m["bft.bytes_per_op"] =
      static_cast<double>(bytes[0] + bytes[1] + bytes[2] + bytes[3]) * per;
  m["bft.cert_members_avg"] =
      ratio(static_cast<double>(cert_members), static_cast<double>(bft));

  // crypto, from the run's own counters.
  const modubft::runtime::VerifySummary& v = rs.verify;
  m["crypto.cache_hit_rate"] = v.cache_hit_rate();
  m["crypto.verify_misses_per_op"] = static_cast<double>(v.cache_misses) * per;
  m["crypto.pool_jobs_per_op"] = static_cast<double>(v.pool_jobs) * per;
  m["crypto.pool_dispatched_ratio"] =
      ratio(static_cast<double>(v.pool_dispatched),
            static_cast<double>(v.pool_jobs));

  // transport.
  m["transport.send_us_per_op"] = static_cast<double>(send_ns) / 1e3 * per;
  m["transport.dwell_us_p50"] = percentile(dwell, 0.50);
  m["transport.dwell_us_p99"] = percentile(dwell, 0.99);
  m["transport.to_client_msgs_per_op"] = static_cast<double>(to_client) * per;
  m["tcp.wire_bytes_per_op"] = static_cast<double>(rs.wire_bytes) * per;
  m["tcp.retransmits"] = static_cast<double>(rs.link.retransmits);
  m["tcp.reconnects"] = static_cast<double>(rs.link.reconnects);

  // client.
  const modubft::runtime::ClientSummary& c = rs.client;
  m["client.retries_per_op"] = static_cast<double>(c.retries) * per;
  m["client.failovers"] = static_cast<double>(c.failovers);
  m["client.busy_per_op"] = static_cast<double>(c.busy) * per;
  m["client.reply_waste"] = ratio(static_cast<double>(c.duplicate_replies),
                                  static_cast<double>(c.replies));

  // fd and recovery.
  m["fd.suspect_ms"] =
      (kill_at_ && first_next)
          ? static_cast<double>(*first_next - *kill_at_) / 1e3
          : 0.0;
  m["recovery.state_resps"] = static_cast<double>(pipe.state_resps);
  m["recovery.state_bytes"] = static_cast<double>(
      bytes[control_class(smr::ControlKind::kStateResp)]);
  m["recovery.rejoin_ms"] = static_cast<double>(pipe.recovery_us) / 1e3;
  return m;
}

}  // namespace perfbench
