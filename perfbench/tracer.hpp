// Traced-run instrumentation for the client-path benchmark.
//
// Everything here sits OUTSIDE the program: it is installed through the
// public SmrScenarioConfig::wrap_actor hook and reads only public frame
// formats, so the traced run exercises the same replica code as the
// untraced one.  Three sources feed the per-layer numbers:
//
//   * TracedActor — a decorator around every replica life.  It times each
//     call into smr::Replica::on_message / on_batch / on_timer in thread
//     CPU time, and through a sim::ForwardingContext the calls the replica
//     makes into send / broadcast, so replica self time excludes transport
//     time.  Work the replica hands to verify-pool workers runs on their
//     threads and is not in its self time (crypto.pool_* counts it).
//   * the tap — run_smr_scenario exposes no delivery tap for SMR runs, so
//     the decorator's receive side is the tap: every frame delivered to a
//     replica is classified by slot tag, control kind and bft::BftKind,
//     and matched against the send-side record of the same link to give
//     its send→deliver dwell.  Frames delivered to clients are not seen
//     (clients are not wrapped); frames sent to them are.
//   * lifecycle events keyed by client command id (smr::make_client_cmd_id):
//     first REQUEST delivered, first CMD_RELAY sent, first DECIDE sent (the
//     first decision) for the slot that committed the command, and every
//     replica's first REPLY.
//     Times are Context::now() — virtual µs on sim, wall µs since the
//     cluster epoch on threads/TCP — so they are comparable across nodes.
//
// Each replica writes only its own shard (its node thread owns it); the
// per-link dwell queues are the only cross-thread state and carry a mutex.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "faults/scenario.hpp"
#include "sim/actor.hpp"

namespace perfbench {

using modubft::Bytes;
using modubft::ProcessId;
using modubft::SimTime;

/// Frame classes the tap distinguishes: the four bft::BftKind values, the
/// ten smr::ControlKind values on the reserved slot tag, and anything else.
inline constexpr std::size_t kBftClasses = 4;
inline constexpr std::size_t kControlClasses = 10;
inline constexpr std::size_t kClasses = kBftClasses + kControlClasses + 1;

/// Classifies one slot-enveloped replica frame.  Returns the class index;
/// for consensus frames `members` receives the top-level certificate size.
std::size_t classify(const Bytes& payload, std::uint32_t* members);

/// State one replica's decorator writes (every life of that replica).
struct Shard {
  // Decorator timings (thread CPU time, ns).
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;  // self time: replica code minus sends
  std::uint64_t send_ns = 0;  // time inside Context::send / broadcast
  std::vector<std::uint32_t> dispatch_ns;  // self time per call

  // Tap: frames delivered to this replica, and frames it sent to clients.
  std::array<std::uint64_t, kClasses> frames{};
  std::array<std::uint64_t, kClasses> bytes{};
  std::uint64_t bft_frames = 0;
  std::uint64_t cert_members = 0;  // summed over delivered bft frames
  std::uint64_t to_client_frames = 0;
  std::vector<SimTime> dwell_us;

  // Lifecycle events (first occurrence seen by this replica).
  std::unordered_map<std::uint64_t, SimTime> request_in;  // cmd → t
  std::unordered_map<std::uint64_t, SimTime> relay_out;   // cmd → t
  std::unordered_map<std::uint64_t, SimTime> decide_out;  // slot → t
  std::unordered_map<std::uint64_t, SimTime> reply_out;   // cmd → t
  std::optional<SimTime> first_next_after_kill;

  // Consensus frames (slot envelope stripped) kept for the replay: every
  // `sample_stride`-th delivered one.
  std::vector<Bytes> sample;
  std::uint64_t sample_stride = 1;
};

/// One lifecycle span: stage `name` of client command `cmd`.
struct Span {
  std::uint64_t cmd = 0;
  const char* name = "";
  const char* parent = "";  // empty for the root ("op")
  SimTime start = 0;
  SimTime end = 0;
  /// Op spans only: a stage boundary fell outside the op and was clamped.
  bool clamped = false;
};

class Tracer {
 public:
  /// `n` replicas, `clients` client processes.  `kill_at` (µs, failover
  /// only) anchors fd.suspect_ms.  The replay sample keeps at most
  /// `sample_cap` consensus frames.
  Tracer(std::uint32_t n, std::uint32_t clients,
         std::optional<SimTime> kill_at,
         std::size_t sample_cap);

  /// The SmrScenarioConfig::wrap_actor hook.
  std::unique_ptr<modubft::sim::Actor> wrap(
      ProcessId id, std::unique_ptr<modubft::sim::Actor> inner);

  // Called by the decorator on its replica's thread.
  void on_deliver(ProcessId to, ProcessId from, const Bytes& payload,
                  SimTime now);
  /// One outgoing frame: to `to`, or to every process when `broadcast`.
  void on_send(ProcessId from, ProcessId to, bool broadcast,
               const Bytes& payload, SimTime now);
  Shard& shard(ProcessId id) { return shards_[id.value]; }

  /// After the run: lifecycle spans of every certified command.  `f` is
  /// the reply quorum minus one (the f+1-th distinct REPLY closes an op).
  std::vector<Span> spans(const modubft::faults::SmrScenarioResult& result,
                          std::uint32_t f) const;

  /// After the run: per-layer metrics (name → value).  `ops` = certified
  /// operations; `spans` as returned above.
  std::map<std::string, double> layer_metrics(
      const modubft::faults::SmrScenarioResult& result,
      const std::vector<Span>& spans, std::uint64_t ops) const;

  /// The replay sample (consensus frames without their slot envelope).
  std::vector<Bytes> sample() const;

  /// Consensus frames / bytes delivered to all replicas.
  std::uint64_t bft_frames() const;
  std::uint64_t bft_bytes() const;

 private:
  struct Link {
    std::mutex mu;
    std::deque<std::pair<std::uint64_t, SimTime>> sent;  // (hash, t)
  };
  Link& link(std::uint32_t from, std::uint32_t to) {
    return links_[from * n_ + to];
  }

  std::uint32_t n_;
  std::uint32_t clients_;
  std::optional<SimTime> kill_at_;
  std::size_t sample_cap_;
  std::vector<Shard> shards_;
  std::unique_ptr<Link[]> links_;
};

/// Layer replay microtimings over a frame sample (replay.cpp): mean µs
/// per call of each public function, measured after the run.
struct ReplayTimings {
  std::size_t frames = 0;
  double decode_us = 0;     // bft::try_decode_message
  double encode_us = 0;     // bft::encode_message
  double wf_us = 0;         // CertAnalyzer::*_wf, warm verify cache
  double verify_us = 0;     // Verifier::verify, cold (no cache)
  double verify_hit_us = 0; // CachingVerifier::verify, hit
  double sha256_us_per_kib = 0;
  std::uint64_t wf_rejected = 0;  // verdicts that failed (must be 0)
  std::uint64_t sink = 0;         // folds every timed result
};

ReplayTimings replay(const std::vector<Bytes>& frames, std::uint32_t n,
                     std::uint32_t f, std::uint32_t processes,
                     std::uint64_t seed);

}  // namespace perfbench
