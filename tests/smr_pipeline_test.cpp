// Tests for the pipelined, batching SMR replica.
//
// The load-bearing property: the commit rule (anchor decided by consensus,
// batch re-derived from the committed set at the frontier) makes the
// store's application order the increasing command-id order for *any*
// (window, batch) configuration — so a pipelined run must commit a
// KvStore bit-identical to the sequential run's.  The tests assert that
// equivalence on both back-ends and both the sim and threads substrates,
// plus the envelope-buffering bounds (early frames parked, far-future and
// over-cap frames dropped, post-commit stragglers discarded) and a
// Byzantine replica attacking one mid-window slot.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "fd/oracle_fd.hpp"
#include "sim/simulation.hpp"
#include "smr/replica.hpp"

namespace modubft::smr {
namespace {

// A 12-command put/overwrite/delete mix over a small key space, so batch
// boundaries land in the middle of overwrite chains.
std::vector<Command> workload12() {
  std::vector<Command> cmds;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const std::string key = "k" + std::to_string(id % 5);
    if (id % 4 == 0) {
      cmds.push_back({id, Command::Op::kDel, key, ""});
    } else {
      cmds.push_back({id, Command::Op::kPut, key, "v" + std::to_string(id)});
    }
  }
  return cmds;
}

faults::SmrScenarioConfig pipelined_config(Backend backend, std::uint32_t w,
                                           std::uint32_t b) {
  faults::SmrScenarioConfig cfg;
  cfg.n = backend == Backend::kByzantine ? 4 : 5;
  cfg.f = 1;
  cfg.seed = 11;
  cfg.backend = backend;
  cfg.workload = workload12();
  cfg.window = w;
  cfg.batch = b;
  // Two slack slots beyond ceil(12 / B): racing proposals can produce the
  // occasional no-op slot under pipelining, and the equivalence claim is
  // about runs that commit the whole workload.
  cfg.slots = (12 + b - 1) / b + 2;
  return cfg;
}

void expect_full_commit(const faults::SmrScenarioResult& r,
                        const char* what) {
  EXPECT_TRUE(r.clean) << what;
  EXPECT_TRUE(r.all_committed) << what;
  EXPECT_TRUE(r.stores_agree) << what;
  EXPECT_EQ(r.run_stats.pipeline.commands_committed, 12u) << what;
}

TEST(SmrPipeline, CrashBackendStoreEquivalentAcrossWindowAndBatch) {
  const faults::SmrScenarioResult seq =
      faults::run_smr_scenario(pipelined_config(Backend::kCrashHurfinRaynal,
                                                1, 1));
  expect_full_commit(seq, "W1 B1");
  ASSERT_FALSE(seq.store.empty());

  for (const auto& [w, b] : std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>{
           {4, 4}, {2, 3}, {3, 1}, {1, 4}}) {
    const faults::SmrScenarioResult piped = faults::run_smr_scenario(
        pipelined_config(Backend::kCrashHurfinRaynal, w, b));
    expect_full_commit(piped, "pipelined crash");
    EXPECT_EQ(piped.store, seq.store) << "W" << w << " B" << b;
  }
}

TEST(SmrPipeline, ByzantineBackendStoreEquivalentAcrossWindowAndBatch) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kByzantine, 1, 1));
  expect_full_commit(seq, "W1 B1");
  ASSERT_FALSE(seq.store.empty());

  for (const auto& [w, b] : std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>{
           {4, 4}, {2, 2}}) {
    const faults::SmrScenarioResult piped =
        faults::run_smr_scenario(pipelined_config(Backend::kByzantine, w, b));
    expect_full_commit(piped, "pipelined byz");
    EXPECT_EQ(piped.store, seq.store) << "W" << w << " B" << b;
  }
}

TEST(SmrPipeline, CrashBackendPipelinedSurvivesReplicaCrash) {
  faults::SmrScenarioConfig cfg =
      pipelined_config(Backend::kCrashHurfinRaynal, 3, 2);
  cfg.crashes.push_back({ProcessId{4}, 3'000, std::nullopt});
  const faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.correct.size(), 4u);
}

TEST(SmrPipeline, WindowStatsReachConfiguredPeak) {
  faults::SmrScenarioConfig cfg = pipelined_config(Backend::kByzantine, 4, 4);
  const faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
  expect_full_commit(r, "W4 B4");
  EXPECT_EQ(r.run_stats.pipeline.window, 4u);
  EXPECT_EQ(r.run_stats.pipeline.batch, 4u);
  EXPECT_EQ(r.run_stats.pipeline.window_peak, 4u);
  EXPECT_GT(r.run_stats.pipeline.avg_window, 1.0);
  EXPECT_EQ(r.run_stats.pipeline.max_batch, 4u);
  // The Byzantine back-end shares one verification cache per replica
  // across slots, so pipelined runs must show cross-slot hits.
  EXPECT_GT(r.run_stats.verify.cache_hits, 0u);
}

// --- threads substrate (TSan customers; `threads` ctest label) ---------

TEST(SmrPipeline, ThreadsCrashBackendMatchesSimSequentialStore) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kCrashHurfinRaynal, 1, 1));
  expect_full_commit(seq, "sim W1 B1");

  faults::SmrScenarioConfig cfg =
      pipelined_config(Backend::kCrashHurfinRaynal, 3, 2);
  cfg.substrate = runtime::Backend::kThreads;
  const faults::SmrScenarioResult piped = faults::run_smr_scenario(cfg);
  expect_full_commit(piped, "threads W3 B2");
  EXPECT_EQ(piped.store, seq.store);
}

TEST(SmrPipeline, ThreadsByzantineBackendMatchesSimSequentialStore) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kByzantine, 1, 1));
  expect_full_commit(seq, "sim W1 B1");

  faults::SmrScenarioConfig cfg = pipelined_config(Backend::kByzantine, 4, 4);
  cfg.substrate = runtime::Backend::kThreads;
  // Pin the pool size: the wall-clock default scales with the machine's
  // spare cores, and this test asserts pool accounting exactly.
  cfg.verify_workers = 3;
  const faults::SmrScenarioResult piped = faults::run_smr_scenario(cfg);
  expect_full_commit(piped, "threads W4 B4");
  EXPECT_EQ(piped.store, seq.store);
  EXPECT_EQ(piped.run_stats.verify.pool_workers, 3u);
  EXPECT_GT(piped.run_stats.verify.pool_jobs, 0u);
  // The node loops dispatched every delivery through Actor::on_batch.
  EXPECT_GT(piped.run_stats.ingest.batches, 0u);
  EXPECT_GE(piped.run_stats.ingest.batch_messages,
            piped.run_stats.ingest.batches);
  EXPECT_EQ(piped.run_stats.ingest.batch_messages,
            piped.run_stats.net.messages_delivered);
}

// --- envelope buffering bounds -----------------------------------------

Bytes envelope(std::uint64_t slot, const Bytes& inner) {
  Writer w;
  w.u64(slot);
  w.raw(inner);
  return std::move(w).take();
}

// Floods the three real replicas with early frames before the pipeline
// has started the targeted slots: within-horizon frames must be parked
// (bounded per slot), beyond-horizon frames dropped, and the parked
// garbage must be replayed harmlessly (the BFT instance rejects it).
class EarlyFrameInjector final : public sim::Actor {
 public:
  void on_start(sim::Context& ctx) override {
    const Bytes junk = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04,
                        0x05, 0x06, 0x07, 0x08};
    for (std::uint32_t to = 0; to < 3; ++to) {
      // Slot 2 is unstarted but within the horizon (cap 2): two parked,
      // the third dropped.
      for (int i = 0; i < 3; ++i) ctx.send(ProcessId{to}, envelope(2, junk));
      // Slots 5 and 7 are beyond the horizon 0 + W(1) + 2 = 3: dropped.
      ctx.send(ProcessId{to}, envelope(5, junk));
      ctx.send(ProcessId{to}, envelope(7, junk));
      // Not even an envelope (truncated tag): ignored, not counted.
      ctx.send(ProcessId{to}, Bytes{0x01, 0x02});
    }
    ctx.stop();
  }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
};

TEST(SmrPipeline, FutureFramesBufferedWithinBoundsAndDroppedBeyond) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 5);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 5;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> replicas(3, nullptr);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.slots = 8;
    cfg.window = 1;
    cfg.max_future_slots = 2;
    cfg.max_future_msgs_per_slot = 2;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  world.set_actor(ProcessId{3}, std::make_unique<EarlyFrameInjector>());
  world.run();

  for (std::uint32_t i = 0; i < 3; ++i) {
    const PipelineStats& p = replicas[i]->pipeline_stats();
    EXPECT_EQ(replicas[i]->committed_slots(), 8u) << "replica " << i;
    EXPECT_EQ(p.future_buffered, 2u) << "replica " << i;   // slot-2 pair
    EXPECT_EQ(p.future_dropped, 3u) << "replica " << i;    // cap + 5 + 7
    EXPECT_EQ(replicas[i]->store().contents(),
              replicas[0]->store().contents());
  }
  EXPECT_EQ(replicas[0]->store().get("alpha"), "3");
}

// --- post-commit stragglers --------------------------------------------

// Minimal Context for poking a finished replica outside any runtime.
class StubContext final : public sim::Context {
 public:
  ProcessId id() const override { return ProcessId{0}; }
  std::uint32_t n() const override { return 4; }
  SimTime now() const override { return 0; }
  void send(ProcessId, Bytes) override {}
  void broadcast(const Bytes&) override {}
  std::uint64_t set_timer(SimTime) override { return ++timers_; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

 private:
  std::uint64_t timers_ = 0;
  Rng rng_{0};
};

TEST(SmrPipeline, PostCommitStragglersAreCountedAndIgnored) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 7);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 7;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> replicas(kN, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.slots = 3;
    cfg.window = 2;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  world.run();
  ASSERT_TRUE(replicas[0]->done());

  const std::uint64_t stale_before =
      replicas[0]->pipeline_stats().stale_dropped;
  const auto contents_before = replicas[0]->store().contents();

  StubContext stub;
  const Bytes junk = {0x11, 0x22, 0x33};
  // A frame for an already-committed slot: counted as stale, no effect.
  replicas[0]->on_message(stub, ProcessId{1}, envelope(0, junk));
  EXPECT_EQ(replicas[0]->pipeline_stats().stale_dropped, stale_before + 1);
  // A frame for a slot the replica was never configured to run: ignored.
  replicas[0]->on_message(stub, ProcessId{1}, envelope(99, junk));
  EXPECT_EQ(replicas[0]->pipeline_stats().stale_dropped, stale_before + 1);
  EXPECT_EQ(replicas[0]->store().contents(), contents_before);
}

// --- Byzantine attack on a mid-window slot -----------------------------

// Wraps a genuine replica and corrupts the inner payload of every frame
// it emits for one slot (to everyone but itself): the signatures then
// fail at the receivers, making the wrapped replica Byzantine in exactly
// that mid-window slot while behaving honestly in all the others.
class SlotCorruptingReplica final : public sim::Actor {
 public:
  SlotCorruptingReplica(std::unique_ptr<Replica> inner,
                        std::uint64_t target_slot)
      : inner_(std::move(inner)), target_(target_slot) {}

  void on_start(sim::Context& ctx) override {
    Corrupting sub(ctx, target_);
    inner_->on_start(sub);
  }
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    Corrupting sub(ctx, target_);
    inner_->on_message(sub, from, payload);
  }
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    Corrupting sub(ctx, target_);
    inner_->on_timer(sub, timer_id);
  }

 private:
  class Corrupting final : public sim::ForwardingContext {
   public:
    Corrupting(sim::Context& base, std::uint64_t target)
        : ForwardingContext(base), target_(target) {}

    void send(ProcessId to, Bytes payload) override {
      base_.send(to, to == id() ? std::move(payload) : mutate(payload));
    }
    void broadcast(const Bytes& payload) override {
      // Keep the self-copy intact so the wrapped replica's own instance
      // stays consistent and the replica terminates.
      for (std::uint32_t i = 0; i < n(); ++i) {
        base_.send(ProcessId{i},
                   ProcessId{i} == id() ? payload : mutate(payload));
      }
    }

   private:
    Bytes mutate(Bytes payload) const {
      if (payload.size() <= 8) return payload;
      Reader r(payload);
      if (r.u64() != target_) return payload;
      for (std::size_t i = 8; i < payload.size(); ++i) payload[i] ^= 0x5a;
      return payload;
    }
    std::uint64_t target_;
  };

  std::unique_ptr<Replica> inner_;
  std::uint64_t target_;
};

TEST(SmrPipeline, CorrectReplicasCommitDespiteMidWindowByzantineSlot) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 13);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 13;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> correct(3, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.slots = 6;
    cfg.window = 3;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    if (i == 3) {
      // Slot 1 is mid-window at launch (window {0, 1, 2}).
      world.set_actor(ProcessId{i}, std::make_unique<SlotCorruptingReplica>(
                                        std::move(replica), 1));
    } else {
      correct[i] = replica.get();
      world.set_actor(ProcessId{i}, std::move(replica));
    }
  }
  world.run();

  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(correct[i]->committed_slots(), 6u) << "replica " << i;
    EXPECT_EQ(correct[i]->store().contents(), correct[0]->store().contents());
  }
  EXPECT_EQ(correct[0]->store().get("alpha"), "3");
  EXPECT_EQ(correct[0]->store().get("gamma"), "5");
}

}  // namespace
}  // namespace modubft::smr
