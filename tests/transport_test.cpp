// Tests for the threaded in-memory runtime: mailbox semantics, FIFO
// channels under real threads, and the consensus protocols running on it.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "bft/bft_consensus.hpp"
#include "faults/byzantine.hpp"
#include "common/serial.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/hmac_signer.hpp"
#include "fd/oracle_fd.hpp"
#include "transport/cluster.hpp"
#include "transport/mailbox.hpp"

namespace modubft::transport {
namespace {

TEST(Mailbox, PushPopOrder) {
  Mailbox<int> mb;
  mb.push(1);
  mb.push(2);
  mb.push(3);
  auto deadline = std::chrono::steady_clock::now();
  EXPECT_EQ(mb.pop_until(deadline), 1);
  EXPECT_EQ(mb.pop_until(deadline), 2);
  EXPECT_EQ(mb.try_pop(), 3);
  EXPECT_EQ(mb.try_pop(), std::nullopt);
}

TEST(Mailbox, PopTimesOut) {
  Mailbox<int> mb;
  auto start = std::chrono::steady_clock::now();
  auto got = mb.pop_until(start + std::chrono::milliseconds(30));
  EXPECT_EQ(got, std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(Mailbox, CloseWakesWaiter) {
  Mailbox<int> mb;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.close();
  });
  auto got = mb.pop_until(std::chrono::steady_clock::now() +
                          std::chrono::seconds(5));
  EXPECT_EQ(got, std::nullopt);
  closer.join();
  EXPECT_FALSE(mb.push(7));
}

TEST(Mailbox, DrainsAfterClose) {
  Mailbox<int> mb;
  mb.push(9);
  mb.close();
  EXPECT_EQ(mb.try_pop(), 9);
}

TEST(Mailbox, ConcurrentPushersPreservePerSenderOrder) {
  Mailbox<std::pair<int, int>> mb;  // (sender, seq)
  constexpr int kPer = 500;
  std::vector<std::thread> senders;
  for (int s = 0; s < 4; ++s) {
    senders.emplace_back([&mb, s] {
      for (int i = 0; i < kPer; ++i) mb.push({s, i});
    });
  }
  for (auto& t : senders) t.join();
  std::vector<int> last(4, -1);
  for (int k = 0; k < 4 * kPer; ++k) {
    auto got = mb.try_pop();
    ASSERT_TRUE(got.has_value());
    auto [s, i] = *got;
    EXPECT_EQ(i, last[s] + 1) << "per-sender order broken";
    last[s] = i;
  }
}

// Echo actor: p2 replies to each numbered message; p1 checks FIFO.
TEST(Cluster, FifoUnderRealThreads) {
  class Pinger final : public sim::Actor {
   public:
    Pinger(std::atomic<int>* acked, int count) : acked_(acked), count_(count) {}
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < count_; ++i) {
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        ctx.send(ProcessId{1}, std::move(w).take());
      }
    }
    void on_message(sim::Context& ctx, ProcessId, const Bytes& payload) override {
      Reader r(payload);
      const std::uint32_t seq = r.u32();
      EXPECT_EQ(seq, static_cast<std::uint32_t>(next_)) << "FIFO violated";
      ++next_;
      acked_->store(next_);
      if (next_ == count_) ctx.stop();
    }
   private:
    std::atomic<int>* acked_;
    int count_;
    int next_ = 0;
  };

  class Echo final : public sim::Actor {
   public:
    explicit Echo(int count) : count_(count) {}
    void on_message(sim::Context& ctx, ProcessId from, const Bytes& payload) override {
      ctx.send(from, payload);
      if (++seen_ == count_) ctx.stop();
    }
   private:
    int count_;
    int seen_ = 0;
  };

  ClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(5000);
  Cluster cluster(cfg);
  std::atomic<int> acked{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Pinger>(&acked, 200));
  cluster.set_actor(ProcessId{1}, std::make_unique<Echo>(200));
  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(acked.load(), 200);
}

TEST(Cluster, TimersFire) {
  class TimerCounter final : public sim::Actor {
   public:
    explicit TimerCounter(std::atomic<int>* count) : count_(count) {}
    void on_start(sim::Context& ctx) override { ctx.set_timer(1000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      if (++*count_ >= 5) {
        ctx.stop();
        return;
      }
      ctx.set_timer(1000);
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
   private:
    std::atomic<int>* count_;
  };

  ClusterConfig cfg;
  cfg.n = 1;
  cfg.budget = std::chrono::milliseconds(3000);
  Cluster cluster(cfg);
  std::atomic<int> count{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<TimerCounter>(&count));
  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(count.load(), 5);
}

TEST(Cluster, HurfinRaynalDecidesOnThreads) {
  constexpr std::uint32_t kN = 5;
  ClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(8000);
  Cluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, consensus::Decision> decisions;

  // Nobody crashes: a never-suspecting oracle is a valid ◇S detector here.
  auto detector = std::make_shared<fd::OracleDetector>(
      std::vector<std::optional<SimTime>>(kN, std::nullopt),
      fd::OracleConfig{});

  for (std::uint32_t i = 0; i < kN; ++i) {
    cluster.set_actor(
        ProcessId{i},
        std::make_unique<consensus::HurfinRaynalActor>(
            kN, 500 + i, detector,
            [&mu, &decisions, i](ProcessId, const consensus::Decision& d) {
              std::lock_guard<std::mutex> lock(mu);
              decisions.emplace(i, d);
            }));
  }
  EXPECT_TRUE(cluster.run());
  ASSERT_EQ(decisions.size(), kN);
  for (auto& [i, d] : decisions) EXPECT_EQ(d.value, decisions.at(0).value);
}

TEST(Cluster, BftConsensusDecidesOnThreads) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 5);

  bft::BftConfig proto;
  proto.n = kN;
  proto.f = 1;
  // Wall-clock timings: keep the ◇M timeouts generous to avoid spurious
  // round changes under scheduler noise.
  proto.muteness.initial_timeout = 500'000;
  proto.suspicion_poll_period = 50'000;

  ClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(8000);
  Cluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, bft::VectorDecision> decisions;

  for (std::uint32_t i = 0; i < kN; ++i) {
    cluster.set_actor(
        ProcessId{i},
        std::make_unique<bft::BftProcess>(
            proto, 900 + i, keys.signers[i].get(), keys.verifier,
            [&mu, &decisions, i](ProcessId, const bft::VectorDecision& d) {
              std::lock_guard<std::mutex> lock(mu);
              decisions.emplace(i, d);
            }));
  }
  EXPECT_TRUE(cluster.run());
  ASSERT_EQ(decisions.size(), kN);
  const auto& ref = decisions.at(0).entries;
  std::size_t non_null = 0;
  for (const auto& e : ref) non_null += e.has_value();
  EXPECT_GE(non_null, 3u);
  for (auto& [i, d] : decisions) EXPECT_EQ(d.entries, ref);
}

TEST(Cluster, CrashAfterSilencesNode) {
  class Chatter final : public sim::Actor {
   public:
    explicit Chatter(std::atomic<int>* received) : received_(received) {}
    void on_start(sim::Context& ctx) override { ctx.set_timer(5'000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.broadcast({1});
      ctx.set_timer(5'000);
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {
      ++*received_;
    }
   private:
    std::atomic<int>* received_;
  };

  ClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(400);
  Cluster cluster(cfg);
  std::atomic<int> a{0}, b{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Chatter>(&a));
  cluster.set_actor(ProcessId{1}, std::make_unique<Chatter>(&b));
  cluster.crash_after(ProcessId{1}, std::chrono::microseconds(100'000));
  cluster.run();  // budget expiry expected (p1 chats forever)
  // p2 crashed a quarter of the way in: it stopped receiving (and sending),
  // so it saw far less traffic than the survivor.
  EXPECT_GT(b.load(), 0);
  EXPECT_LT(b.load(), a.load());
}

// --- Stats / delivery-tap / unstopped parity with the simulator ---------

TEST(Cluster, StatsCountProtocolTraffic) {
  class Sender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < 10; ++i) ctx.send(ProcessId{1}, {1, 2, 3});
      ctx.stop();
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Sink final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      if (++seen_ == 10) ctx.stop();
    }
   private:
    int seen_ = 0;
  };

  ClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(5000);
  Cluster cluster(cfg);
  cluster.set_actor(ProcessId{0}, std::make_unique<Sender>());
  cluster.set_actor(ProcessId{1}, std::make_unique<Sink>());
  EXPECT_TRUE(cluster.run());

  const sim::Stats stats = cluster.stats();
  EXPECT_EQ(stats.messages_sent, 10u);
  EXPECT_EQ(stats.messages_delivered, 10u);
  EXPECT_EQ(stats.bytes_sent, 30u);
  EXPECT_GE(stats.events_executed, 10u);
  // Every delivery went through one of the node loop's on_batch dispatches.
  const BatchStats shape = cluster.batch_stats();
  EXPECT_EQ(shape.batch_messages, 10u);
  EXPECT_GE(shape.batches, 1u);
  EXPECT_GE(shape.max_batch, 1u);
  EXPECT_LE(shape.max_batch, 10u);
}

TEST(Cluster, DeliveryTapObservesEveryDelivery) {
  class Sender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < 7; ++i) ctx.send(ProcessId{1}, {9});
      ctx.stop();
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Sink final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      if (++seen_ == 7) ctx.stop();
    }
   private:
    int seen_ = 0;
  };

  ClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(5000);
  Cluster cluster(cfg);
  int taps = 0;
  bool shape_ok = true;
  cluster.set_delivery_tap([&](const sim::Delivery& d) {
    ++taps;  // tap calls are serialized by the cluster
    shape_ok = shape_ok && d.from == ProcessId{0} && d.to == ProcessId{1} &&
               d.size == 1 && d.payload != nullptr &&
               d.deliver_time >= d.send_time;
  });
  cluster.set_actor(ProcessId{0}, std::make_unique<Sender>());
  cluster.set_actor(ProcessId{1}, std::make_unique<Sink>());
  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(taps, 7);
  EXPECT_TRUE(shape_ok);
  EXPECT_EQ(static_cast<std::uint64_t>(taps),
            cluster.stats().messages_delivered);
}

TEST(Cluster, UnstoppedNamesTheCulprit) {
  class Quits final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override { ctx.stop(); }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Hangs final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override { ctx.set_timer(10'000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.set_timer(10'000);  // rearm forever
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };

  ClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(200);
  Cluster cluster(cfg);
  cluster.set_actor(ProcessId{0}, std::make_unique<Quits>());
  cluster.set_actor(ProcessId{1}, std::make_unique<Hangs>());
  EXPECT_FALSE(cluster.run());
  const std::vector<ProcessId> stuck = cluster.unstopped();
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], ProcessId{1});
}

TEST(Cluster, BftToleratesByzantineOnThreads) {
  // The Byzantine wrapper is itself just an Actor, so fault injection runs
  // unchanged on the threaded substrate: p1 corrupts its vectors while the
  // other three decide.
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 21);

  bft::BftConfig proto;
  proto.n = kN;
  proto.f = 1;
  proto.muteness.initial_timeout = 500'000;
  proto.suspicion_poll_period = 50'000;

  ClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(8000);
  Cluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, bft::VectorDecision> decisions;

  for (std::uint32_t i = 0; i < kN; ++i) {
    auto proc = std::make_unique<bft::BftProcess>(
        proto, 900 + i, keys.signers[i].get(), keys.verifier,
        [&mu, &decisions, i](ProcessId, const bft::VectorDecision& d) {
          std::lock_guard<std::mutex> lock(mu);
          decisions.emplace(i, d);
        });
    if (i == 0) {
      faults::FaultSpec spec;
      spec.who = ProcessId{0};
      spec.behavior = faults::Behavior::kCorruptVector;
      cluster.set_actor(ProcessId{i},
                        std::make_unique<faults::ByzantineActor>(
                            std::move(proc), keys.signers[i].get(), spec, kN));
    } else {
      cluster.set_actor(ProcessId{i}, std::move(proc));
    }
  }
  cluster.run();
  std::lock_guard<std::mutex> lock(mu);
  // The three correct processes must decide identically (the corrupter may
  // or may not decide; its wrapper still runs the protocol underneath).
  for (std::uint32_t i = 1; i < kN; ++i) {
    ASSERT_TRUE(decisions.count(i)) << "p" << i + 1 << " did not decide";
  }
  for (std::uint32_t i = 2; i < kN; ++i) {
    EXPECT_EQ(decisions.at(i).entries, decisions.at(1).entries);
  }
}

}  // namespace
}  // namespace modubft::transport
