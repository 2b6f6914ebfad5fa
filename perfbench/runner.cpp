// pb_runner — one client-path scenario run, one JSON line on stdout.
//
// Runs a named workload once through faults::run_smr_scenario with live
// clients, checks the run's correctness gate, and prints everything the
// aggregator (run.py) needs: per-op latencies, wall/setup/CPU time, peak
// memory, message and byte totals, the environment record, on untraced
// sim runs the segment clock and, with --trace 1, the per-layer metrics
// and replay microtimings.  One process per run, so the memory peaks are
// this run's alone.
//
// Usage: pb_runner --workload NAME --seed N [--ops K] [--trace 0|1]
//                  [--budget-ms MS] [--spans FILE]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/client_campaign.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"
#include "tracer.hpp"

namespace {

using namespace modubft;
using perfbench::Span;
using perfbench::Tracer;

/// One benchmark workload.  Every workload runs the Byzantine backend with
/// HMAC, W=4 B=2 C=8, closed-loop clients (one outstanding op each), and
/// the substrate's own verify-pool / staged-ingest defaults (not pinned:
/// those defaults are what later changes tune).
struct Workload {
  const char* name;
  runtime::Backend substrate;
  std::uint32_t n;
  std::uint32_t f;
  std::uint32_t clients;
  std::uint32_t ops;  // default ops per client
  bool failover;      // kill + restart p0 mid-run
};

constexpr Workload kWorkloads[] = {
    {"soak-n4-sim", runtime::Backend::kSim, 4, 1, 2, 400, false},
    {"failover-n4-tcp", runtime::Backend::kTcp, 4, 1, 4, 60, true},
};

constexpr std::uint32_t kWindow = 4;
constexpr std::uint32_t kBatch = 2;
constexpr std::uint64_t kCheckpointInterval = 8;
constexpr std::uint32_t kKeyspace = 64;
// failover-n4-tcp: p0 dies this far into the run and restarts after the
// downtime (wall-clock µs from run start).
constexpr SimTime kKillAt = 100'000;
constexpr SimTime kDowntime = 400'000;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Samples /proc/self/status every 20 ms while a run is in flight: peak
/// thread count and peak anonymous RSS.  ru_maxrss would also count the
/// file pages the kernel maps around a fault in the executable and
/// libraries, which depends on what the page cache holds, so heap and
/// stacks are measured on their own.
class ProcSampler {
 public:
  ProcSampler() : worker_([this] { loop(); }) {}
  ~ProcSampler() { stop(); }
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;

  void stop() {
    done_ = true;
    if (worker_.joinable()) worker_.join();
  }
  /// Peak thread count seen, excluding the sampler itself.
  long threads_peak() const { return threads_peak_ - 1; }
  long anon_peak_kb() const { return anon_peak_kb_; }

 private:
  void loop() {
    while (!done_) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    sample();
  }

  void sample() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        threads_peak_ = std::max(threads_peak_.load(),
                                 std::atol(line.c_str() + 8));
      } else if (line.rfind("RssAnon:", 0) == 0) {
        anon_peak_kb_ = std::max(anon_peak_kb_.load(),
                                 std::atol(line.c_str() + 8));
      }
    }
  }

  std::atomic<bool> done_{false};
  std::atomic<long> threads_peak_{0};
  std::atomic<long> anon_peak_kb_{0};
  std::thread worker_;
};

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Untraced sim runs: stamps wall and process CPU time before the first
/// replica call and after every kEvery-th one.  The simulator replays the
/// same event sequence for the same seed, so segment i covers the same
/// work in every run of a seed, and run.py can take each segment's fastest
/// run: host interference that comes and goes within a run is filtered
/// out, the work itself is not.  One counter and, per segment, two clock
/// reads — nothing else is added to the untraced path.
class SegmentClock {
 public:
  static constexpr std::uint64_t kEvery = 64;

  void before_call() {
    if (calls_ == 0) stamp();
  }
  void after_call() {
    if (++calls_ % kEvery == 0) stamp();
  }
  /// Per-segment durations (ns) as "wall" / "cpu" JSON arrays.
  std::string json() const {
    std::ostringstream out;
    out << "{\"calls\":" << calls_ << ",\"every\":" << kEvery;
    for (int k = 0; k < 2; ++k) {
      out << (k == 0 ? ",\"wall_ns\":[" : "],\"cpu_ns\":[");
      for (std::size_t i = 1; i < stamps_.size(); ++i) {
        const auto& [w, c] = stamps_[i];
        const auto& [w0, c0] = stamps_[i - 1];
        out << (i > 1 ? "," : "") << (k == 0 ? w - w0 : c - c0);
      }
    }
    out << "]}";
    return out.str();
  }

 private:
  void stamp() {
    stamps_.emplace_back(clock_ns(CLOCK_MONOTONIC),
                         clock_ns(CLOCK_PROCESS_CPUTIME_ID));
  }

  std::uint64_t calls_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps_;
};

/// Pass-through decorator that feeds a SegmentClock (sim only: the
/// simulator calls every actor from one thread).
class ClockedActor final : public sim::Actor {
 public:
  ClockedActor(std::unique_ptr<sim::Actor> inner, SegmentClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void on_start(sim::Context& ctx) override {
    clock_.before_call();
    inner_->on_start(ctx);
    clock_.after_call();
  }
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    clock_.before_call();
    inner_->on_message(ctx, from, payload);
    clock_.after_call();
  }
  void on_batch(sim::Context& ctx,
                std::vector<sim::Incoming>& batch) override {
    clock_.before_call();
    inner_->on_batch(ctx, batch);
    clock_.after_call();
  }
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    clock_.before_call();
    inner_->on_timer(ctx, timer_id);
    clock_.after_call();
  }

 private:
  std::unique_ptr<sim::Actor> inner_;
  SegmentClock& clock_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"cmd\":" << s.cmd << ",\"name\":\"" << s.name
        << "\",\"parent\":" << (*s.parent ? json_string(s.parent) : "null")
        << ",\"start_us\":" << s.start << ",\"end_us\":" << s.end << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_runner --workload NAME --seed N [--ops K] "
               "[--trace 0|1] [--budget-ms MS] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::uint32_t ops = 0;
  bool trace = false;
  long budget_ms = 60'000;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--ops") {
      ops = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--budget-ms") {
      budget_ms = std::strtol(value, nullptr, 10);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  if (ops == 0) ops = w->ops;
  const std::uint64_t scripted = static_cast<std::uint64_t>(w->clients) * ops;

  faults::SmrScenarioConfig cfg;
  cfg.n = w->n;
  cfg.f = w->f;
  cfg.seed = seed;
  cfg.substrate = w->substrate;
  cfg.backend = smr::Backend::kByzantine;
  cfg.scheme = faults::Scheme::kHmac;
  cfg.window = kWindow;
  cfg.batch = kBatch;
  cfg.checkpoint_interval = kCheckpointInterval;
  cfg.latency = sim::calm_network();
  cfg.budget = std::chrono::milliseconds(budget_ms);
  cfg.max_time = 3'600'000'000;  // virtual µs; sim runs end long before
  // The documented slot budget for client runs: slots ≥ 2·ops + 2W.
  cfg.slots = 2 * scripted + 2 * kWindow;
  faults::ClientLoadConfig load;
  load.count = w->clients;
  load.ops_per_client = ops;
  load.keyspace = kKeyspace;
  cfg.clients = load;
  if (w->failover) {
    cfg.crashes.push_back({ProcessId{0}, kKillAt, kKillAt + kDowntime});
  }

  std::unique_ptr<Tracer> tracer;
  if (trace) {
    std::optional<SimTime> kill_at;
    if (w->failover) kill_at = kKillAt;
    tracer = std::make_unique<Tracer>(w->n, w->clients, kill_at, 512);
    cfg.wrap_actor = [t = tracer.get()](ProcessId id,
                                        std::unique_ptr<sim::Actor> actor) {
      return t->wrap(id, std::move(actor));
    };
  }

  SegmentClock segments;
  const bool clocked = !trace && w->substrate == runtime::Backend::kSim;
  if (clocked) {
    cfg.wrap_actor = [&segments](ProcessId, std::unique_ptr<sim::Actor> a) {
      return std::make_unique<ClockedActor>(std::move(a), segments);
    };
  }

  ProcSampler sampler;
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  const faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
  const std::chrono::duration<double, std::micro> call =
      std::chrono::steady_clock::now() - t0;
  const double cpu_s = cpu_seconds() - cpu0;
  sampler.stop();
  const runtime::RunStats& rs = r.run_stats;

  // Correctness gate.
  std::vector<std::string> violations;
  auto require = [&](bool ok, const char* what) {
    if (!ok) violations.emplace_back(what);
  };
  require(r.clean, "run not clean (limit hit)");
  require(r.all_committed, "not all slots committed");
  require(r.stores_agree, "stores disagree");
  require(r.clients_done.size() == w->clients, "a client did not finish");
  require(rs.client.accepted == scripted, "scripted ops not all certified");
  require(r.commit_log_duplicates == 0, "command applied twice");
  for (const adversary::Violation& v : adversary::audit_client_replies(r)) {
    violations.push_back(std::string("reply audit: ") + v.detail);
  }
  if (w->failover) require(r.recovered.count(0) == 1, "p0 did not recover");

  // Client by client, each in certification order (= script order: one
  // op outstanding), so run.py can rebuild every client's timeline.
  std::vector<SimTime> latencies;
  std::vector<std::size_t> client_ops;
  for (const auto& [pid, st] : r.client_stats) {
    latencies.insert(latencies.end(), st.latencies_us.begin(),
                     st.latencies_us.end());
    client_ops.push_back(st.latencies_us.size());
  }

  std::ostringstream js;
  js << "{\"workload\":" << json_string(w->name) << ",\"seed\":" << seed
     << ",\"substrate\":\"" << runtime::backend_name(w->substrate) << "\""
     << ",\"scripted\":" << scripted << ",\"certified\":" << rs.client.accepted
     << ",\"ok\":" << (violations.empty() ? "true" : "false")
     << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    js << (i ? "," : "") << json_string(violations[i]);
  }
  js << "],\"call_us\":" << json_number(call.count())
     << ",\"wall_us\":" << rs.wall_us
     << ",\"cpu_s\":" << json_number(cpu_s)
     << ",\"rss_anon_kb\":" << sampler.anon_peak_kb()
     << ",\"messages\":" << rs.net.messages_sent
     << ",\"bytes\":" << rs.net.bytes_sent
     << ",\"latencies_us\":[";
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    js << (i ? "," : "") << latencies[i];
  }
  js << "],\"client_ops\":[";
  for (std::size_t i = 0; i < client_ops.size(); ++i) {
    js << (i ? "," : "") << client_ops[i];
  }
  const std::uint32_t processes = w->n + w->clients;
  const bool tcp = w->substrate == runtime::Backend::kTcp;
  const bool sim = w->substrate == runtime::Backend::kSim;
  js << "],\"env\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"node_threads\":" << (sim ? 0u : processes)
     << ",\"pool_workers\":" << rs.verify.pool_workers
     << ",\"tcp_io_threads\":" << (tcp ? processes : 0u)
     << ",\"tcp_channel_workers\":" << (tcp ? processes * (processes - 1) : 0u)
     << ",\"threads_peak\":" << sampler.threads_peak() << "}"
     << ",\"run_stats\":" << runtime::to_json(w->substrate, rs);
  if (clocked) js << ",\"segments\":" << segments.json();

  if (tracer) {
    const std::uint64_t certified = rs.client.accepted;
    const std::vector<Span> spans = tracer->spans(r, w->f);
    if (!spans_path.empty()) write_spans(spans_path, spans);
    std::map<std::string, double> layers =
        tracer->layer_metrics(r, spans, certified);

    // "Where the microseconds go": replay cost × frames per op.
    const perfbench::ReplayTimings rt =
        perfbench::replay(tracer->sample(), w->n, w->f, processes, seed);
    const double per = certified > 0 ? 1.0 / static_cast<double>(certified) : 0;
    const double frames_per_op = static_cast<double>(tracer->bft_frames()) * per;
    const double kib_per_op =
        static_cast<double>(tracer->bft_bytes()) / 1024.0 * per;
    const double hits_per_op = static_cast<double>(rs.verify.cache_hits) * per;
    const double misses_per_op =
        static_cast<double>(rs.verify.cache_misses) * per;
    layers["bft.decode_us"] = rt.decode_us;
    layers["bft.encode_us"] = rt.encode_us;
    layers["bft.wf_us"] = rt.wf_us;
    layers["crypto.verify_us"] = rt.verify_us;
    layers["crypto.verify_hit_us"] = rt.verify_hit_us;
    layers["crypto.sha256_us_per_kib"] = rt.sha256_us_per_kib;
    layers["replay.frames"] = static_cast<double>(rt.frames);
    layers["replay.wf_rejected"] = static_cast<double>(rt.wf_rejected);
    layers["replay.decode_us_per_op"] = rt.decode_us * frames_per_op;
    layers["replay.encode_us_per_op"] = rt.encode_us * frames_per_op / w->n;
    layers["replay.wf_us_per_op"] = rt.wf_us * frames_per_op;
    layers["replay.verify_us_per_op"] =
        rt.verify_us * misses_per_op + rt.verify_hit_us * hits_per_op;
    layers["replay.sha256_us_per_op"] = rt.sha256_us_per_kib * kib_per_op;
    js << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layers) {
      js << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
      first = false;
    }
    js << "}";
  }
  js << "}";
  std::printf("%s\n", js.str().c_str());
  return violations.empty() ? 0 : 1;
}
