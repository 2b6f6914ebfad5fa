// Layer replay: the traced run's captured consensus frames, timed through
// each layer's public functions one at a time.  Costs are per call, so
// the caller can multiply them by the frames per op it counted.
#include <algorithm>
#include <chrono>
#include <functional>

#include "bft/analyzer.hpp"
#include "bft/message.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_cache.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace bft = modubft::bft;
namespace crypto = modubft::crypto;

constexpr int kPasses = 5;

/// Median over kPasses of the mean µs per item of `body(i)`; `prepare`
/// runs untimed before each pass.
double time_per_item(std::size_t items, const std::function<void()>& prepare,
                     const std::function<void(std::size_t)>& body) {
  if (items == 0) return 0.0;
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    prepare();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < items; ++i) body(i);
    const std::chrono::duration<double, std::micro> d = Clock::now() - t0;
    passes.push_back(d.count() / static_cast<double>(items));
  }
  std::sort(passes.begin(), passes.end());
  return passes[passes.size() / 2];
}

bool has_round_current(const bft::SignedMessage& msg) {
  for (const bft::MemberPtr& m : msg.cert.members()) {
    if (m->core.kind == bft::BftKind::kCurrent &&
        m->core.round == msg.core.round) {
      return true;
    }
  }
  return false;
}

bft::Verdict well_formed(const bft::CertAnalyzer& analyzer,
                         const bft::SignedMessage& msg) {
  switch (msg.core.kind) {
    case bft::BftKind::kInit: return analyzer.init_wf(msg);
    case bft::BftKind::kCurrent: return analyzer.current_wf(msg);
    case bft::BftKind::kNext:
      // The monitored sender phase only selects the accepted
      // justification; the walk over the certificate is the same.
      return analyzer.next_wf(msg, has_round_current(msg)
                                       ? bft::PeerPhase::kQ1
                                       : bft::PeerPhase::kQ0);
    case bft::BftKind::kDecide: return analyzer.decide_wf(msg);
  }
  return bft::Verdict::fail(bft::FaultKind::kMalformed, "unknown kind");
}

}  // namespace

ReplayTimings replay(const std::vector<Bytes>& frames, std::uint32_t n,
                     std::uint32_t f, std::uint32_t processes,
                     std::uint64_t seed) {
  ReplayTimings t;
  // The scenario's keyring: same scheme, process count and seed.
  crypto::SignatureSystem keys =
      crypto::HmacScheme{}.make_system(processes, seed);
  const std::shared_ptr<const crypto::Verifier> raw = keys.verifier;

  std::vector<Bytes> wire;
  std::vector<bft::SignedMessage> msgs;
  std::vector<Bytes> preimages;
  for (const Bytes& frame : frames) {
    bft::DecodeOutcome out = bft::try_decode_message(frame);
    if (!out) continue;
    wire.push_back(frame);
    preimages.push_back(bft::signing_bytes(out.msg.core, out.msg.cert));
    msgs.push_back(std::move(out.msg));
  }
  t.frames = msgs.size();
  const std::size_t m = msgs.size();
  const auto nothing = [] {};
  // Results feed this sink so no timed call can be optimised away.
  std::uint64_t sink = 0;

  t.decode_us = time_per_item(m, nothing, [&](std::size_t i) {
    sink += bft::try_decode_message(wire[i]).ok;
  });
  t.encode_us = time_per_item(m, nothing, [&](std::size_t i) {
    sink += bft::encode_message(msgs[i]).size();
  });

  // The §5.1 walk as a replica runs it on a freshly decoded frame: no
  // memoized digests, member signatures answered by a warm shared cache.
  auto cache = std::make_shared<crypto::CachingVerifier>(raw, 1u << 16);
  const bft::CertAnalyzer analyzer(n, n - f, cache);
  std::vector<bft::SignedMessage> fresh;
  const auto redecode = [&] {
    fresh.clear();
    for (std::size_t i = 0; i < m; ++i) {
      fresh.push_back(bft::try_decode_message(wire[i]).msg);
    }
  };
  redecode();
  for (const bft::SignedMessage& msg : fresh) (void)well_formed(analyzer, msg);
  std::uint64_t rejected = 0;
  t.wf_us = time_per_item(m, redecode, [&](std::size_t i) {
    if (!well_formed(analyzer, fresh[i])) ++rejected;
  });
  t.wf_rejected += rejected / kPasses;

  t.verify_us = time_per_item(m, nothing, [&](std::size_t i) {
    sink += raw->verify(msgs[i].core.sender, preimages[i], msgs[i].sig);
  });
  const crypto::CachingVerifier hot(raw, 1u << 16);
  for (std::size_t i = 0; i < m; ++i) {
    (void)hot.verify(msgs[i].core.sender, preimages[i], msgs[i].sig);
  }
  t.verify_hit_us = time_per_item(m, nothing, [&](std::size_t i) {
    sink += hot.verify(msgs[i].core.sender, preimages[i], msgs[i].sig);
  });

  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < m; ++i) total_bytes += wire[i].size();
  const double per_frame_us = time_per_item(m, nothing, [&](std::size_t i) {
    crypto::Sha256 h;
    h.update(wire[i]);
    sink += h.finish()[0];
  });
  t.sink = sink;
  if (total_bytes > 0) {
    t.sha256_us_per_kib = per_frame_us * static_cast<double>(m) /
                          (static_cast<double>(total_bytes) / 1024.0);
  }
  return t;
}

}  // namespace perfbench
