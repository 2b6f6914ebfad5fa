#include "crypto/hmac_signer.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "crypto/hmac.hpp"

namespace modubft::crypto {

namespace {

Bytes derive_key(std::uint64_t seed, std::uint32_t id) {
  Writer w;
  w.u64(seed);
  w.u32(id);
  w.str("modubft-hmac-key");
  Digest d = sha256(w.data());
  return Bytes(d.begin(), d.end());
}

class HmacSigner : public Signer {
 public:
  HmacSigner(ProcessId id, const Bytes& key) : id_(id), mac_(key) {}

  Signature sign(const Bytes& message) const override {
    Digest tag = mac_.mac(message);
    return Bytes(tag.begin(), tag.end());
  }

  ProcessId id() const override { return id_; }

 private:
  ProcessId id_;
  HmacSha256 mac_;
};

class HmacVerifier : public Verifier {
 public:
  explicit HmacVerifier(const std::vector<Bytes>& keys)
      : macs_(keys.begin(), keys.end()) {}

  bool verify(ProcessId signer, const Bytes& message,
              const Signature& sig) const override {
    if (signer.value >= macs_.size()) return false;
    Digest expected = macs_[signer.value].mac(message);
    if (sig.size() != expected.size()) return false;
    Digest given;
    std::copy(sig.begin(), sig.end(), given.begin());
    return digest_equal(expected, given);
  }

 private:
  std::vector<HmacSha256> macs_;
};

}  // namespace

SignatureSystem HmacScheme::make_system(std::uint32_t n,
                                        std::uint64_t seed) const {
  std::vector<Bytes> keys;
  for (std::uint32_t i = 0; i < n; ++i) keys.push_back(derive_key(seed, i));
  return from_keys(keys);
}

SignatureSystem HmacScheme::from_keys(const std::vector<Bytes>& keys) {
  SignatureSystem sys;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    sys.signers.push_back(std::make_unique<HmacSigner>(ProcessId{i}, keys[i]));
  }
  sys.verifier = std::make_shared<HmacVerifier>(keys);
  return sys;
}

}  // namespace modubft::crypto
