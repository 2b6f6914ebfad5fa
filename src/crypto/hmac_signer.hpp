// HMAC-based signature scheme with a trusted key directory.
//
// Each process holds a secret MAC key; the verifier object (the "directory")
// holds all keys and can check any tag.  Within the simulation's fault model
// this provides the paper's unforgeability assumption at a fraction of the
// RSA cost, which matters for large parameter sweeps.
#pragma once

#include <vector>

#include "crypto/signature.hpp"

namespace modubft::crypto {

class HmacScheme : public SignatureScheme {
 public:
  SignatureSystem make_system(std::uint32_t n,
                              std::uint64_t seed) const override;
  const char* name() const override { return "hmac"; }

  /// The system over explicit keys: process i signs under `keys[i]`.
  /// make_system derives its keys from the seed and delegates here.
  static SignatureSystem from_keys(const std::vector<Bytes>& keys);
};

}  // namespace modubft::crypto
