// HMAC-SHA256 (RFC 2104).
//
// Backs the fast "signature" scheme used in large simulation sweeps: with a
// trusted per-sender key directory, an HMAC tag is unforgeable by the other
// processes in exactly the way the paper's signature assumption requires.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace modubft::crypto {

/// HMAC-SHA256 under one key.  The key's inner and outer pad blocks are
/// absorbed once, at construction; every MAC starts from copies of those
/// two midstates, which saves two of its compressions.
class HmacSha256 {
 public:
  explicit HmacSha256(const Bytes& key);

  /// Computes HMAC-SHA256(key, data).
  Digest mac(const Bytes& data) const;

 private:
  Sha256 inner_;  // after absorbing key ⊕ ipad
  Sha256 outer_;  // after absorbing key ⊕ opad
};

/// Computes HMAC-SHA256(key, data).
Digest hmac_sha256(const Bytes& key, const Bytes& data);

/// Constant-time comparison of two digests (avoids timing side channels;
/// also simply the right idiom for tag verification).
bool digest_equal(const Digest& a, const Digest& b);

}  // namespace modubft::crypto
