// SHA-256 (FIPS 180-4) on OpenSSL's libcrypto compression function, which
// uses the SHA extensions (SHA-NI) where the CPU has them.
//
// Used for message digests inside signatures and for certificate pruning
// (replacing verified nested certificates by their digest).  The streaming
// interface lets large certificates be hashed without copying.  A context
// is a plain value: copying one mid-stream copies its midstate, which is
// how an HMAC key reuses its absorbed pad blocks (crypto/hmac.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace modubft::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` octets from `data`.
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }

  /// Finalizes and returns the digest.  The context must not be reused
  /// afterwards except via reset().
  Digest finish();

  /// Returns the context to its initial state.
  void reset();

 private:
  // Storage for libcrypto's SHA256_CTX, kept opaque so that no OpenSSL
  // header leaks into includers (size and alignment are checked in
  // sha256.cpp).
  alignas(8) std::uint8_t ctx_[112];
};

/// One-shot convenience hash.
Digest sha256(const Bytes& data);

/// Digest rendered as Bytes (for embedding in wire formats).
Bytes digest_bytes(const Digest& d);

}  // namespace modubft::crypto
