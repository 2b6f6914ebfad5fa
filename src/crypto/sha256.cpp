// The low-level SHA256_* calls are deprecated in OpenSSL 3 in favour of
// EVP, but an EVP digest costs a fetch and a heap context per call (more
// than hashing a short frame), and its context cannot be copied as a
// plain value mid-stream.  The suppression is scoped to this file.
#define OPENSSL_SUPPRESS_DEPRECATED
#include "crypto/sha256.hpp"

#include <openssl/sha.h>

namespace modubft::crypto {

namespace {
SHA256_CTX* native(std::uint8_t* storage) {
  return reinterpret_cast<SHA256_CTX*>(storage);
}
}  // namespace

Sha256::Sha256() {
  static_assert(sizeof(SHA256_CTX) == sizeof(ctx_));
  static_assert(alignof(SHA256_CTX) <= 8);  // ctx_ is alignas(8)
  reset();
}

void Sha256::reset() { SHA256_Init(native(ctx_)); }

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  SHA256_Update(native(ctx_), data, len);
}

Digest Sha256::finish() {
  Digest out;
  SHA256_Final(out.data(), native(ctx_));
  return out;
}

Digest sha256(const Bytes& data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace modubft::crypto
