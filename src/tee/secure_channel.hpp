// Mutually-attested secure channel between two enclaves.
//
// Implements the paper's requirement that "any communication between
// federation members is encrypted and happens only between TEEs" (§5.1):
//   1. each side generates an ephemeral X25519 keypair and obtains a quote
//      whose report_data binds the public key (so the quote cannot be
//      spliced onto a different handshake);
//   2. handshake messages are exchanged (transport is untrusted);
//   3. each side verifies the peer quote signature AND that the peer
//      measurement equals the expected trusted-module measurement;
//   4. per-direction AEAD keys are derived with HKDF from the X25519 shared
//      secret, salted by the handshake transcript.
// Records carry an explicit sequence number that doubles as the AEAD nonce
// and must arrive in order - replayed, reordered, or tampered records fail.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/aead.hpp"
#include "crypto/csprng.hpp"
#include "crypto/x25519.hpp"
#include "tee/attestation.hpp"

namespace gendpr::tee {

class SecureChannel {
 public:
  /// Prepares the local half of a handshake. `initiator` breaks the key
  /// derivation symmetry; exactly one endpoint of a channel must set it.
  SecureChannel(const QuotingAuthority& authority,
                const EnclaveIdentity& self_identity,
                const Measurement& expected_peer_measurement, bool initiator,
                crypto::Csprng& rng);

  /// Handshake message to transmit to the peer (quote + ephemeral key).
  common::Bytes handshake_message() const;

  /// Consumes the peer's handshake message; on success the channel is
  /// established. Rejects invalid quotes, unexpected measurements, and
  /// report_data that does not bind the ephemeral key.
  common::Status complete(common::BytesView peer_handshake);

  bool established() const noexcept { return established_; }

  /// Identity of the attested peer (valid once established).
  const EnclaveIdentity& peer_identity() const noexcept {
    return peer_identity_;
  }

  /// Encrypts a message; output: seq (8B) || ciphertext || tag (16B).
  /// The record is assembled in one pre-sized buffer: the sequence header is
  /// written in place and doubles as the AAD, and the AEAD engine encrypts
  /// directly into the tail — no intermediate ciphertext copy.
  common::Result<common::Bytes> seal(common::BytesView plaintext);

  /// Decrypts the next record into `plaintext` (resized to fit), so receive
  /// loops amortize one allocation across records; enforces strict sequence
  /// ordering.
  common::Status open_to(common::BytesView record, common::Bytes& plaintext);

  /// AEAD backend the established channel dispatches to.
  crypto::AeadBackend crypto_backend() const noexcept {
    return send_ctx_ ? send_ctx_->backend() : crypto::default_aead_backend();
  }

  /// Wire overhead per record in bytes (for bandwidth accounting).
  static constexpr std::size_t record_overhead() noexcept { return 8 + 16; }

 private:
  static crypto::Sha256Digest bind_key(const crypto::X25519Key& eph_pub);

  const QuotingAuthority* authority_;
  EnclaveIdentity self_identity_;
  Measurement expected_peer_measurement_;
  bool initiator_;
  crypto::X25519KeyPair ephemeral_;
  Quote self_quote_;

  bool established_ = false;
  EnclaveIdentity peer_identity_;
  /// Per-direction AEAD contexts: key schedule + GHASH tables expanded once
  /// at handshake completion, reused for every record on the channel.
  std::optional<crypto::GcmContext> send_ctx_;
  std::optional<crypto::GcmContext> recv_ctx_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace gendpr::tee
