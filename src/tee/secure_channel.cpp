#include "tee/secure_channel.hpp"

#include "crypto/hkdf.hpp"
#include "wire/serialize.hpp"

namespace gendpr::tee {

namespace {

crypto::GcmNonce nonce_for_seq(std::uint64_t seq) noexcept {
  crypto::GcmNonce nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

}  // namespace

crypto::Sha256Digest SecureChannel::bind_key(
    const crypto::X25519Key& eph_pub) {
  crypto::Sha256 h;
  h.update(common::to_bytes("gendpr.channel.bind.v1"));
  h.update(common::BytesView(eph_pub.data(), eph_pub.size()));
  return h.finish();
}

SecureChannel::SecureChannel(const QuotingAuthority& authority,
                             const EnclaveIdentity& self_identity,
                             const Measurement& expected_peer_measurement,
                             bool initiator, crypto::Csprng& rng)
    : authority_(&authority),
      self_identity_(self_identity),
      expected_peer_measurement_(expected_peer_measurement),
      initiator_(initiator),
      ephemeral_(crypto::x25519_keypair(rng.array<32>())),
      self_quote_(
          authority.issue(self_identity, bind_key(ephemeral_.public_key))) {}

common::Bytes SecureChannel::handshake_message() const {
  wire::Writer w;
  w.bytes(self_quote_.serialize());
  w.raw(common::BytesView(ephemeral_.public_key.data(),
                          ephemeral_.public_key.size()));
  return std::move(w).take();
}

common::Status SecureChannel::complete(common::BytesView peer_handshake) {
  if (established_) {
    return common::make_error(common::Errc::state_violation,
                              "channel already established");
  }
  wire::Reader r(peer_handshake);
  auto quote_bytes = r.bytes();
  if (!quote_bytes.ok()) return quote_bytes.error();
  auto peer_pub_raw = r.raw(crypto::kX25519KeySize);
  if (!peer_pub_raw.ok()) return peer_pub_raw.error();
  if (!r.exhausted()) {
    return common::make_error(common::Errc::bad_message,
                              "trailing bytes after handshake");
  }

  auto quote = Quote::deserialize(quote_bytes.value());
  if (!quote.ok()) return quote.error();

  crypto::X25519Key peer_pub;
  std::copy(peer_pub_raw.value().begin(), peer_pub_raw.value().end(),
            peer_pub.begin());

  // Attestation policy: authentic quote, expected trusted module, and the
  // quote must bind this very ephemeral key.
  if (auto status = authority_->verify_measurement(
          quote.value(), expected_peer_measurement_);
      !status.ok()) {
    return status;
  }
  const crypto::Sha256Digest expected_binding = bind_key(peer_pub);
  if (!common::ct_equal(
          common::BytesView(expected_binding.data(), expected_binding.size()),
          common::BytesView(quote.value().report_data.data(),
                            quote.value().report_data.size()))) {
    return common::make_error(common::Errc::attestation_rejected,
                              "quote does not bind handshake key");
  }

  const crypto::X25519Key shared = crypto::x25519(ephemeral_.secret, peer_pub);

  // Transcript: initiator key, then responder key - both sides compute it
  // identically regardless of message arrival order.
  crypto::Sha256 transcript;
  transcript.update(common::to_bytes("gendpr.channel.transcript.v1"));
  const crypto::X25519Key& init_pub =
      initiator_ ? ephemeral_.public_key : peer_pub;
  const crypto::X25519Key& resp_pub =
      initiator_ ? peer_pub : ephemeral_.public_key;
  transcript.update(common::BytesView(init_pub.data(), init_pub.size()));
  transcript.update(common::BytesView(resp_pub.data(), resp_pub.size()));
  const crypto::Sha256Digest salt = transcript.finish();

  const common::Bytes i2r = crypto::hkdf(
      common::BytesView(salt.data(), salt.size()),
      common::BytesView(shared.data(), shared.size()),
      common::to_bytes("gendpr.channel.key.i2r"), 32);
  const common::Bytes r2i = crypto::hkdf(
      common::BytesView(salt.data(), salt.size()),
      common::BytesView(shared.data(), shared.size()),
      common::to_bytes("gendpr.channel.key.r2i"), 32);
  send_ctx_.emplace(common::BytesView(initiator_ ? i2r : r2i));
  recv_ctx_.emplace(common::BytesView(initiator_ ? r2i : i2r));

  peer_identity_ = quote.value().identity;
  established_ = true;
  return common::Status::success();
}

common::Result<common::Bytes> SecureChannel::seal(
    common::BytesView plaintext) {
  if (!established_) {
    return common::make_error(common::Errc::state_violation,
                              "seal before handshake completed");
  }
  const std::uint64_t seq = send_seq_++;
  // One buffer, sized up front: seq header || ciphertext || tag. The header
  // bytes double as the AAD view, so nothing is serialized twice.
  common::Bytes record(8 + plaintext.size() + crypto::kGcmTagSize);
  for (int i = 0; i < 8; ++i) {
    record[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  send_ctx_->seal_into(nonce_for_seq(seq),
                       common::BytesView(record.data(), 8), plaintext,
                       record.data() + 8);
  return record;
}

common::Status SecureChannel::open_to(common::BytesView record,
                                      common::Bytes& plaintext) {
  if (!established_) {
    return common::make_error(common::Errc::state_violation,
                              "open before handshake completed");
  }
  wire::Reader r(record);
  auto seq = r.u64();
  if (!seq.ok()) return seq.error();
  if (seq.value() != recv_seq_) {
    return common::make_error(
        common::Errc::bad_message,
        "record out of order (replay or drop): expected seq " +
            std::to_string(recv_seq_) + ", got " +
            std::to_string(seq.value()));
  }
  if (auto status = recv_ctx_->open_to(nonce_for_seq(seq.value()),
                                       common::BytesView(record.data(), 8),
                                       record.subspan(8), plaintext);
      !status.ok()) {
    return status;
  }
  ++recv_seq_;
  return common::Status::success();
}

}  // namespace gendpr::tee
