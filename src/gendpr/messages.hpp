// Protocol messages exchanged between GenDPR enclaves.
//
// Every message travels as plaintext only *inside* enclaves: hosts see the
// serialized form already sealed into a SecureChannel record. The envelope
// is one type byte followed by the message body; deserialization is fully
// bounds-checked (wire::Reader) and rejects trailing garbage, so malformed
// or truncated inputs from a compromised host surface as bad_message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"
#include "wire/serialize.hpp"

namespace gendpr::core {

enum class MsgType : std::uint8_t {
  study_announce = 1,
  summary_stats = 2,
  phase1_result = 3,
  moments_request = 4,
  moments_response = 5,
  phase2_result = 6,
  lr_planes = 7,
  phase3_result = 8,
  abort_notice = 9,
  ld_window = 10,
};

/// LD window width: every LdWindow carries, for each L' rank, the
/// co-occurrence counts of the pairs it forms with the kLdWindow ranks
/// before it. A protocol constant (both ends must agree on the layout).
inline constexpr std::uint32_t kLdWindow = 8;

/// Leader -> members: the SNP count of the study (the member's dataset must
/// span it) and the tile width its summaries and LD windows stream in. That
/// is all a member reads: the thresholds, the collusion policy and the
/// combination table stay on the leader, which runs every decision.
struct StudyAnnounce {
  std::uint32_t num_snps = 0;
  std::uint32_t snp_tile_width = 0;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<StudyAnnounce> deserialize(common::BytesView data);
};

/// Member -> leader: local allele-count vector over one SNP tile and the
/// local case population size (§5.2's caseLocalCounts / N^case_g). With
/// tiling disabled the single tile covers all of L_des (`tile_index` 0);
/// with a positive `snp_tile_width` a member streams one SummaryStats per
/// tile, each body bounded by the tile width, and the leader assesses tiles
/// as soon as every live member delivered them.
struct SummaryStats {
  std::vector<std::uint32_t> case_counts;
  std::uint32_t n_case = 0;
  /// Which tile of the announce-derived TilePlan `case_counts` covers.
  std::uint32_t tile_index = 0;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<SummaryStats> deserialize(common::BytesView data);
};

/// Leader -> members: SNPs retained by the (intersected) MAF analysis.
struct Phase1Result {
  std::vector<std::uint32_t> retained;  // L'

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<Phase1Result> deserialize(common::BytesView data);
};

/// Member -> leader, unrequested, after Phase1Result: the co-occurrence
/// counts of every L' pair within kLdWindow ranks, over one tile of
/// TilePlan::over(|L'|, snp_tile_width) (a single tile when tiling is off).
/// For rank i of the tile starting at rank `begin` and d = 1..kLdWindow,
/// counts[(i - begin) * kLdWindow + d - 1] = popcount(plane[l'[i - d]] &
/// plane[l'[i]]); entries with i < d have no partner and are zero. With the
/// phase-1 allele counts and n_case the leader already holds, one count is
/// everything the additive LD moments of a pair need from a member.
struct LdWindow {
  std::uint32_t tile_index = 0;
  std::vector<std::uint32_t> counts;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<LdWindow> deserialize(common::BytesView data);
};

/// Leader -> members: request for the co-occurrence count of one SNP pair
/// the walk needs beyond the LD window (sent to every live member on the
/// pair's first touch, to a member with a missing count afterwards).
struct MomentsRequest {
  std::uint32_t request_id = 0;
  std::uint32_t snp_a = 0;
  std::uint32_t snp_b = 0;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<MomentsRequest> deserialize(common::BytesView data);
};

/// Member -> leader: popcount(plane[snp_a] & plane[snp_b]) for the request.
struct MomentsResponse {
  std::uint32_t request_id = 0;
  std::uint32_t co_count = 0;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<MomentsResponse> deserialize(common::BytesView data);
};

/// Leader -> members: SNPs retained after LD pruning (paper Fig. 4 step 1),
/// one message per tile of the leader's phase-3 TilePlan over L''. The
/// monolithic protocol is the `tile_index` 0 / `num_tiles` 1 special case;
/// with tiling, `retained` holds only this tile's SNPs (global ids) and
/// members reply with one LrPlanes per tile. Members need nothing else:
/// they ship indicator bits and the leader weighs them with frequencies it
/// derives itself from the phase-1 counts, so every GDO's counts stay
/// inside the leader's enclave.
struct Phase2Result {
  std::vector<std::uint32_t> retained;  // L'' (this tile's SNPs)
  std::uint32_t tile_index = 0;
  std::uint32_t num_tiles = 1;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<Phase2Result> deserialize(common::BytesView data);
};

/// Member -> leader: the member's LR indicator bits over one phase-2 tile's
/// L'' columns, sent once per tile for every combination at once. Column i
/// is SNP-major plane `retained[i]` of the tile: `words_per_column` =
/// ceil(n_case / 64) words, bit n set when local case n carries the minor
/// allele, padding bits past n_case zero. Each cell of the paper's local LR
/// matrix is `bit ? w_minor : w_major` under a combination's weights, which
/// the leader computes itself, so this is the same information in 1/64 of
/// the bytes.
struct LrPlanes {
  std::uint32_t tile_index = 0;
  std::uint32_t width = 0;
  std::uint32_t words_per_column = 0;
  std::vector<std::uint64_t> words;  // width * words_per_column, by column

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<LrPlanes> deserialize(common::BytesView data);
};

/// Local LR matrices, one per combination that includes a GDO, each built
/// with that combination's frequency vector: the paper's Fig. 4 upload.
/// Sessions send LrPlanes instead; this codec stays as the wire-cost
/// reference of the materialized form.
struct LrMatrices {
  struct Entry {
    std::uint32_t combination_id = 0;
    stats::LrMatrix matrix;
  };
  std::vector<Entry> entries;
  std::uint32_t tile_index = 0;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  common::Bytes serialize() const;
  static common::Result<LrMatrices> deserialize(common::BytesView data);
};

/// Leader -> members: the final safe SNP set (intersection over
/// combinations).
struct Phase3Result {
  std::vector<std::uint32_t> safe;  // L_safe

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<Phase3Result> deserialize(common::BytesView data);
};

/// Leader -> members: the study cannot complete; stop waiting for further
/// phase requests. `failed_gdo` names the unresponsive GDO that triggered
/// the abort (kNoFailedGdo when the cause is not a specific peer).
struct AbortNotice {
  static constexpr std::uint32_t kNoFailedGdo = 0xffffffffu;

  std::uint32_t failed_gdo = kNoFailedGdo;
  std::string reason;

  std::size_t encoded_size() const;
  void serialize_into(wire::Writer& w) const;
  static common::Result<AbortNotice> deserialize(common::BytesView data);
};

/// Every message exposes the same surface: encoded_size() returns the exact
/// byte count serialize_into() will append, so the send path reserves once
/// and never regrows; deserialize() reads a body back.

/// Type-erased reference to any protocol message (anything with
/// encoded_size()/serialize_into()). Lets the session send paths accept
/// every message type through one non-template signature while keeping the
/// message structs plain aggregates with no common base.
class MessageRef {
 public:
  template <typename M>
  // NOLINTNEXTLINE(google-explicit-constructor)
  MessageRef(const M& msg) noexcept
      : obj_(&msg),
        size_([](const void* p) {
          return static_cast<const M*>(p)->encoded_size();
        }),
        write_([](const void* p, wire::Writer& w) {
          static_cast<const M*>(p)->serialize_into(w);
        }) {}

  std::size_t encoded_size() const { return size_(obj_); }
  void serialize_into(wire::Writer& w) const { write_(obj_, w); }

 private:
  const void* obj_;
  std::size_t (*size_)(const void*);
  void (*write_)(const void*, wire::Writer&);
};

/// Splits an envelope into its type and body view. The body aliases `data`;
/// it stays valid exactly as long as the caller's buffer does.
common::Result<std::pair<MsgType, common::BytesView>> open_envelope(
    common::BytesView data);

}  // namespace gendpr::core
