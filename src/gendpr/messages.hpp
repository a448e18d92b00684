// Protocol messages exchanged between GenDPR enclaves.
//
// Every message travels as plaintext only *inside* enclaves: hosts see the
// serialized form already sealed into a SecureChannel record. The envelope
// is one type byte (the message's kType) followed by the message body.
//
// Each struct's static fields() list is its wire layout, in order; the
// walker in wire/fields.hpp derives wire::encoded_size, wire::encode_into
// and wire::decode<M> from it. Decoding is fully bounds-checked and rejects
// trailing garbage, so malformed or truncated inputs from a compromised
// host surface as bad_message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"
#include "wire/fields.hpp"
#include "wire/serialize.hpp"

namespace gendpr::wire {

/// An LrMatrix field: u32 rows, u32 cols, then the rows x cols cells as
/// f64, row by row. Decoding checks the cells fit the rest of the body
/// before it allocates.
template <>
struct FieldCodec<stats::LrMatrix> {
  static std::size_t size(const stats::LrMatrix& m) {
    return 4 + 4 + 8 * m.values().size();
  }
  static void write(Writer& w, const stats::LrMatrix& m);
  static common::Status read(Reader& r, stats::LrMatrix& m);
};

}  // namespace gendpr::wire

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
  static constexpr MsgType kType = MsgType::study_announce;

  std::uint32_t num_snps = 0;
  std::uint32_t snp_tile_width = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.num_snps);
    f(m.snp_tile_width);
  }
};

/// Member -> leader: local allele-count vector over one SNP tile and the
/// local case population size (§5.2's caseLocalCounts / N^case_g). With
/// tiling disabled the single tile covers all of L_des (`tile_index` 0);
/// with a positive `snp_tile_width` a member streams one SummaryStats per
/// tile, each body bounded by the tile width, and the leader assesses tiles
/// as soon as every live member delivered them.
struct SummaryStats {
  static constexpr MsgType kType = MsgType::summary_stats;

  std::vector<std::uint32_t> case_counts;
  std::uint32_t n_case = 0;
  /// Which tile of the announce-derived TilePlan `case_counts` covers.
  std::uint32_t tile_index = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.case_counts);
    f(m.n_case);
    f(m.tile_index);
  }
};

/// Leader -> members: SNPs retained by the (intersected) MAF analysis.
struct Phase1Result {
  static constexpr MsgType kType = MsgType::phase1_result;

  std::vector<std::uint32_t> retained;  // L'

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.retained); }
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
  static constexpr MsgType kType = MsgType::ld_window;

  std::uint32_t tile_index = 0;
  std::vector<std::uint32_t> counts;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.tile_index);
    f(m.counts);
  }
};

/// Leader -> members: request for the co-occurrence count of one SNP pair
/// the walk needs beyond the LD window (sent to every live member on the
/// pair's first touch, to a member with a missing count afterwards).
struct MomentsRequest {
  static constexpr MsgType kType = MsgType::moments_request;

  std::uint32_t request_id = 0;
  std::uint32_t snp_a = 0;
  std::uint32_t snp_b = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.request_id);
    f(m.snp_a);
    f(m.snp_b);
  }
};

/// Member -> leader: popcount(plane[snp_a] & plane[snp_b]) for the request.
struct MomentsResponse {
  static constexpr MsgType kType = MsgType::moments_response;

  std::uint32_t request_id = 0;
  std::uint32_t co_count = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.request_id);
    f(m.co_count);
  }
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
  static constexpr MsgType kType = MsgType::phase2_result;

  std::vector<std::uint32_t> retained;  // L'' (this tile's SNPs)
  std::uint32_t tile_index = 0;
  std::uint32_t num_tiles = 1;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.retained);
    f(m.tile_index);
    f(m.num_tiles);
  }
  /// Run by wire::decode once the fields parse.
  common::Status validate() const;
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
  static constexpr MsgType kType = MsgType::lr_planes;

  std::uint32_t tile_index = 0;
  std::uint32_t width = 0;
  std::uint32_t words_per_column = 0;
  std::vector<std::uint64_t> words;  // width * words_per_column, by column

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.tile_index);
    f(m.width);
    f(m.words_per_column);
    f(m.words);
  }
  /// Run by wire::decode once the fields parse.
  common::Status validate() const;
};

/// Local LR matrices, one per combination that includes a GDO, each built
/// with that combination's frequency vector: the paper's Fig. 4 upload.
/// Sessions send LrPlanes instead; this codec stays as the wire-cost
/// reference of the materialized form.
struct LrMatrices {
  struct Entry {
    std::uint32_t combination_id = 0;
    stats::LrMatrix matrix;

    template <class M, class F>
    static void fields(M& m, F&& f) {
      f(m.combination_id);
      f(m.matrix);
    }
  };
  std::vector<Entry> entries;
  std::uint32_t tile_index = 0;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.entries);
    f(m.tile_index);
  }

  /// wire::encode / wire::decode under the names the benchmark harness
  /// times; they stay only for it and go with the next benchmark-only
  /// change.
  common::Bytes serialize() const { return wire::encode(*this); }
  static common::Result<LrMatrices> deserialize(common::BytesView data) {
    return wire::decode<LrMatrices>(data);
  }
};

/// Leader -> members: the final safe SNP set (intersection over
/// combinations).
struct Phase3Result {
  static constexpr MsgType kType = MsgType::phase3_result;

  std::vector<std::uint32_t> safe;  // L_safe

  template <class M, class F>
  static void fields(M& m, F&& f) { f(m.safe); }
};

/// Leader -> members: the study cannot complete; stop waiting for further
/// phase requests. `failed_gdo` names the unresponsive GDO that triggered
/// the abort (kNoFailedGdo when the cause is not a specific peer).
struct AbortNotice {
  static constexpr MsgType kType = MsgType::abort_notice;
  static constexpr std::uint32_t kNoFailedGdo = 0xffffffffu;

  std::uint32_t failed_gdo = kNoFailedGdo;
  std::string reason;

  template <class M, class F>
  static void fields(M& m, F&& f) {
    f(m.failed_gdo);
    f(m.reason);
  }
};

/// Splits an envelope into its type and body view. The body aliases `data`;
/// it stays valid exactly as long as the caller's buffer does.
common::Result<std::pair<MsgType, common::BytesView>> open_envelope(
    common::BytesView data);

}  // namespace gendpr::core
