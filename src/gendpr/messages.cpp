#include "gendpr/messages.hpp"

#include "wire/serialize.hpp"

namespace gendpr::core {

using common::Errc;
using common::make_error;
using common::Result;

namespace {

common::Error trailing() {
  return make_error(Errc::bad_message, "trailing bytes after message");
}

/// Encoded-size helpers mirroring wire::Writer's formats, so every
/// encoded_size() is exact — serialization reserves once and never regrows.
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::size_t vec_u32_size(const std::vector<std::uint32_t>& v) {
  return varint_size(v.size()) + 4 * v.size();
}

std::size_t matrix_size(const stats::LrMatrix& m) {
  return 4 + 4 + 8 * m.values().size();
}

void write_matrix(wire::Writer& w, const stats::LrMatrix& m) {
  w.u32(static_cast<std::uint32_t>(m.rows()));
  w.u32(static_cast<std::uint32_t>(m.cols()));
  for (double v : m.values()) w.f64(v);
}

Result<stats::LrMatrix> read_matrix(wire::Reader& r) {
  auto rows = r.u32();
  if (!rows.ok()) return rows.error();
  auto cols = r.u32();
  if (!cols.ok()) return cols.error();
  const std::uint64_t cells =
      static_cast<std::uint64_t>(rows.value()) * cols.value();
  if (cells > r.remaining() / 8) {
    return make_error(Errc::bad_message, "LR matrix body truncated");
  }
  stats::LrMatrix m(rows.value(), cols.value());
  for (std::uint64_t i = 0; i < cells; ++i) {
    m.values()[i] = r.f64().value();  // size pre-validated
  }
  return m;
}

}  // namespace

std::size_t StudyAnnounce::encoded_size() const { return 4 + 4; }

void StudyAnnounce::serialize_into(wire::Writer& w) const {
  w.u32(num_snps);
  w.u32(snp_tile_width);
}

Result<StudyAnnounce> StudyAnnounce::deserialize(common::BytesView data) {
  wire::Reader r(data);
  StudyAnnounce msg;
  for (std::uint32_t* field : {&msg.num_snps, &msg.snp_tile_width}) {
    auto v = r.u32();
    if (!v.ok()) return v.error();
    *field = v.value();
  }
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t SummaryStats::encoded_size() const {
  return vec_u32_size(case_counts) + 4 + 4;
}

void SummaryStats::serialize_into(wire::Writer& w) const {
  w.vector_u32(case_counts);
  w.u32(n_case);
  w.u32(tile_index);
}

Result<SummaryStats> SummaryStats::deserialize(common::BytesView data) {
  wire::Reader r(data);
  SummaryStats msg;
  auto counts = r.vector_u32();
  if (!counts.ok()) return counts.error();
  msg.case_counts = std::move(counts).take();
  auto n = r.u32();
  if (!n.ok()) return n.error();
  msg.n_case = n.value();
  auto tile = r.u32();
  if (!tile.ok()) return tile.error();
  msg.tile_index = tile.value();
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t Phase1Result::encoded_size() const {
  return vec_u32_size(retained);
}

void Phase1Result::serialize_into(wire::Writer& w) const {
  w.vector_u32(retained);
}

Result<Phase1Result> Phase1Result::deserialize(common::BytesView data) {
  wire::Reader r(data);
  Phase1Result msg;
  auto retained = r.vector_u32();
  if (!retained.ok()) return retained.error();
  msg.retained = std::move(retained).take();
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t MomentsRequest::encoded_size() const { return 3 * 4; }

void MomentsRequest::serialize_into(wire::Writer& w) const {
  w.u32(request_id);
  w.u32(snp_a);
  w.u32(snp_b);
}

Result<MomentsRequest> MomentsRequest::deserialize(common::BytesView data) {
  wire::Reader r(data);
  MomentsRequest msg;
  for (std::uint32_t* field : {&msg.request_id, &msg.snp_a, &msg.snp_b}) {
    auto v = r.u32();
    if (!v.ok()) return v.error();
    *field = v.value();
  }
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t MomentsResponse::encoded_size() const { return 4 + 4; }

void MomentsResponse::serialize_into(wire::Writer& w) const {
  w.u32(request_id);
  w.u32(co_count);
}

Result<MomentsResponse> MomentsResponse::deserialize(common::BytesView data) {
  wire::Reader r(data);
  MomentsResponse msg;
  for (std::uint32_t* field : {&msg.request_id, &msg.co_count}) {
    auto v = r.u32();
    if (!v.ok()) return v.error();
    *field = v.value();
  }
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t LdWindow::encoded_size() const { return 4 + vec_u32_size(counts); }

void LdWindow::serialize_into(wire::Writer& w) const {
  w.u32(tile_index);
  w.vector_u32(counts);
}

Result<LdWindow> LdWindow::deserialize(common::BytesView data) {
  wire::Reader r(data);
  LdWindow msg;
  auto tile = r.u32();
  if (!tile.ok()) return tile.error();
  msg.tile_index = tile.value();
  auto counts = r.vector_u32();
  if (!counts.ok()) return counts.error();
  msg.counts = std::move(counts).take();
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t Phase2Result::encoded_size() const {
  return vec_u32_size(retained) + 4 + 4;
}

void Phase2Result::serialize_into(wire::Writer& w) const {
  w.vector_u32(retained);
  w.u32(tile_index);
  w.u32(num_tiles);
}

Result<Phase2Result> Phase2Result::deserialize(common::BytesView data) {
  wire::Reader r(data);
  Phase2Result msg;
  auto retained = r.vector_u32();
  if (!retained.ok()) return retained.error();
  msg.retained = std::move(retained).take();
  auto tile = r.u32();
  if (!tile.ok()) return tile.error();
  msg.tile_index = tile.value();
  auto tiles = r.u32();
  if (!tiles.ok()) return tiles.error();
  msg.num_tiles = tiles.value();
  if (msg.num_tiles == 0 || msg.tile_index >= msg.num_tiles) {
    return make_error(Errc::bad_message, "phase2 tile index out of range");
  }
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t LrMatrices::encoded_size() const {
  std::size_t size = varint_size(entries.size());
  for (const Entry& entry : entries) {
    size += 4 + matrix_size(entry.matrix);
  }
  return size + 4;
}

void LrMatrices::serialize_into(wire::Writer& w) const {
  w.varint(entries.size());
  for (const Entry& entry : entries) {
    w.u32(entry.combination_id);
    write_matrix(w, entry.matrix);
  }
  w.u32(tile_index);
}

common::Bytes LrMatrices::serialize() const {
  wire::Writer w;
  w.reserve(encoded_size());
  serialize_into(w);
  return std::move(w).take();
}

Result<LrMatrices> LrMatrices::deserialize(common::BytesView data) {
  wire::Reader r(data);
  LrMatrices msg;
  auto count = r.varint();
  if (!count.ok()) return count.error();
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    Entry entry;
    auto id = r.u32();
    if (!id.ok()) return id.error();
    entry.combination_id = id.value();
    auto matrix = read_matrix(r);
    if (!matrix.ok()) return matrix.error();
    entry.matrix = std::move(matrix).take();
    msg.entries.push_back(std::move(entry));
  }
  auto tile = r.u32();
  if (!tile.ok()) return tile.error();
  msg.tile_index = tile.value();
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t LrPlanes::encoded_size() const {
  return 4 + 4 + 4 + varint_size(words.size()) + 8 * words.size();
}

void LrPlanes::serialize_into(wire::Writer& w) const {
  w.u32(tile_index);
  w.u32(width);
  w.u32(words_per_column);
  w.vector_u64(words);
}

Result<LrPlanes> LrPlanes::deserialize(common::BytesView data) {
  wire::Reader r(data);
  LrPlanes msg;
  for (std::uint32_t* field :
       {&msg.tile_index, &msg.width, &msg.words_per_column}) {
    auto v = r.u32();
    if (!v.ok()) return v.error();
    *field = v.value();
  }
  auto words = r.vector_u64();
  if (!words.ok()) return words.error();
  msg.words = std::move(words).take();
  if (msg.words.size() !=
      std::uint64_t{msg.width} * std::uint64_t{msg.words_per_column}) {
    return make_error(Errc::bad_message, "LR plane word count mismatch");
  }
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t Phase3Result::encoded_size() const { return vec_u32_size(safe); }

void Phase3Result::serialize_into(wire::Writer& w) const {
  w.vector_u32(safe);
}

Result<Phase3Result> Phase3Result::deserialize(common::BytesView data) {
  wire::Reader r(data);
  Phase3Result msg;
  auto safe = r.vector_u32();
  if (!safe.ok()) return safe.error();
  msg.safe = std::move(safe).take();
  if (!r.exhausted()) return trailing();
  return msg;
}

std::size_t AbortNotice::encoded_size() const {
  return 4 + varint_size(reason.size()) + reason.size();
}

void AbortNotice::serialize_into(wire::Writer& w) const {
  w.u32(failed_gdo);
  w.string(reason);
}

Result<AbortNotice> AbortNotice::deserialize(common::BytesView data) {
  wire::Reader r(data);
  AbortNotice msg;
  auto failed = r.u32();
  if (!failed.ok()) return failed.error();
  msg.failed_gdo = failed.value();
  auto reason = r.string();
  if (!reason.ok()) return reason.error();
  msg.reason = std::move(reason).take();
  if (!r.exhausted()) return trailing();
  return msg;
}

Result<std::pair<MsgType, common::BytesView>> open_envelope(
    common::BytesView data) {
  if (data.empty()) {
    return make_error(Errc::bad_message, "empty envelope");
  }
  const std::uint8_t tag = data[0];
  if (tag < static_cast<std::uint8_t>(MsgType::study_announce) ||
      tag > static_cast<std::uint8_t>(MsgType::ld_window)) {
    return make_error(Errc::bad_message, "unknown message type");
  }
  return std::make_pair(static_cast<MsgType>(tag), data.subspan(1));
}

}  // namespace gendpr::core
