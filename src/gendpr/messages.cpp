#include "gendpr/messages.hpp"

namespace gendpr::wire {

void FieldCodec<stats::LrMatrix>::write(Writer& w, const stats::LrMatrix& m) {
  w.u32(static_cast<std::uint32_t>(m.rows()));
  w.u32(static_cast<std::uint32_t>(m.cols()));
  for (double v : m.values()) w.f64(v);
}

common::Status FieldCodec<stats::LrMatrix>::read(Reader& r,
                                                 stats::LrMatrix& m) {
  auto rows = r.u32();
  if (!rows.ok()) return rows.error();
  auto cols = r.u32();
  if (!cols.ok()) return cols.error();
  const std::uint64_t cells =
      static_cast<std::uint64_t>(rows.value()) * cols.value();
  if (cells > r.remaining() / 8) {
    return common::make_error(common::Errc::bad_message,
                              "LR matrix body truncated");
  }
  m = stats::LrMatrix(rows.value(), cols.value());
  for (std::uint64_t i = 0; i < cells; ++i) {
    m.values()[i] = r.f64().value();  // size pre-validated
  }
  return common::Status::success();
}

}  // namespace gendpr::wire

namespace gendpr::core {

using common::Errc;
using common::make_error;
using common::Status;

Status Phase2Result::validate() const {
  if (num_tiles == 0 || tile_index >= num_tiles) {
    return make_error(Errc::bad_message, "phase2 tile index out of range");
  }
  return Status::success();
}

Status LrPlanes::validate() const {
  if (words.size() != std::uint64_t{width} * std::uint64_t{words_per_column}) {
    return make_error(Errc::bad_message, "LR plane word count mismatch");
  }
  return Status::success();
}

common::Result<std::pair<MsgType, common::BytesView>> open_envelope(
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
