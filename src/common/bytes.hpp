// Byte-buffer utilities shared by every module.
//
// `Bytes` is the project-wide owning byte buffer; spans of `const std::uint8_t`
// are used for non-owning views. Helpers here cover hex encoding (for
// logging digests), constant-time comparison (for MAC verification), and
// explicit zeroization of key material.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gendpr::common {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encodes `data` as lowercase hex.
std::string to_hex(BytesView data);

/// Constant-time equality; safe for comparing MACs and tags. Returns false
/// for mismatched lengths (length is not secret in our protocols).
bool ct_equal(BytesView a, BytesView b) noexcept;

/// Overwrites the buffer with zeros in a way the optimizer must not elide.
/// Used for key material leaving scope.
void secure_zero(std::span<std::uint8_t> data) noexcept;

/// Converts a string to bytes without copying semantics surprises.
Bytes to_bytes(std::string_view s);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

}  // namespace gendpr::common
