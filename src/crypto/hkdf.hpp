// HKDF (RFC 5869) over SHA-256, plus the TLS 1.3 HKDF-Expand-Label
// construction (RFC 8446 §7.1) that the QUIC v1 Initial key schedule
// (RFC 9001 §5.2) is built from.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace vpscope::crypto {

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes hkdf_extract(ByteView salt, ByteView ikm);

/// HKDF-Expand: derives `length` bytes of output keying material.
/// `length` must be <= 255 * 32.
Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length);

/// HKDF-Expand-Label(secret, label, context, length) with the "tls13 "
/// label prefix, as used by both TLS 1.3 and QUIC v1.
Bytes hkdf_expand_label(ByteView secret, std::string_view label,
                        ByteView context, std::size_t length);

/// Allocation-free forms over a PRK already keyed into its HMAC pad
/// states: fill all of `out` (at most 255 * 32 bytes). The Bytes forms
/// above are these with the key given as bytes.
void hkdf_expand(const HmacSha256& prk, ByteView info,
                 std::span<std::uint8_t> out);
void hkdf_expand_label(const HmacSha256& secret, std::string_view label,
                       ByteView context, std::span<std::uint8_t> out);

}  // namespace vpscope::crypto
