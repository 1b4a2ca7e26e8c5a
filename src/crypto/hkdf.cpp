#include "crypto/hkdf.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace vpscope::crypto {

namespace {

constexpr std::size_t kMaxOutput = 255 * Sha256::kDigestSize;
constexpr std::string_view kLabelPrefix = "tls13 ";

void check_output_size(std::size_t length) {
  if (length > kMaxOutput)
    throw std::invalid_argument("hkdf_expand: length too large");
}

}  // namespace

Bytes hkdf_extract(ByteView salt, ByteView ikm) {
  const auto prk = hmac_sha256(salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
  check_output_size(length);
  Bytes okm(length);
  hkdf_expand(HmacSha256(prk), info, okm);
  return okm;
}

Bytes hkdf_expand_label(ByteView secret, std::string_view label,
                        ByteView context, std::size_t length) {
  check_output_size(length);
  Bytes okm(length);
  hkdf_expand_label(HmacSha256(secret), label, context, okm);
  return okm;
}

void hkdf_expand(const HmacSha256& prk, ByteView info,
                 std::span<std::uint8_t> out) {
  check_output_size(out.size());
  Sha256::Digest t{};  // T(i-1); T(0) is empty
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  for (std::size_t pos = 0; pos < out.size(); pos += t.size(), ++counter) {
    t = prk.mac({ByteView{t.data(), t_len}, info, ByteView{&counter, 1}});
    t_len = t.size();
    std::copy_n(t.begin(), std::min(t.size(), out.size() - pos),
                out.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

void hkdf_expand_label(const HmacSha256& secret, std::string_view label,
                       ByteView context, std::span<std::uint8_t> out) {
  // struct HkdfLabel { uint16 length; opaque label<7..255>; opaque context<0..255>; }
  if (kLabelPrefix.size() + label.size() > 255 || context.size() > 255)
    throw std::invalid_argument("hkdf_expand_label: label or context too long");
  std::array<std::uint8_t, 2 + 1 + 255 + 1 + 255> info;
  auto at = info.begin();
  *at++ = static_cast<std::uint8_t>(out.size() >> 8);
  *at++ = static_cast<std::uint8_t>(out.size());
  *at++ = static_cast<std::uint8_t>(kLabelPrefix.size() + label.size());
  at = std::copy(kLabelPrefix.begin(), kLabelPrefix.end(), at);
  at = std::copy(label.begin(), label.end(), at);
  *at++ = static_cast<std::uint8_t>(context.size());
  at = std::copy(context.begin(), context.end(), at);
  hkdf_expand(secret,
              ByteView{info.data(), static_cast<std::size_t>(at - info.begin())},
              out);
}

}  // namespace vpscope::crypto
