#include "core/interner.hpp"

#include <charconv>
#include <optional>

namespace vpscope::core {

namespace {

/// The value of a token that is a canonical decimal (digits only, no
/// leading zero unless it is "0", within u64): exactly the tokens
/// std::to_chars produces for some value.
std::optional<std::uint64_t> canonical_decimal(std::string_view token) {
  if (token.empty() || (token[0] == '0' && token.size() > 1))
    return std::nullopt;
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size())
    return std::nullopt;
  return value;
}

}  // namespace

std::uint64_t TokenInterner::hash(std::string_view token) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : token) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TokenId TokenInterner::lookup(std::string_view token) const {
  if (slots_.empty()) return kUnseenId;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash(token) & mask;; i = (i + 1) & mask) {
    const TokenId id = slots_[i];
    if (id == kUnseenId) return kUnseenId;
    if (tokens_[id - 1] == token) return id;
  }
}

std::size_t TokenInterner::number_hash(std::uint64_t value,
                                      std::size_t mask) {
  // Fibonacci hashing: the high bits of the product mix every input bit.
  return static_cast<std::size_t>((value * 0x9e3779b97f4a7c15ull) >> 32) &
         mask;
}

TokenId TokenInterner::lookup_number(std::uint64_t value) const {
  if (!frozen_) {
    char buf[20];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    (void)ec;  // 20 digits hold every u64
    return lookup(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  const std::size_t mask = number_slots_.size() - 1;
  for (std::size_t i = number_hash(value, mask);; i = (i + 1) & mask) {
    const NumberSlot& slot = number_slots_[i];
    if (slot.id == kUnseenId || slot.value == value) return slot.id;
  }
}

void TokenInterner::build_number_slots() {
  std::size_t numbers = 0;
  for (const auto& token : tokens_) numbers += canonical_decimal(token) ? 1 : 0;
  std::size_t slot_count = 16;
  while (numbers * 10 >= slot_count * 7) slot_count *= 2;
  number_slots_.assign(slot_count, NumberSlot{});
  const std::size_t mask = slot_count - 1;
  for (TokenId id = 1; id <= tokens_.size(); ++id) {
    const auto value = canonical_decimal(tokens_[id - 1]);
    if (!value) continue;
    std::size_t i = number_hash(*value, mask);
    while (number_slots_[i].id != kUnseenId) i = (i + 1) & mask;
    number_slots_[i] = {*value, id};
  }
}

TokenId TokenInterner::intern(std::string_view token) {
  const TokenId found = lookup(token);
  if (found != kUnseenId || frozen_) return found;
  tokens_.emplace_back(token);
  const auto id = static_cast<TokenId>(tokens_.size());
  // Keep the load factor under ~0.7 while growing.
  if (slots_.empty() || tokens_.size() * 10 >= slots_.size() * 7)
    rehash(slots_.empty() ? 16 : slots_.size() * 2);
  else
    insert_slot(id);
  return id;
}

void TokenInterner::insert_slot(TokenId id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(tokens_[id - 1]) & mask;
  while (slots_[i] != kUnseenId) i = (i + 1) & mask;
  slots_[i] = id;
}

void TokenInterner::rehash(std::size_t slot_count) {
  slots_.assign(slot_count, kUnseenId);
  for (TokenId id = 1; id <= tokens_.size(); ++id) insert_slot(id);
}

void TokenInterner::freeze() {
  if (frozen_) return;
  // Fit the table tight: smallest power of two keeping the load under ~0.7.
  std::size_t slot_count = 16;
  while (tokens_.size() * 10 >= slot_count * 7) slot_count *= 2;
  rehash(slot_count);
  build_number_slots();
  frozen_ = true;
}

std::string_view TokenInterner::token(TokenId id) const {
  if (id == kUnseenId || id > tokens_.size()) return "<unseen>";
  return tokens_[id - 1];
}

}  // namespace vpscope::core
