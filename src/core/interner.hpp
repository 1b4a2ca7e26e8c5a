// TokenInterner: the string -> TokenId substrate of the allocation-free
// attribute path. Every categorical/list token the extractors produce is a
// short byte string ("4865", "h2", "GREASE", ...); interning them once lets
// the rest of the pipeline — RawAttr, FeatureEncoder dictionaries, the
// fitted value tables — operate on dense u32 ids with no string compares or
// heap traffic between packet parse and forest input.
//
// Lifecycle mirrors the encoder's: during fit() the interner grows (every
// new token gets the next id); freeze() then fits the open-addressing probe
// table tight, indexes the decimal tokens by integer value (so numeric
// fields resolve without being rendered as text) and makes the interner
// immutable, after which lookups of unknown tokens return the reserved
// kUnseenId — exactly the open-set semantics the paper's value-mapping
// process needs (first-seen-at-inference values land in one dedicated
// bucket).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vpscope::core {

/// Dense token identity. 0 is reserved for "not in the fitted vocabulary".
using TokenId = std::uint32_t;

class TokenInterner {
 public:
  static constexpr TokenId kUnseenId = 0;

  TokenInterner() = default;

  /// Growable phase: returns the token's id, assigning the next one (ids
  /// start at 1) on first sight. After freeze() behaves exactly like
  /// lookup() — unknown tokens map to kUnseenId instead of growing.
  TokenId intern(std::string_view token);

  /// Lookup-only: the token's id, or kUnseenId when unknown. Performs no
  /// allocation (FNV-1a over the bytes + linear probing).
  TokenId lookup(std::string_view token) const;

  /// lookup() of the canonical decimal rendering of `value` ("0", "771",
  /// never "007" or "+7"), without rendering it: once frozen, an
  /// integer-keyed probe table built by freeze() from the interned tokens
  /// that are canonical decimals answers it. Before freeze() it renders
  /// the decimal and calls lookup().
  TokenId lookup_number(std::uint64_t value) const;

  /// Fits the probe table to its final size and makes the interner
  /// immutable. Idempotent.
  void freeze();
  bool frozen() const { return frozen_; }

  /// Number of distinct interned tokens (kUnseenId excluded).
  std::size_t size() const { return tokens_.size(); }

  /// Reverse lookup; "<unseen>" for kUnseenId or out-of-range ids.
  std::string_view token(TokenId id) const;

 private:
  static std::uint64_t hash(std::string_view token);
  static std::size_t number_hash(std::uint64_t value, std::size_t mask);
  void rehash(std::size_t slot_count);
  void insert_slot(TokenId id);
  void build_number_slots();

  struct NumberSlot {
    std::uint64_t value = 0;
    TokenId id = kUnseenId;  // kUnseenId = empty
  };

  std::vector<std::string> tokens_;  // id - 1 -> token bytes
  std::vector<TokenId> slots_;       // open addressing; kUnseenId = empty
  /// Frozen only: canonical-decimal tokens keyed by their value.
  std::vector<NumberSlot> number_slots_;
  bool frozen_ = false;
};

}  // namespace vpscope::core
