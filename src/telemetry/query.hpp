// Typed, composable session-store predicates (DESIGN.md §5h). The Fig. 7-11
// aggregations all filter on the same handful of dimensions — provider,
// classification outcome, device OS / device type, software agent, start
// time — which a `std::function<bool(const SessionRecord&)>` would hide
// from the store. Expressing the filter as data instead lets the columnar
// store (a) test rows straight from the POD columns without materializing a
// SessionRecord, and (b) consult per-segment zone maps to skip segments
// that cannot contain a match. It is the stores' one query path.
#pragma once

#include <cstdint>
#include <optional>

#include "telemetry/record.hpp"

namespace vpscope::telemetry {

/// Conjunctive filter over session records; default-constructed matches
/// everything. Builder-style setters return *this so call sites read as
/// one expression: Query().provider(p).device_type(DeviceType::Mobile).
class Query {
 public:
  Query() = default;

  Query& provider(fingerprint::Provider p) { provider_ = p; return *this; }
  Query& outcome(Outcome o) { outcome_ = o; return *this; }
  /// Matches records whose confident device OS equals `os` (records with
  /// no device are never matched).
  Query& device(fingerprint::Os os) { device_ = os; return *this; }
  /// Matches records whose confident agent equals `a`.
  Query& agent(fingerprint::Agent a) { agent_ = a; return *this; }
  /// Matches records whose device OS maps to this device class (PC /
  /// Mobile / TV). Records with no confident device never match.
  Query& device_type(fingerprint::DeviceType d) { device_type_ = d; return *this; }
  /// Shorthand for device(p.os).agent(p.agent).
  Query& platform(const fingerprint::PlatformId& p) {
    return device(p.os).agent(p.agent);
  }
  /// Restricts to flows whose first packet lies in [lo_us, hi_us].
  Query& started_between(std::uint64_t lo_us, std::uint64_t hi_us) {
    start_min_us_ = lo_us;
    start_max_us_ = hi_us;
    return *this;
  }

  bool matches(const SessionRecord& r) const {
    if (provider_ && r.provider != *provider_) return false;
    if (outcome_ && r.outcome != *outcome_) return false;
    if (device_ && (!r.device || *r.device != *device_)) return false;
    if (agent_ && (!r.agent || *r.agent != *agent_)) return false;
    if (device_type_ &&
        (!r.device || device_type_of(*r.device) != *device_type_))
      return false;
    return r.counters.first_us >= start_min_us_ &&
           r.counters.first_us <= start_max_us_;
  }

  // ---- accessors the columnar scan and zone maps prune against ----
  const std::optional<fingerprint::Provider>& provider_filter() const {
    return provider_;
  }
  const std::optional<Outcome>& outcome_filter() const { return outcome_; }
  const std::optional<fingerprint::Os>& device_filter() const {
    return device_;
  }
  const std::optional<fingerprint::Agent>& agent_filter() const {
    return agent_;
  }
  const std::optional<fingerprint::DeviceType>& device_type_filter() const {
    return device_type_;
  }
  std::uint64_t start_min_us() const { return start_min_us_; }
  std::uint64_t start_max_us() const { return start_max_us_; }

  /// Device class of an OS (Table 1 pairs them 1:1).
  static fingerprint::DeviceType device_type_of(fingerprint::Os os) {
    return fingerprint::PlatformId{os, fingerprint::Agent::NativeApp}.device();
  }

 private:
  std::optional<fingerprint::Provider> provider_;
  std::optional<Outcome> outcome_;
  std::optional<fingerprint::Os> device_;
  std::optional<fingerprint::Agent> agent_;
  std::optional<fingerprint::DeviceType> device_type_;
  std::uint64_t start_min_us_ = 0;
  std::uint64_t start_max_us_ = ~std::uint64_t{0};
};

}  // namespace vpscope::telemetry
