// The seed-era session store: one flat std::vector<SessionRecord> scanned
// per query. Superseded as the default by the columnar segmented store
// (columnar.hpp) but kept as (a) the reference the flat-vs-columnar
// equivalence gate compares against, and (b) the `--store-mode flat` arm of
// the Fig. 7-11 bench A/B. Aggregation semantics are shared with the
// columnar store (record.hpp helpers), so for the same insert sequence both
// produce bit-identical results.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "telemetry/query.hpp"
#include "telemetry/record.hpp"

namespace vpscope::telemetry {

class FlatSessionStore {
 public:
  void insert(SessionRecord record);

  std::size_t size() const { return records_.size(); }
  const std::vector<SessionRecord>& records() const { return records_; }

  /// Sum of watch time (hours) over records matching the filter.
  double watch_hours(const Query& query) const;

  /// Downstream bandwidth sample (Mbit/s) per matching record, for box
  /// plots. Zero-duration records are skipped.
  std::vector<double> bandwidth_mbps(const Query& query) const;

  /// Total downstream volume (GB) per hour-of-day [0, 24) over matching
  /// records, pro-rated across the hours each flow spans (record.hpp).
  std::array<double, 24> hourly_volume_gb(const Query& query) const;

  /// Fraction of records classified as Unknown (paper: ~20% of campus
  /// sessions were excluded for low confidence).
  double unknown_fraction() const;

 private:
  std::vector<SessionRecord> records_;
  std::size_t unknown_ = 0;
};

}  // namespace vpscope::telemetry
