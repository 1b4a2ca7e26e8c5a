#include "telemetry/flat_store.hpp"

namespace vpscope::telemetry {

void FlatSessionStore::insert(SessionRecord record) {
  if (record.outcome == Outcome::Unknown) ++unknown_;
  records_.push_back(std::move(record));
}

double FlatSessionStore::watch_hours(const Query& query) const {
  double seconds = 0.0;
  for (const auto& r : records_)
    if (query.matches(r)) seconds += r.counters.duration_s();
  return seconds / 3600.0;
}

std::vector<double> FlatSessionStore::bandwidth_mbps(
    const Query& query) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (!query.matches(r)) continue;
    const double mbps = r.counters.mean_downstream_mbps();
    if (mbps > 0) out.push_back(mbps);
  }
  return out;
}

std::array<double, 24> FlatSessionStore::hourly_volume_gb(
    const Query& query) const {
  std::array<double, 24> out{};
  for (const auto& r : records_)
    if (query.matches(r))
      accumulate_hourly_volume_gb(out, r.counters.first_us, r.counters.last_us,
                                  r.counters.bytes_down);
  return out;
}

double FlatSessionStore::unknown_fraction() const {
  return records_.empty()
             ? 0.0
             : static_cast<double>(unknown_) /
                   static_cast<double>(records_.size());
}

}  // namespace vpscope::telemetry
