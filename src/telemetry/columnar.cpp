#include "telemetry/columnar.hpp"

#include <atomic>
#include <filesystem>

namespace vpscope::telemetry {

namespace {

constexpr std::uint8_t kUnknownCode =
    static_cast<std::uint8_t>(Outcome::Unknown);

/// Column bytes per row: 7 u8 + f64 + u32 (sni) + 6 u64.
constexpr std::size_t kBytesPerRow = 7 + 8 + 4 + 6 * 8;

/// Process-wide spill file counter so store copies sharing a spill_dir
/// never collide on a name.
std::string next_spill_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/segment-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".vpsg";
}

FlowCounters counters_of(const ColumnsView& v, std::size_t i) {
  FlowCounters c;
  c.first_us = v.first_us[i];
  c.last_us = v.last_us[i];
  c.bytes_down = v.bytes_down[i];
  c.bytes_up = v.bytes_up[i];
  c.packets_down = v.packets_down[i];
  c.packets_up = v.packets_up[i];
  return c;
}

}  // namespace

void SessionStore::insert(SessionRecord record) {
  if (record.outcome == Outcome::Unknown) ++unknown_;
  active_.append(record, interner_.intern(record.sni));
  ++rows_;
  if (active_.rows() >= options_.segment_rows) seal_active();
}

void SessionStore::seal_active() {
  if (active_.rows() == 0) return;
  Sealed sealed;
  sealed.zone = ZoneMap::build(active_);
  sealed.columns = std::make_shared<const SegmentColumns>(std::move(active_));
  active_ = SegmentColumns{};
  sealed_.push_back(std::move(sealed));
  maybe_spill();
}

void SessionStore::adopt(SegmentColumns segment) {
  if (segment.rows() == 0) return;
  rows_ += segment.rows();
  for (const std::uint8_t outcome : segment.outcome)
    if (outcome == kUnknownCode) ++unknown_;
  Sealed sealed;
  sealed.zone = ZoneMap::build(segment);
  sealed.columns = std::make_shared<const SegmentColumns>(std::move(segment));
  sealed_.push_back(std::move(sealed));
  maybe_spill();
}

void SessionStore::maybe_spill() {
  if (options_.max_resident_segments == 0) return;
  std::size_t resident = 0;
  for (const Sealed& s : sealed_)
    if (s.columns) ++resident;
  if (resident <= options_.max_resident_segments) return;

  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  if (ec) return;  // keep resident rather than lose data

  for (Sealed& s : sealed_) {
    if (resident <= options_.max_resident_segments) break;
    if (!s.columns) continue;
    const std::string path = next_spill_path(options_.spill_dir);
    if (!write_segment_file(path, *s.columns, interner_)) return;
    s.spilled = std::make_shared<const SpilledSegment>(
        path, static_cast<std::uint32_t>(s.columns->rows()));
    s.columns.reset();
    --resident;
  }
}

void SessionStore::for_each_segment(
    const CompiledQuery& q,
    const std::function<void(const ColumnsView&)>& fn) const {
  for (const Sealed& s : sealed_) {
    if (!s.zone.may_match(q)) {
      ++segments_skipped_;
      continue;
    }
    ++segments_scanned_;
    if (s.columns) {
      fn(s.columns->view());
    } else if (!s.spilled->with_mapping(
                   [&fn](const MappedSegment& m) { fn(m.view()); })) {
      ++spill_read_failures_;
    }
  }
  if (active_.rows() > 0) {
    ++segments_scanned_;
    fn(active_.view());
  }
}

std::vector<SessionRecord> SessionStore::records() const {
  std::vector<SessionRecord> out;
  out.reserve(rows_);
  for_each_segment(CompiledQuery(Query{}), [this, &out](const ColumnsView& v) {
    for (std::size_t i = 0; i < v.rows; ++i)
      out.push_back(materialize_row(v, i, sni_of(v.sni[i])));
  });
  return out;
}

double SessionStore::watch_hours(const Query& query) const {
  const CompiledQuery q(query);
  double seconds = 0.0;
  for_each_segment(q, [&q, &seconds](const ColumnsView& v) {
    for (std::size_t i = 0; i < v.rows; ++i)
      if (q.matches(v, i)) seconds += counters_of(v, i).duration_s();
  });
  return seconds / 3600.0;
}

std::vector<double> SessionStore::bandwidth_mbps(const Query& query) const {
  const CompiledQuery q(query);
  std::vector<double> out;
  for_each_segment(q, [&q, &out](const ColumnsView& v) {
    for (std::size_t i = 0; i < v.rows; ++i) {
      if (!q.matches(v, i)) continue;
      const double mbps = counters_of(v, i).mean_downstream_mbps();
      if (mbps > 0) out.push_back(mbps);
    }
  });
  return out;
}

std::array<double, 24> SessionStore::hourly_volume_gb(
    const Query& query) const {
  const CompiledQuery q(query);
  std::array<double, 24> out{};
  for_each_segment(q, [&q, &out](const ColumnsView& v) {
    for (std::size_t i = 0; i < v.rows; ++i)
      if (q.matches(v, i))
        accumulate_hourly_volume_gb(out, v.first_us[i], v.last_us[i],
                                    v.bytes_down[i]);
  });
  return out;
}

double SessionStore::unknown_fraction() const {
  return rows_ == 0 ? 0.0
                    : static_cast<double>(unknown_) /
                          static_cast<double>(rows_);
}

StoreStats SessionStore::stats() const {
  StoreStats stats;
  stats.rows = rows_;
  stats.active_rows = active_.rows();
  for (const Sealed& s : sealed_) {
    if (s.columns) {
      ++stats.resident_segments;
      stats.resident_bytes += s.columns->rows() * kBytesPerRow;
    } else {
      ++stats.spilled_segments;
      stats.spilled_rows += s.spilled->rows();
    }
  }
  stats.resident_bytes += active_.rows() * kBytesPerRow;
  stats.segments_scanned = segments_scanned_;
  stats.segments_skipped = segments_skipped_;
  stats.spill_read_failures = spill_read_failures_;
  return stats;
}

void SynchronizedSessionStore::insert(SessionRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_.insert(std::move(record));
}

std::size_t SynchronizedSessionStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_.size();
}

SessionStore SynchronizedSessionStore::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

std::function<void(SessionRecord)> SynchronizedSessionStore::sink() {
  return [this](SessionRecord record) { insert(std::move(record)); };
}

}  // namespace vpscope::telemetry
