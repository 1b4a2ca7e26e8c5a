// The production-shaped session store (DESIGN.md §5h): an append-only
// sequence of columnar segments. Records decompose into POD columns at
// insert (SNI interned to a TokenId), full segments seal with a ZoneMap,
// and — when a resident-segment budget is configured — the oldest sealed
// segments spill to versioned binary files (segment_io.hpp) that queries
// mmap back one at a time. Aggregations therefore run over 100M records
// with RSS bounded by O(active segments) instead of O(rows).
//
// Thread model mirrors the seed store: SessionStore itself is externally
// synchronized; SynchronizedSessionStore is the mutex facade the sharded
// pipeline's funnel sink uses. The multi-writer segment-handoff path lives
// in sharded_store.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/interner.hpp"
#include "telemetry/query.hpp"
#include "telemetry/record.hpp"
#include "telemetry/segment.hpp"
#include "telemetry/segment_io.hpp"

namespace vpscope::telemetry {

struct StoreOptions {
  /// Rows per segment before it seals. Large enough to amortize per-segment
  /// overhead, small enough that zone maps prune meaningfully.
  std::size_t segment_rows = 64 * 1024;
  /// Sealed segments kept in RAM; beyond this the oldest spill to disk.
  /// 0 = unbounded (never spill).
  std::size_t max_resident_segments = 0;
  /// Where spill files go. Created on first spill. Callers must point this
  /// inside their own scratch space (tests/benches use the build tree).
  std::string spill_dir = "telemetry-spill";
};

struct StoreStats {
  std::size_t rows = 0;
  std::size_t active_rows = 0;         // staging segment, not yet sealed
  std::size_t resident_segments = 0;   // sealed, in RAM
  std::size_t spilled_segments = 0;
  std::size_t spilled_rows = 0;
  std::size_t resident_bytes = 0;      // column bytes of resident rows
  std::uint64_t segments_scanned = 0;  // cumulative, across queries
  std::uint64_t segments_skipped = 0;  // zone-map prunes
  std::uint64_t spill_read_failures = 0;
};

class SessionStore {
 public:
  SessionStore() = default;
  explicit SessionStore(StoreOptions options) : options_(std::move(options)) {}

  void insert(SessionRecord record);

  /// Adopts an externally staged segment as sealed (the multi-writer
  /// handoff). Rows keep their SNI ids, which must come from this store's
  /// interner.
  void adopt(SegmentColumns segment);

  /// Seals the staging segment early (tests, pre-spill flushes).
  void seal_active();

  std::size_t size() const { return rows_; }

  /// Materializes every record in insertion order. O(rows) allocation —
  /// compat/test surface, not a hot path.
  std::vector<SessionRecord> records() const;

  double watch_hours(const Query& query) const;

  std::vector<double> bandwidth_mbps(const Query& query) const;

  std::array<double, 24> hourly_volume_gb(const Query& query) const;

  double unknown_fraction() const;

  const StoreOptions& options() const { return options_; }
  StoreStats stats() const;
  core::TokenInterner& interner() { return interner_; }
  const core::TokenInterner& interner() const { return interner_; }

 private:
  struct Sealed {
    std::shared_ptr<const SegmentColumns> columns;  // null when spilled
    std::shared_ptr<const SpilledSegment> spilled;  // null when resident
    ZoneMap zone;
  };

  /// Runs `fn` over every segment a query on `q` must scan, in insertion
  /// order (zone-map-pruned sealed segments first, staging segment last).
  /// Spilled segments are mapped for the duration of their callback only.
  void for_each_segment(const CompiledQuery& q,
                        const std::function<void(const ColumnsView&)>& fn)
      const;

  void maybe_spill();
  std::string_view sni_of(core::TokenId id) const {
    return id == core::TokenInterner::kUnseenId ? std::string_view{}
                                                : interner_.token(id);
  }

  StoreOptions options_;
  core::TokenInterner interner_;
  std::vector<Sealed> sealed_;
  SegmentColumns active_;
  std::size_t rows_ = 0;
  std::size_t unknown_ = 0;
  // Query-side observability; the store is externally synchronized, so
  // plain counters suffice.
  mutable std::uint64_t segments_scanned_ = 0;
  mutable std::uint64_t segments_skipped_ = 0;
  mutable std::uint64_t spill_read_failures_ = 0;
};

/// Thread-safe facade over SessionStore for the sharded pipeline: records
/// from all shard workers funnel through one mutex-protected insert, the
/// paper's many-cores-one-database write path (§5.1). Analysis runs on a
/// quiescent snapshot, keeping SessionStore's query API lock-free. For the
/// scale-out path that skips this funnel, see ShardedSessionStore.
class SynchronizedSessionStore {
 public:
  SynchronizedSessionStore() = default;
  explicit SynchronizedSessionStore(StoreOptions options)
      : store_(std::move(options)) {}

  void insert(SessionRecord record);

  std::size_t size() const;

  /// Copies the store out for (single-threaded) analysis. Sealed segments
  /// are shared, not duplicated, so this is O(segments), not O(rows). Call
  /// once the pipeline is drained.
  SessionStore snapshot() const;

  /// A sink closure bound to this store, for VideoFlowPipeline::set_sink /
  /// ShardedPipeline::set_sink. The store must outlive the pipeline.
  std::function<void(SessionRecord)> sink();

 private:
  mutable std::mutex mutex_;
  SessionStore store_;
};

}  // namespace vpscope::telemetry
