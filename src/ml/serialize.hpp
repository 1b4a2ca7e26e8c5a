// Model persistence: a compact self-describing binary format for trained
// random forests. A production deployment (paper §5.1) trains offline and
// ships model files to the capture servers; these routines are that
// interface. The format is versioned and endian-stable (big-endian via the
// same Writer/Reader the protocol stack uses).
//
// Versions:
//   v1  forest only (trees, thresholds, leaf distributions)
//   v2  v1 forest body + the fitted FeatureEncoder dictionaries (transport
//       tag, then per catalog attribute its tokens in id order). A model and
//       its value mapping now travel as one artifact, so a capture server
//       can rebuild the allocation-free encode path without the training
//       data. v1 files still load everywhere; v2 files load through the
//       forest-only readers too (the dictionary block is validated and
//       skipped).
#pragma once

#include <iosfwd>
#include <optional>
#include <system_error>

#include "core/encoder.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/forest.hpp"
#include "util/bytes.hpp"

namespace vpscope::ml {

/// Serializes a trained forest (trees, thresholds, leaf distributions) as
/// format v1. Training-only state (params, rng) is not preserved.
Bytes serialize_forest(const RandomForest& forest);

/// Restores a forest from a v1 or v2 stream (the v2 dictionary block is
/// skipped); nullopt on malformed/truncated/mismatched input.
std::optional<RandomForest> deserialize_forest(ByteView data);

bool save_forest(const RandomForest& forest, const std::string& path);
std::optional<RandomForest> load_forest(const std::string& path);

/// A deserialized model artifact: the forest plus, for v2 streams, the
/// fitted encoder that produced its training features.
struct ForestBundle {
  RandomForest forest;
  std::optional<core::FeatureEncoder> encoder;  // nullopt for v1 files
};

/// Serializes forest + fitted encoder dictionaries as format v2.
Bytes serialize_bundle(const RandomForest& forest,
                       const core::FeatureEncoder& encoder);

/// Restores a bundle from a v1 (encoder absent) or v2 stream.
std::optional<ForestBundle> deserialize_bundle(ByteView data);

bool save_bundle(const RandomForest& forest,
                 const core::FeatureEncoder& encoder, const std::string& path);
std::optional<ForestBundle> load_bundle(const std::string& path);

/// Writes `data` to `path` with every write(2) return value checked: a
/// short write, a full disk, or a failed close surfaces as the std::errc it
/// maps to instead of a silently truncated file. {} on success.
std::error_code write_file_checked(const std::string& path, ByteView data);

/// Atomic publish protocol for model artifacts: write `path`.tmp, fsync the
/// file (and the containing directory), then rename(2) over `path`. A
/// concurrent reader — or a model-dir watcher — observes either the old
/// complete file or the new complete file, never a partial one. The
/// temporary is unlinked on any failure.
std::error_code write_file_atomic_sync(const std::string& path, ByteView data);

/// save_forest/save_bundle through the atomic publish protocol above.
std::error_code save_forest_atomic(const RandomForest& forest,
                                   const std::string& path);
std::error_code save_bundle_atomic(const RandomForest& forest,
                                   const core::FeatureEncoder& encoder,
                                   const std::string& path);

/// Deserializes a forest and lowers it directly into the inference-only
/// compiled form — the capture-server load path: models are trained and
/// serialized offline, then compiled at startup.
std::optional<CompiledForest> deserialize_compiled_forest(ByteView data);
std::optional<CompiledForest> load_compiled_forest(const std::string& path);

}  // namespace vpscope::ml
