#include "ml/serialize.hpp"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace vpscope::ml {

namespace {
constexpr std::uint32_t kMagic = 0x56505346;  // "VPSF"
constexpr std::uint16_t kVersionForestOnly = 1;
constexpr std::uint16_t kVersionWithEncoder = 2;
}  // namespace

namespace detail {

void write_forest_body(Writer& w, const RandomForest& forest) {
  w.u32(static_cast<std::uint32_t>(forest.num_classes_));
  w.u32(static_cast<std::uint32_t>(forest.trees_.size()));
  for (const auto& tree : forest.trees_) tree.serialize(w);
}

std::optional<RandomForest> read_forest_body(Reader& r) {
  RandomForest forest;
  forest.num_classes_ = static_cast<int>(r.u32());
  const std::uint32_t tree_count = r.u32();
  if (!r.ok() || forest.num_classes_ <= 0 || tree_count == 0 ||
      tree_count > 100'000)
    return std::nullopt;
  // A serialized tree is >= 8 header bytes; don't reserve storage a
  // truncated input cannot back (fuzz: allocation bomb).
  if (tree_count > r.remaining() / 8) return std::nullopt;
  forest.trees_.reserve(tree_count);
  for (std::uint32_t i = 0; i < tree_count; ++i) {
    auto tree = DecisionTree::deserialize(r);
    if (!tree) return std::nullopt;
    forest.trees_.push_back(std::move(*tree));
  }
  if (!r.ok()) return std::nullopt;
  return forest;
}

}  // namespace detail

namespace {

using detail::read_forest_body;
using detail::write_forest_body;

void write_encoder_block(Writer& w, const core::FeatureEncoder& encoder) {
  w.u8(static_cast<std::uint8_t>(encoder.transport()));
  w.u32(static_cast<std::uint32_t>(core::kNumAttributes));
  for (int a = 0; a < core::kNumAttributes; ++a) {
    const auto dict = encoder.dictionary(a);  // (token, id) in id order 1..n
    w.u32(static_cast<std::uint32_t>(dict.size()));
    for (const auto& [token, id] : dict) {
      w.u16(static_cast<std::uint16_t>(token.size()));
      w.raw(ByteView{reinterpret_cast<const std::uint8_t*>(token.data()),
                     token.size()});
    }
  }
}

std::optional<core::FeatureEncoder> read_encoder_block(Reader& r) {
  const std::uint8_t transport = r.u8();
  const std::uint32_t attr_count = r.u32();
  if (!r.ok() || transport > 1 ||
      attr_count != static_cast<std::uint32_t>(core::kNumAttributes))
    return std::nullopt;
  std::vector<std::vector<std::pair<std::string, int>>> dicts(
      core::kNumAttributes);
  for (std::uint32_t a = 0; a < attr_count; ++a) {
    const std::uint32_t n = r.u32();
    // Each dictionary entry occupies at least its 2-byte length prefix; a
    // count the remaining bytes cannot back must not reserve (fuzz:
    // allocation bomb on truncated bundles).
    if (!r.ok() || n > 1'000'000 || n > r.remaining() / 2) return std::nullopt;
    dicts[a].reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint16_t len = r.u16();
      const ByteView bytes = r.view(len);
      if (!r.ok()) return std::nullopt;
      dicts[a].emplace_back(
          std::string(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size()),
          static_cast<int>(i) + 1);
    }
  }
  return core::FeatureEncoder::from_dictionaries(
      static_cast<fingerprint::Transport>(transport), dicts);
}

}  // namespace

Bytes serialize_forest(const RandomForest& forest) {
  Writer w;
  w.u32(kMagic);
  w.u16(kVersionForestOnly);
  write_forest_body(w, forest);
  return std::move(w).take();
}

Bytes serialize_bundle(const RandomForest& forest,
                       const core::FeatureEncoder& encoder) {
  Writer w;
  w.u32(kMagic);
  w.u16(kVersionWithEncoder);
  write_forest_body(w, forest);
  write_encoder_block(w, encoder);
  return std::move(w).take();
}

std::optional<ForestBundle> deserialize_bundle(ByteView data) {
  Reader r(data);
  if (r.u32() != kMagic) return std::nullopt;
  const std::uint16_t version = r.u16();
  if (version != kVersionForestOnly && version != kVersionWithEncoder)
    return std::nullopt;
  auto forest = read_forest_body(r);
  if (!forest) return std::nullopt;
  ForestBundle bundle;
  bundle.forest = std::move(*forest);
  if (version == kVersionWithEncoder) {
    auto encoder = read_encoder_block(r);
    if (!encoder) return std::nullopt;
    bundle.encoder = std::move(*encoder);
  }
  if (!r.ok() || !r.empty()) return std::nullopt;
  return bundle;
}

std::optional<RandomForest> deserialize_forest(ByteView data) {
  auto bundle = deserialize_bundle(data);
  if (!bundle) return std::nullopt;
  return std::move(bundle->forest);
}

namespace {

std::error_code last_errno() {
  return std::error_code(errno ? errno : EIO, std::generic_category());
}

/// open/write-loop/close with every return value checked. The previous
/// ofstream writer could buffer a short write and only learn about it (or
/// not) at destruction — a truncated model file that loads as "corrupt"
/// much later, far from the cause.
std::error_code write_fd_all(int fd, ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return last_errno();
    }
    if (n == 0) return std::make_error_code(std::errc::io_error);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return {};
}

std::error_code write_file_checked_impl(const std::string& path,
                                        ByteView data, bool sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return last_errno();
  std::error_code ec = write_fd_all(fd, data);
  if (!ec && sync && ::fsync(fd) != 0) ec = last_errno();
  if (::close(fd) != 0 && !ec) ec = last_errno();
  return ec;
}

/// fsync the directory containing `path`, so the rename itself is durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort: some filesystems refuse dir fsync
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::error_code write_file_checked(const std::string& path, ByteView data) {
  return write_file_checked_impl(path, data, /*sync=*/false);
}

std::error_code write_file_atomic_sync(const std::string& path,
                                       ByteView data) {
  const std::string tmp = path + ".tmp";
  if (const std::error_code ec =
          write_file_checked_impl(tmp, data, /*sync=*/true)) {
    ::unlink(tmp.c_str());
    return ec;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::error_code ec = last_errno();
    ::unlink(tmp.c_str());
    return ec;
  }
  sync_parent_dir(path);
  return {};
}

std::error_code save_forest_atomic(const RandomForest& forest,
                                   const std::string& path) {
  return write_file_atomic_sync(path, serialize_forest(forest));
}

std::error_code save_bundle_atomic(const RandomForest& forest,
                                   const core::FeatureEncoder& encoder,
                                   const std::string& path) {
  return write_file_atomic_sync(path, serialize_bundle(forest, encoder));
}

bool save_forest(const RandomForest& forest, const std::string& path) {
  return !write_file_checked(path, serialize_forest(forest));
}

std::optional<RandomForest> load_forest(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  Bytes data{std::istreambuf_iterator<char>(file),
             std::istreambuf_iterator<char>()};
  return deserialize_forest(data);
}

bool save_bundle(const RandomForest& forest,
                 const core::FeatureEncoder& encoder,
                 const std::string& path) {
  return !write_file_checked(path, serialize_bundle(forest, encoder));
}

std::optional<ForestBundle> load_bundle(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  Bytes data{std::istreambuf_iterator<char>(file),
             std::istreambuf_iterator<char>()};
  return deserialize_bundle(data);
}

std::optional<CompiledForest> deserialize_compiled_forest(ByteView data) {
  const auto forest = deserialize_forest(data);
  if (!forest) return std::nullopt;
  return CompiledForest::compile(*forest);
}

std::optional<CompiledForest> load_compiled_forest(const std::string& path) {
  const auto forest = load_forest(path);
  if (!forest) return std::nullopt;
  return CompiledForest::compile(*forest);
}

}  // namespace vpscope::ml
