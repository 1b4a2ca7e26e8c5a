// DESIGN.md §5i capture front-end throughput: how fast a recorded campus
// capture travels the pcap reader -> L2 shim -> pipeline path, measured at
// three depths — the reader alone (parse + frame views, no decode), a
// single-threaded replay into VideoFlowPipeline against the direct
// in-memory feed (the exporter/reader round-trip overhead), and the full
// sharded matrix at 1/2/4/8 shards x batch 1/32/128. Mpps and offered
// wire-rate Gbps per row, written to BENCH_capture.json so successive PRs
// accumulate a machine-readable trajectory. Rows where the run had fewer
// usable cores than shards carry scaling_valid=false (the PR-6 affinity
// flag): they measure time-slicing, not parallel speedup.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "bench/campus_common.hpp"
#include "capture/export.hpp"
#include "capture/frame.hpp"
#include "capture/pcap.hpp"
#include "capture/replay.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sharded_pipeline.hpp"

namespace {

using namespace vpscope;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The capture under replay: the bench_pipeline flow mix, time-merged and
/// exported once as a LINKTYPE_ETHERNET pcap so every run also pays the L2
/// strip the live tap path pays.
std::vector<net::Packet> make_packet_mix(int flows) {
  Rng rng(99);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c =
        bench::scenario_cases()[static_cast<std::size_t>(i) %
                                bench::scenario_cases().size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        c.provider, c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i) * 1000;
    opt.payload_bytes = 200'000;
    opt.payload_duration_us = 1'000'000;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

struct ReaderResult {
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  double elapsed_s = 0;
  double mpps = 0;
  double gbps = 0;
};

/// Reader-only: stream every record out of the image (header validation,
/// bounds checks, timestamp math, frame views) without decoding. The upper
/// bound any replay configuration is measured against.
ReaderResult run_reader_only(ByteView image) {
  ReaderResult best;
  best.elapsed_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    ReaderResult out;
    const auto start = std::chrono::steady_clock::now();
    auto reader = capture::PcapReader::open(image);
    if (reader) {
      while (const auto rec = reader->next()) {
        ++out.frames;
        out.wire_bytes += rec->orig_len;
        benchmark::DoNotOptimize(rec->bytes.data());
      }
    }
    out.elapsed_s = seconds_since(start);
    if (out.elapsed_s < best.elapsed_s) best = out;
  }
  best.mpps = static_cast<double>(best.frames) / best.elapsed_s / 1e6;
  best.gbps = static_cast<double>(best.wire_bytes) * 8 / best.elapsed_s / 1e9;
  return best;
}

struct FeedResult {
  double elapsed_s = 0;
  double mpps = 0;
  double gbps = 0;
  std::size_t records = 0;
};

/// Direct in-memory feed: the packets the capture was exported from, pushed
/// straight into the single-threaded pipeline. The delta to replay_single
/// is the full cost of the pcap round-trip (parse + L2 strip + copy).
FeedResult run_direct_feed(const std::vector<net::Packet>& packets) {
  std::uint64_t bytes = 0;
  for (const auto& p : packets) bytes += p.data.size();
  FeedResult best;
  best.elapsed_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    FeedResult out;
    pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
    std::size_t records = 0;
    pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });
    const auto start = std::chrono::steady_clock::now();
    for (const auto& packet : packets) pipe.on_packet(packet);
    pipe.flush_all();
    out.elapsed_s = seconds_since(start);
    out.records = records;
    if (out.elapsed_s < best.elapsed_s) best = out;
  }
  best.mpps = static_cast<double>(packets.size()) / best.elapsed_s / 1e6;
  // Direct feed carries no L2 framing; wire bytes are the IP datagrams.
  best.gbps = static_cast<double>(bytes) * 8 / best.elapsed_s / 1e9;
  return best;
}

FeedResult run_replay_single(ByteView image) {
  FeedResult best;
  best.elapsed_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
    std::size_t records = 0;
    pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });
    const auto stats = capture::replay_into(image, pipe);
    if (stats.wall_seconds < best.elapsed_s) {
      best.elapsed_s = stats.wall_seconds;
      best.mpps = stats.mpps();
      best.gbps = stats.gbps();
      best.records = records;
    }
  }
  return best;
}

struct ShardReplayResult {
  int shards = 0;
  std::size_t batch_size = 0;
  double elapsed_s = 0;
  double mpps = 0;
  double gbps = 0;
  std::size_t records = 0;
  double speedup_vs_1 = 0;
  /// False when the run had fewer usable cores than shards (PR-6 flag).
  bool scaling_valid = true;
};

ShardReplayResult run_sharded_replay_once(ByteView image, int shards,
                                          std::size_t batch_size) {
  ShardReplayResult out;
  out.shards = shards;
  out.batch_size = batch_size;
  out.scaling_valid = bench::usable_cores() >= shards;
  pipeline::ShardedPipeline pipe(&bench::campus_bank(),
                                 {.n_shards = shards,
                                  .queue_capacity = 4096,
                                  .batch_size = batch_size});
  std::atomic<std::size_t> records{0};
  pipe.set_sink([&records](telemetry::SessionRecord) {
    records.fetch_add(1, std::memory_order_relaxed);
  });
  const auto stats = capture::replay_into(image, pipe);
  // replay_into's flush_all (worker drain) is inside wall_seconds only up
  // to the replay return; time the whole ingest for honesty.
  out.elapsed_s = stats.wall_seconds;
  out.mpps = stats.mpps();
  out.gbps = stats.gbps();
  out.records = records.load(std::memory_order_relaxed);
  return out;
}

ShardReplayResult run_sharded_replay(ByteView image, int shards,
                                     std::size_t batch_size) {
  auto best = run_sharded_replay_once(image, shards, batch_size);
  for (int rep = 1; rep < 3; ++rep) {
    const auto r = run_sharded_replay_once(image, shards, batch_size);
    if (r.elapsed_s < best.elapsed_s) best = r;
  }
  return best;
}

void write_json(std::uint64_t frames, std::uint64_t image_bytes,
                const ReaderResult& reader, const FeedResult& direct,
                const FeedResult& replay,
                const std::vector<ShardReplayResult>& matrix) {
  std::ofstream json("BENCH_capture.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"capture_replay\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"effective_affinity\": " << bench::effective_affinity() << ",\n"
       << "  \"capture\": {\"frames\": " << frames
       << ", \"pcap_bytes\": " << image_bytes
       << ", \"wire_bytes\": " << reader.wire_bytes << "},\n"
       << "  \"reader_only\": {\"mpps\": " << reader.mpps
       << ", \"gbps\": " << reader.gbps
       << ", \"elapsed_s\": " << reader.elapsed_s << "},\n"
       << "  \"direct_feed\": {\"mpps\": " << direct.mpps
       << ", \"gbps\": " << direct.gbps << ", \"records\": " << direct.records
       << ", \"elapsed_s\": " << direct.elapsed_s << "},\n"
       << "  \"replay_single\": {\"mpps\": " << replay.mpps
       << ", \"gbps\": " << replay.gbps << ", \"records\": " << replay.records
       << ", \"elapsed_s\": " << replay.elapsed_s << "},\n"
       << "  \"shard_matrix\": [\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& s = matrix[i];
    json << "    {\"shards\": " << s.shards
         << ", \"batch_size\": " << s.batch_size
         << ", \"elapsed_s\": " << s.elapsed_s << ", \"mpps\": " << s.mpps
         << ", \"gbps\": " << s.gbps << ", \"records\": " << s.records
         << ", \"speedup_vs_1\": " << s.speedup_vs_1
         << ", \"scaling_valid\": " << (s.scaling_valid ? "true" : "false")
         << "}" << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void report() {
  print_banner(std::cout,
               "Capture front-end replay throughput (DESIGN.md §5i)");
  const auto packets = make_packet_mix(400);
  const auto image = capture::export_pcap(
      packets, {.link_type = capture::LinkType::Ethernet});
  (void)bench::campus_bank();  // train outside every timed region

  const auto reader = run_reader_only(ByteView(image));
  const auto direct = run_direct_feed(packets);
  const auto replay = run_replay_single(ByteView(image));

  TextTable head({"Path", "Mpps", "Gbps", "records"});
  head.add_row({"pcap reader only", TextTable::num(reader.mpps, 3),
                TextTable::num(reader.gbps, 2), "-"});
  head.add_row({"direct in-memory feed", TextTable::num(direct.mpps, 3),
                TextTable::num(direct.gbps, 2),
                std::to_string(direct.records)});
  head.add_row({"pcap replay (1 thread)", TextTable::num(replay.mpps, 3),
                TextTable::num(replay.gbps, 2),
                std::to_string(replay.records)});
  head.print(std::cout);
  std::cout << "capture: " << packets.size() << " packets, "
            << image.size() << " pcap bytes, " << reader.wire_bytes
            << " wire bytes (Ethernet-framed)\n";

  std::vector<ShardReplayResult> matrix;
  for (const int shards : {1, 2, 4, 8})
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{32}, std::size_t{128}})
      matrix.push_back(
          run_sharded_replay(ByteView(image), shards, batch));
  // Speedup relative to (1 shard, same batch size), as in BENCH_pipeline.
  for (auto& s : matrix)
    for (const auto& ref : matrix)
      if (ref.shards == 1 && ref.batch_size == s.batch_size)
        s.speedup_vs_1 = ref.elapsed_s / s.elapsed_s;

  TextTable shard_table(
      {"Shards", "batch", "Mpps", "Gbps", "speedup vs 1", "valid"});
  for (const auto& s : matrix)
    shard_table.add_row({std::to_string(s.shards),
                         std::to_string(s.batch_size),
                         TextTable::num(s.mpps, 3), TextTable::num(s.gbps, 2),
                         TextTable::num(s.speedup_vs_1, 2) + "x",
                         s.scaling_valid ? "yes" : "no"});
  shard_table.print(std::cout);
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << ", effective affinity: " << bench::effective_affinity()
            << " (rows with valid=no ran more shards than usable cores:\n"
               "they measure time-slicing, not parallel speedup)\n";

  write_json(reader.frames, image.size(), reader, direct, replay, matrix);
  std::cout << "machine-readable results: BENCH_capture.json\n";
}

void BM_PcapReaderPerRecord(benchmark::State& state) {
  const auto packets = make_packet_mix(50);
  const auto image = capture::export_pcap(
      packets, {.link_type = capture::LinkType::Ethernet});
  auto reader = capture::PcapReader::open(ByteView(image));
  for (auto _ : state) {
    auto rec = reader->next();
    if (!rec) {
      reader = capture::PcapReader::open(ByteView(image));
      rec = reader->next();
    }
    benchmark::DoNotOptimize(rec->bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PcapReaderPerRecord)->Unit(benchmark::kNanosecond);

void BM_EthernetShimPerFrame(benchmark::State& state) {
  const auto packets = make_packet_mix(50);
  const auto image = capture::export_pcap(
      packets, {.link_type = capture::LinkType::Ethernet});
  auto reader = capture::PcapReader::open(ByteView(image));
  for (auto _ : state) {
    auto rec = reader->next();
    if (!rec) {
      reader = capture::PcapReader::open(ByteView(image));
      rec = reader->next();
    }
    benchmark::DoNotOptimize(
        capture::ip_datagram_of(rec->bytes, capture::LinkType::Ethernet));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EthernetShimPerFrame)->Unit(benchmark::kNanosecond);

}  // namespace

VPSCOPE_BENCH_MAIN(report)
