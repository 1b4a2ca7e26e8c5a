// DESIGN.md §5i capture front-end throughput: how fast a recorded campus
// capture travels the pcap reader -> L2 shim -> pipeline path, measured at
// three depths — the reader alone (parse + frame views, no decode), a
// single-threaded replay into VideoFlowPipeline against the direct
// in-memory feed (their gap is the pcap round trip per packet), and the
// full sharded matrix at 1/2/4/8 shards x batch 1/32/128. Every lane is
// timed over interleaved windows of >= 1 s of whole passes; the median and
// quartiles of the windows' Mpps and offered wire-rate Gbps go to
// BENCH_capture.json with the machine block (bench/common.hpp). A row
// keeps its workers and the feeding dispatcher busy; rows with fewer
// usable cores than that carry scaling_valid=false: they measure
// time-slicing, not parallel speedup.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
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

constexpr int kWindows = 5;
constexpr double kWindowSeconds = 1.0;

/// One timed pass over the capture: what it carried, how long it took
/// (construction outside the clock, the final flush inside), and the
/// records it produced.
struct Pass {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  double seconds = 0;
  std::size_t records = 0;
};

/// A measured path: passes are grouped into windows of at least
/// kWindowSeconds of timed work, and each window contributes one rate.
struct Lane {
  Lane(std::string name, std::function<Pass()> pass, int shards = 0,
       std::size_t batch_size = 0)
      : name(std::move(name)),
        pass(std::move(pass)),
        shards(shards),
        batch_size(batch_size) {}

  std::string name;
  std::function<Pass()> pass;
  int shards = 0;  // shard-matrix rows only
  std::size_t batch_size = 0;
  std::vector<double> mpps, gbps;  // one entry per window
  std::size_t records = 0;
};

void run_window(Lane& lane) {
  Pass window;
  while (window.seconds < kWindowSeconds) {
    const Pass p = lane.pass();
    window.packets += p.packets;
    window.wire_bytes += p.wire_bytes;
    window.seconds += p.seconds;
    lane.records = p.records;
  }
  lane.mpps.push_back(static_cast<double>(window.packets) / window.seconds /
                      1e6);
  lane.gbps.push_back(static_cast<double>(window.wire_bytes) * 8 /
                      window.seconds / 1e9);
}

/// Median and quartiles (linear interpolation) of a sample.
struct Spread {
  double median = 0, p25 = 0, p75 = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto q = [&v](double f) {
    const double pos = f * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {q(0.5), q(0.25), q(0.75)};
}

/// Reader-only: stream every record out of the image (header validation,
/// bounds checks, timestamp math, frame views) without decoding. The upper
/// bound any replay configuration is measured against.
Pass reader_pass(ByteView image) {
  Pass out;
  const auto start = std::chrono::steady_clock::now();
  auto reader = capture::PcapReader::open(image);
  if (reader) {
    while (const auto rec = reader->next()) {
      ++out.packets;
      out.wire_bytes += rec->orig_len;
      benchmark::DoNotOptimize(rec->bytes.data());
    }
  }
  out.seconds = seconds_since(start);
  return out;
}

/// Direct in-memory feed: the packets the capture was exported from, pushed
/// straight into the single-threaded pipeline. The gap to replay_single is
/// the cost of the pcap round trip (record parse, L2 strip, copy).
Pass direct_pass(const std::vector<net::Packet>& packets) {
  pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
  Pass out;
  pipe.set_sink([&out](telemetry::SessionRecord) { ++out.records; });
  const auto start = std::chrono::steady_clock::now();
  for (const auto& packet : packets) pipe.on_packet(packet);
  pipe.flush_all();
  out.seconds = seconds_since(start);
  out.packets = packets.size();
  // Direct feed carries no L2 framing; wire bytes are the IP datagrams.
  for (const auto& p : packets) out.wire_bytes += p.data.size();
  return out;
}

/// Replay into either front-end, timed from the first frame through
/// replay_into's final flush_all (and, sharded, the worker drain).
template <typename Pipeline>
Pass replay_pass(ByteView image, Pipeline& pipe) {
  std::atomic<std::size_t> records{0};
  pipe.set_sink([&records](telemetry::SessionRecord) {
    records.fetch_add(1, std::memory_order_relaxed);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto stats = capture::replay_into(image, pipe);
  Pass out;
  out.seconds = seconds_since(start);
  out.packets = stats.frames;
  out.wire_bytes = stats.wire_bytes;
  out.records = records.load(std::memory_order_relaxed);
  return out;
}

void write_json(std::uint64_t frames, std::uint64_t image_bytes,
                std::uint64_t wire_bytes, const std::vector<Lane>& lanes,
                const Spread& gap_ns) {
  std::ofstream json("BENCH_capture.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"capture_replay\",\n";
  // The widest shard-matrix row.
  bench::write_machine_block(json, 8);
  json << "  \"methodology\": \"lanes interleaved per window; a window is "
          "whole passes adding up to >= "
       << kWindowSeconds << " s of timed work; rates are the median and "
          "quartiles over "
       << kWindows << " windows\",\n"
       << "  \"capture\": {\"frames\": " << frames
       << ", \"pcap_bytes\": " << image_bytes
       << ", \"wire_bytes\": " << wire_bytes << "},\n"
       << "  \"pcap_roundtrip_ns_per_packet\": {\"median\": " << gap_ns.median
       << ", \"p25\": " << gap_ns.p25 << ", \"p75\": " << gap_ns.p75
       << "},\n";
  const auto row = [&json](const Lane& lane) {
    const Spread mpps = spread_of(lane.mpps);
    json << "\"mpps\": " << mpps.median << ", \"mpps_p25\": " << mpps.p25
         << ", \"mpps_p75\": " << mpps.p75
         << ", \"gbps\": " << spread_of(lane.gbps).median
         << ", \"windows\": " << lane.mpps.size()
         << ", \"records\": " << lane.records;
  };
  std::size_t i = 0;
  for (; i < lanes.size() && lanes[i].shards == 0; ++i) {
    json << "  \"" << lanes[i].name << "\": {";
    row(lanes[i]);
    json << "},\n";
  }
  json << "  \"shard_matrix\": [\n";
  const std::size_t first_row = i;
  for (; i < lanes.size(); ++i) {
    const Lane& lane = lanes[i];
    double speedup = 0;
    for (std::size_t r = first_row; r < lanes.size(); ++r)
      if (lanes[r].shards == 1 && lanes[r].batch_size == lane.batch_size)
        speedup = spread_of(lane.mpps).median /
                  spread_of(lanes[r].mpps).median;
    json << "    {\"shards\": " << lane.shards
         << ", \"batch_size\": " << lane.batch_size << ", ";
    row(lane);
    json << ", \"speedup_vs_1\": " << speedup << ", \"scaling_valid\": "
         << (bench::scaling_valid(lane.shards) ? "true" : "false")
         << "}"
         << (i + 1 < lanes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void report() {
  print_banner(std::cout,
               "Capture front-end replay throughput (DESIGN.md §5i)");
  const auto packets = make_packet_mix(400);
  const auto image = capture::export_pcap(
      packets, {.link_type = capture::LinkType::Ethernet});
  const ByteView view(image);
  (void)bench::campus_bank();  // train outside every timed region

  std::vector<Lane> lanes;
  lanes.emplace_back("reader_only", [view] { return reader_pass(view); });
  lanes.emplace_back("direct_feed",
                     [&packets] { return direct_pass(packets); });
  lanes.emplace_back("replay_single", [view] {
    pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
    return replay_pass(view, pipe);
  });
  for (const int shards : {1, 2, 4, 8})
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{32}, std::size_t{128}})
      lanes.emplace_back(
          "sharded",
          [view, shards, batch] {
            pipeline::ShardedPipeline pipe(&bench::campus_bank(),
                                           {.n_shards = shards,
                                            .queue_capacity = 4096,
                                            .batch_size = batch});
            return replay_pass(view, pipe);
          },
          shards, batch);

  for (Lane& lane : lanes) (void)lane.pass();  // untimed warm-up
  // Window w of every lane runs before window w + 1 of any, so slow drift
  // of the machine spreads over all lanes instead of biasing one.
  for (int w = 0; w < kWindows; ++w)
    for (Lane& lane : lanes) run_window(lane);

  // The pcap round trip per packet, window by window: replay_single minus
  // direct_feed in ns/packet (1 / Mpps is µs/packet).
  std::vector<double> gap;
  for (int w = 0; w < kWindows; ++w)
    gap.push_back(1e3 / lanes[2].mpps[static_cast<std::size_t>(w)] -
                  1e3 / lanes[1].mpps[static_cast<std::size_t>(w)]);
  const Spread gap_ns = spread_of(gap);

  TextTable head({"Path", "Mpps (median)", "IQR", "Gbps", "records"});
  for (std::size_t i = 0; i < 3; ++i) {
    const Spread mpps = spread_of(lanes[i].mpps);
    head.add_row({lanes[i].name, TextTable::num(mpps.median, 3),
                  TextTable::num(mpps.p25, 3) + "-" +
                      TextTable::num(mpps.p75, 3),
                  TextTable::num(spread_of(lanes[i].gbps).median, 2),
                  i == 0 ? "-" : std::to_string(lanes[i].records)});
  }
  head.print(std::cout);
  const Pass whole = reader_pass(view);
  std::cout << "capture: " << packets.size() << " packets, " << image.size()
            << " pcap bytes, " << whole.wire_bytes
            << " wire bytes (Ethernet-framed)\n"
            << "pcap round trip (replay_single - direct_feed): "
            << TextTable::num(gap_ns.median, 1) << " ns/packet (IQR "
            << TextTable::num(gap_ns.p25, 1) << "-"
            << TextTable::num(gap_ns.p75, 1) << ")\n";

  TextTable shard_table({"Shards", "batch", "Mpps (median)", "IQR", "Gbps",
                         "valid"});
  for (std::size_t i = 3; i < lanes.size(); ++i) {
    const Spread mpps = spread_of(lanes[i].mpps);
    shard_table.add_row(
        {std::to_string(lanes[i].shards), std::to_string(lanes[i].batch_size),
         TextTable::num(mpps.median, 3),
         TextTable::num(mpps.p25, 3) + "-" + TextTable::num(mpps.p75, 3),
         TextTable::num(spread_of(lanes[i].gbps).median, 2),
         bench::scaling_valid(lanes[i].shards) ? "yes" : "no"});
  }
  shard_table.print(std::cout);
  std::cout << "usable cores: " << bench::usable_cores() << " of "
            << std::thread::hardware_concurrency()
            << " hardware threads (rows with valid=no ran more workers "
               "plus dispatcher than usable cores:\nthey measure "
               "time-slicing, not parallel speedup)\n";

  write_json(whole.packets, image.size(), whole.wire_bytes, lanes, gap_ns);
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
