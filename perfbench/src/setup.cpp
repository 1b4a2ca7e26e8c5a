#include "setup.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "pipeline/bank_serialize.hpp"
#include "synth/dataset.hpp"

namespace perfbench {

using namespace vpscope;

namespace {

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

/// Writes via a temporary and a rename, so a concurrent or interrupted run
/// never sees a partial bundle (a damaged one fails deserialize_bank's CRC
/// and is retrained anyway).
void write_file(const std::string& path, const Bytes& bytes) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

Setup prepare(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& bundle_cache) {
  Setup s;
  s.workload_name = workload;
  s.seed = seed;
  s.seconds = seconds;
  s.machine = probe_machine();
  s.workers = std::max(1, usable_cores() - 1);

  const std::uint64_t t0 = now_ns();
  const std::string cached =
      bundle_cache.empty()
          ? std::string()
          : bundle_cache + "/lab-" + std::to_string(seed) + ".vpsb";
  if (!cached.empty()) {
    if (auto bytes = read_file(cached)) {
      s.bank = pipeline::deserialize_bank(*bytes);
      if (s.bank) {
        s.bank_bytes = std::move(*bytes);
        s.bundle_from_cache = true;
      }
    }
  }
  if (!s.bank) {
    {
      pipeline::ClassifierBank trained;
      trained.train(synth::generate_lab_dataset(sub_seed(seed, 100)));
      s.bank_bytes = pipeline::serialize_bank(trained);
    }
    std::string why;
    s.bank = pipeline::deserialize_bank(s.bank_bytes, &why);
    if (!s.bank) throw std::runtime_error("model bundle rejected: " + why);
    if (!cached.empty()) write_file(cached, s.bank_bytes);
  }
  const std::uint64_t t1 = now_ns();
  s.workload = build_workload(workload, seed, *s.bank);
  s.train_seconds = seconds_between(t0, t1);
  s.synth_seconds = seconds_between(t1, now_ns());
  return s;
}

std::string render_run_header(const Setup& s) {
  return JsonObject()
      .str("workload", s.workload_name)
      .integer("seed", s.seed)
      .integer("held_out_seed", kHeldOutSeed)
      .num("seconds", s.seconds)
      .raw("machine", render_machine(s.machine, s.workers))
      .boolean("bundle_from_cache", s.bundle_from_cache)
      .num("train_s", s.train_seconds)
      .num("synth_s", s.synth_seconds)
      .integer("bundle_bytes", s.bank_bytes.size())
      .render();
}

namespace {

std::string render_capture(const Capture& c) {
  const PacketClasses& p = c.classes;
  std::uint64_t outcomes[telemetry::kNumOutcomes] = {};
  for (const FlowTruth& f : c.flows)
    ++outcomes[static_cast<int>(f.expected.outcome)];
  return JsonObject()
      .integer("packets", c.packets)
      .integer("image_bytes", c.image.size())
      .raw("packets_by_class",
           JsonObject()
               .integer("tcp_syn", p.tcp_syn)
               .integer("tcp_ack", p.tcp_ack)
               .integer("tls_record", p.tls_record)
               .integer("client_initial", p.client_initial)
               .integer("server_initial", p.server_initial)
               .integer("payload", p.payload)
               .render())
      .integer("flows", c.flows.size())
      .integer("tcp_flows", c.tcp_flows)
      .integer("quic_flows", c.quic_flows)
      .integer("unknown_stack_flows", c.unknown_flows)
      .raw("outcomes",
           JsonObject()
               .integer("composite", outcomes[0])
               .integer("partial", outcomes[1])
               .integer("unknown", outcomes[2])
               .render())
      .render();
}

}  // namespace

std::string render_input_counts(const Setup& s) {
  JsonObject o;
  o.raw("main", render_capture(s.workload.main));
  if (s.workload.verdict_probe)
    o.raw("verdict_probe", render_capture(*s.workload.verdict_probe));
  return o.render();
}

}  // namespace perfbench
