// Flow-table oracle (DESIGN.md §5m): pipeline::FlowTable against a model
// built from std::unordered_map plus a std::list LRU — the structures the
// table replaced — under random inserts, finds, touches and erases, with
// keys searched to share a home slot, growth across several doublings,
// backward-shift deletion across the index's wrap-around and id reuse after
// erase. VideoFlowPipeline's max_flows admission is checked against the
// same model: LruIdle must evict the same victims in the same order and
// RejectNew refuse the same flows. FlowKeyHash values are pinned, because
// they pick shards, span samples and canary routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fingerprint/profiles.hpp"
#include "net/packet.hpp"
#include "pipeline/flow_table.hpp"
#include "pipeline/pipeline.hpp"
#include "synth/flow_synthesizer.hpp"
#include "util/rng.hpp"

namespace vpscope {
namespace {

using net::FlowKey;
using net::FlowKeyHash;
using net::IpAddr;
using Table = pipeline::FlowTable<std::uint64_t>;

std::uint64_t hash_of(const FlowKey& key) { return FlowKeyHash{}(key); }

FlowKey random_key(Rng& rng) {
  IpAddr a, b;
  if (rng.bernoulli(0.25)) {
    a.is_v6 = b.is_v6 = true;
    for (auto& x : a.bytes) x = static_cast<std::uint8_t>(rng.next_u32());
    for (auto& x : b.bytes) x = static_cast<std::uint8_t>(rng.next_u32());
  } else {
    a = IpAddr::v4_from_u32(0x0a000000u | (rng.next_u32() & 0xffff));
    b = IpAddr::v4_from_u32(rng.next_u32());
  }
  return FlowKey::canonical(
      a, static_cast<std::uint16_t>(rng.uniform(1024, 65535)), b, 443,
      rng.bernoulli(0.5) ? net::kProtoTcp : net::kProtoUdp);
}

/// `n` distinct keys whose hashes start with the `bits`-bit prefix `top`:
/// they share a home slot at every index capacity up to 2^bits.
std::vector<FlowKey> keys_with_home(Rng& rng, std::uint64_t top, int bits,
                                    std::size_t n) {
  std::vector<FlowKey> out;
  std::unordered_set<FlowKey, FlowKeyHash> seen;
  while (out.size() < n) {
    const FlowKey k = random_key(rng);
    if (hash_of(k) >> (64 - bits) == top && seen.insert(k).second)
      out.push_back(k);
  }
  return out;
}

/// unordered_map + list LRU: what the table must behave like.
struct Model {
  std::unordered_map<FlowKey, std::uint64_t, FlowKeyHash> values;
  std::list<FlowKey> lru;
  std::unordered_map<FlowKey, std::list<FlowKey>::iterator, FlowKeyHash> pos;

  bool insert(const FlowKey& k, std::uint64_t v) {
    if (values.count(k)) return false;
    values[k] = v;
    lru.push_back(k);
    pos[k] = std::prev(lru.end());
    return true;
  }
  void touch(const FlowKey& k) { lru.splice(lru.end(), lru, pos.at(k)); }
  void erase(const FlowKey& k) {
    lru.erase(pos.at(k));
    pos.erase(k);
    values.erase(k);
  }
};

void expect_matches(const Table& t, const Model& m,
                    const std::vector<FlowKey>& absent = {}) {
  ASSERT_EQ(t.size(), m.values.size());
  ASSERT_TRUE(t.capacity() == 0 || std::has_single_bit(t.capacity()));
  ASSERT_LE(t.size() * 2, t.capacity());
  for (const auto& [key, value] : m.values) {
    const Table::Id id = t.find(key, hash_of(key));
    ASSERT_NE(id, Table::kNone);
    ASSERT_TRUE(t[id].live);
    ASSERT_TRUE(t[id].key == key);
    ASSERT_EQ(t[id].hash, hash_of(key));
    ASSERT_EQ(t[id].value, value);
  }
  for (const FlowKey& key : absent) {
    if (!m.values.count(key)) {
      ASSERT_EQ(t.find(key, hash_of(key)), Table::kNone);
    }
  }
  std::vector<FlowKey> order;
  for (Table::Id id = t.lru_front(); id != Table::kNone; id = t[id].next)
    order.push_back(t[id].key);
  ASSERT_EQ(order.size(), m.lru.size());
  ASSERT_TRUE(std::equal(order.begin(), order.end(), m.lru.begin()));
}

TEST(FlowKeyHash, PinnedValues) {
  IpAddr v6a, v6b, v6c, v6d, v6e;
  v6a.is_v6 = v6b.is_v6 = v6c.is_v6 = v6d.is_v6 = v6e.is_v6 = true;
  v6a.bytes = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  v6b.bytes = {0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x8e, 0xfa, 1, 2};
  v6c.bytes = {0xfe, 0x80, 0,    0,    0,    0,    0,    0,
               0x02, 0x11, 0x22, 0xff, 0xfe, 0x33, 0x44, 0x55};
  // Equal first words: the second word's byte order decides the sides.
  v6d.bytes = {0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1};
  v6e.bytes = {0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2};
  struct Case {
    IpAddr a;
    std::uint16_t pa;
    IpAddr b;
    std::uint16_t pb;
    std::uint8_t proto;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {IpAddr::v4(10, 0, 0, 1), 51000, IpAddr::v4(142, 250, 0, 1), 443, 6,
       0x8e48a2bfc1d61cecULL},
      {IpAddr::v4(192, 168, 1, 20), 443, IpAddr::v4(23, 246, 0, 7), 60999, 17,
       0x13e944769f8e6d9dULL},
      {IpAddr::v4(0, 0, 0, 0), 0, IpAddr::v4(0, 0, 0, 0), 0, 0,
       0xe220a8397b1dcdafULL},
      {IpAddr::v4(255, 255, 255, 255), 65535, IpAddr::v4(1, 2, 3, 4), 1, 6,
       0x46fb1152f9781444ULL},
      {v6a, 443, v6b, 40000, 17, 0xfc1d267ddf7d7c6dULL},
      {v6b, 33333, v6c, 443, 6, 0x2f7b04689d887df8ULL},
      {v6d, 443, v6e, 50000, 17, 0xb4f74024a60e24aeULL},
  };
  for (const Case& c : cases) {
    const FlowKey forward = FlowKey::canonical(c.a, c.pa, c.b, c.pb, c.proto);
    const FlowKey reverse = FlowKey::canonical(c.b, c.pb, c.a, c.pa, c.proto);
    EXPECT_TRUE(forward == reverse);
    EXPECT_EQ(hash_of(forward), c.hash) << c.a.to_string();
  }
}

TEST(FlowKey, WordEqualityAndCanonicalOrder) {
  IpAddr a = IpAddr::v4(10, 0, 0, 1);
  IpAddr b = a;
  EXPECT_TRUE(a == b);
  b.bytes[15] = 1;  // beyond the v4 bytes still counts
  EXPECT_FALSE(a == b);
  b = a;
  b.is_v6 = true;
  EXPECT_FALSE(a == b);
  // Byte order, not native word order, decides which side is `a`.
  bool a_first = false;
  const FlowKey k = FlowKey::canonical(IpAddr::v4(1, 0, 0, 2), 9,
                                       IpAddr::v4(2, 0, 0, 1), 9, 6, &a_first);
  EXPECT_TRUE(a_first);
  EXPECT_TRUE(k.addr_a == IpAddr::v4(1, 0, 0, 2));
  const FlowKey same_addr = FlowKey::canonical(IpAddr::v4(5, 5, 5, 5), 80,
                                               IpAddr::v4(5, 5, 5, 5), 79, 6,
                                               &a_first);
  EXPECT_FALSE(a_first);
  EXPECT_EQ(same_addr.port_a, 79);
}

TEST(FlowTable, RandomOpsMatchUnorderedMapAndListModel) {
  Rng rng(0xf10f);
  // Half the universe shares one home slot, so probe runs are long and
  // most erases shift entries back.
  std::vector<FlowKey> universe = keys_with_home(rng, 0x2a5, 10, 300);
  for (int i = 0; i < 300; ++i) universe.push_back(random_key(rng));
  Table t;
  Model m;
  std::vector<Table::Id> freed;  // LIFO: the next insert reuses the last
  for (int op = 0; op < 200'000; ++op) {
    const FlowKey& k = universe[rng.uniform(0, universe.size() - 1)];
    const std::uint64_t h = hash_of(k);
    switch (rng.uniform(0, 3)) {
      case 0:
      case 1: {
        const auto [id, inserted] = t.insert(k, h);
        ASSERT_EQ(inserted, m.insert(k, static_cast<std::uint64_t>(op)));
        if (inserted) {
          t[id].value = static_cast<std::uint64_t>(op);
          if (!freed.empty()) {
            ASSERT_EQ(id, freed.back());
            freed.pop_back();
          } else {
            ASSERT_EQ(id + 1, t.slab_size());
          }
        }
        break;
      }
      case 2: {
        const Table::Id id = t.find(k, h);
        ASSERT_EQ(id != Table::kNone, m.values.count(k) == 1);
        if (id != Table::kNone) {
          t.touch(id);
          m.touch(k);
        }
        break;
      }
      default: {
        const Table::Id id = t.find(k, h);
        if (id == Table::kNone) break;
        t.erase(id);
        m.erase(k);
        freed.push_back(id);
        break;
      }
    }
    if (op % 997 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, universe));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, universe));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.lru_front(), Table::kNone);
  for (const FlowKey& k : universe) {
    EXPECT_EQ(t.find(k, hash_of(k)), Table::kNone);
  }
}

TEST(FlowTable, GrowsAcrossDoublingsWithoutLosingKeys) {
  Rng rng(0x960);
  Table t;
  Model m;
  std::vector<std::size_t> capacities;
  for (int i = 0; i < 20'000; ++i) {
    const FlowKey k = random_key(rng);
    const auto [id, inserted] = t.insert(k, hash_of(k));
    if (!inserted) continue;
    t[id].value = static_cast<std::uint64_t>(i);
    m.insert(k, static_cast<std::uint64_t>(i));
    if (capacities.empty() || capacities.back() != t.capacity()) {
      capacities.push_back(t.capacity());
      ASSERT_NO_FATAL_FAILURE(expect_matches(t, m));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, m));
  EXPECT_EQ(capacities.front(), 16u);
  EXPECT_GE(capacities.size(), 10u);  // 16 -> 65536
  for (std::size_t i = 1; i < capacities.size(); ++i)
    EXPECT_EQ(capacities[i], capacities[i - 1] * 2);
}

TEST(FlowTable, BackwardShiftDeletionAcrossWrapAround) {
  Rng rng(0x3a9);
  // At 64 slots the home is the hash's top 6 bits: these clusters start in
  // the last two slots and at the first three, so probe runs wrap from slot
  // 63 to slot 0 and interleave with entries that live there by right.
  std::vector<FlowKey> keys;
  for (const std::uint64_t home : {63u, 62u, 0u, 1u, 2u}) {
    const auto part = keys_with_home(rng, home, 6, home >= 62 ? 7 : 4);
    keys.insert(keys.end(), part.begin(), part.end());
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<FlowKey> order = keys;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform(0, i - 1)]);
    Table t;
    Model m;
    for (const FlowKey& k : order) {
      t.insert(k, hash_of(k));
      m.insert(k, 0);
    }
    ASSERT_EQ(t.capacity(), 64u);  // 26 keys: more than 16, at most 32
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform(0, i - 1)]);
    for (std::size_t i = 0; i < order.size(); ++i) {
      t.erase(t.find(order[i], hash_of(order[i])));
      m.erase(order[i]);
      ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, keys));
      // Re-admitting an erased key must land it back behind the wrap too.
      if (i % 3 == 0) {
        t.insert(order[i], hash_of(order[i]));
        m.insert(order[i], 0);
        ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, keys));
        t.erase(t.find(order[i], hash_of(order[i])));
        m.erase(order[i]);
      }
    }
    EXPECT_EQ(t.size(), 0u);
  }
}

TEST(FlowTable, ErasedIdsAreReusedBeforeTheSlabGrows) {
  Rng rng(0x5ab);
  Table t;
  std::vector<FlowKey> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(random_key(rng));
    t.insert(keys.back(), hash_of(keys.back()));
  }
  ASSERT_EQ(t.slab_size(), 100u);
  std::vector<Table::Id> erased;
  for (int i = 0; i < 100; i += 3) {
    erased.push_back(t.find(keys[static_cast<std::size_t>(i)],
                            hash_of(keys[static_cast<std::size_t>(i)])));
    t.erase(erased.back());
    EXPECT_FALSE(t[erased.back()].live);
    EXPECT_EQ(t[erased.back()].value, 0u);
  }
  for (std::size_t i = 0; i < erased.size(); ++i) {
    const FlowKey k = random_key(rng);
    const auto [id, inserted] = t.insert(k, hash_of(k));
    ASSERT_TRUE(inserted);
    EXPECT_EQ(id, erased[erased.size() - 1 - i]);
  }
  EXPECT_EQ(t.slab_size(), 100u);
  EXPECT_EQ(t.size(), 100u);
}

TEST(FlowTable, CompactRenumbersInLruOrderAndFreesThePeak) {
  Rng rng(0xc0a);
  Table t;
  Model m;
  std::vector<FlowKey> universe;
  for (int i = 0; i < 5000; ++i) {
    universe.push_back(random_key(rng));
    const auto [id, inserted] = t.insert(universe.back(), hash_of(universe.back()));
    if (!inserted) continue;
    t[id].value = static_cast<std::uint64_t>(i);
    m.insert(universe.back(), static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 2000; ++i) {  // scramble the LRU order
    const FlowKey& k = universe[rng.uniform(0, universe.size() - 1)];
    t.touch(t.find(k, hash_of(k)));
    m.touch(k);
  }
  // Drain to 100 survivors, as an idle flush after a burst would.
  while (m.values.size() > 100) {
    const FlowKey& k = universe[rng.uniform(0, universe.size() - 1)];
    if (!m.values.count(k)) continue;
    t.erase(t.find(k, hash_of(k)));
    m.erase(k);
  }
  const std::size_t peak = t.slab_size();
  ASSERT_GE(peak, 4900u);
  t.compact();
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, universe));
  EXPECT_EQ(t.slab_size(), 100u);
  EXPECT_EQ(t.capacity(), 256u);  // the smallest index that holds 100
  Table::Id expect_id = 0;
  for (Table::Id id = t.lru_front(); id != Table::kNone; id = t.lru_next(id))
    EXPECT_EQ(id, expect_id++);

  // The compacted table keeps working: new ids continue the slab, erased
  // ones are reused, the LRU and index stay consistent.
  for (int op = 0; op < 20'000; ++op) {
    const FlowKey& k = universe[rng.uniform(0, universe.size() - 1)];
    const std::uint64_t h = hash_of(k);
    const Table::Id id = t.find(k, h);
    if (id == Table::kNone) {
      const auto [nid, inserted] = t.insert(k, h);
      ASSERT_TRUE(inserted);
      t[nid].value = static_cast<std::uint64_t>(op);
      m.insert(k, static_cast<std::uint64_t>(op));
    } else if (rng.bernoulli(0.5)) {
      t.touch(id);
      m.touch(k);
    } else {
      t.erase(id);
      m.erase(k);
    }
    if (op % 997 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, universe));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, m, universe));

  // Compacting an empty table frees everything; it grows again on demand.
  for (const auto& [key, value] : m.values) t.erase(t.find(key, hash_of(key)));
  t.compact();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slab_size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.lru_front(), Table::kNone);
  EXPECT_EQ(t.find(universe[0], hash_of(universe[0])), Table::kNone);
  EXPECT_TRUE(t.insert(universe[0], hash_of(universe[0])).second);
  EXPECT_EQ(t.capacity(), 16u);
}

// ---- max_flows admission in VideoFlowPipeline ----

struct Arrival {
  std::size_t flow;
  std::size_t index;  // position within the flow's packets
};

class FlowTableEviction : public ::testing::Test {
 protected:
  static constexpr std::size_t kFlows = 48;
  static constexpr std::size_t kMaxFlows = 8;

  void SetUp() override {
    Rng rng(0xe71c);
    synth::FlowSynthesizer synth(Rng(0x5e7));
    const fingerprint::Provider providers[] = {
        fingerprint::Provider::YouTube, fingerprint::Provider::Netflix,
        fingerprint::Provider::Disney, fingerprint::Provider::Amazon};
    for (std::size_t i = 0; i < kFlows; ++i) {
      const auto profile = fingerprint::make_profile(
          {fingerprint::Os::Windows, fingerprint::Agent::Chrome},
          providers[i % 4], fingerprint::Transport::Tcp);
      synth::FlowOptions options;
      options.start_time_us = 1'000'000 + i * 100'000;
      flows_.push_back(synth.synthesize(profile, options));
    }
    // Random interleaving that keeps every flow's own packet order.
    std::vector<std::size_t> next(kFlows, 0);
    std::size_t left = 0;
    for (const auto& f : flows_) left += f.packets.size();
    while (left > 0) {
      const std::size_t f = rng.uniform(0, kFlows - 1);
      if (next[f] == flows_[f].packets.size()) continue;
      arrivals_.push_back({f, next[f]++});
      --left;
    }
  }

  /// Replays the arrivals into a pipeline with `eviction` and into the
  /// model of the replaced map + list admission, comparing evictions.
  void run(pipeline::PipelineOptions::Eviction eviction) {
    pipeline::PipelineOptions options;
    options.max_flows = kMaxFlows;
    options.eviction = eviction;
    pipeline::VideoFlowPipeline pipe(nullptr, options);
    std::vector<std::uint64_t> emitted;
    pipe.set_sink([&emitted](telemetry::SessionRecord r) {
      emitted.push_back(r.counters.first_us);
    });

    // Model: a flow instance emits a record iff it saw its SYN (packet 0)
    // and then its ClientHello (packet 3) while admitted.
    struct State {
      bool syn = false;
      bool complete = false;
      std::uint64_t syn_us = 0;
    };
    std::unordered_map<FlowKey, State, FlowKeyHash> table;
    std::list<FlowKey> lru;
    std::unordered_map<FlowKey, std::list<FlowKey>::iterator, FlowKeyHash> pos;
    std::vector<std::uint64_t> model_emitted;
    std::uint64_t model_evictions = 0;
    const bool reject = eviction == pipeline::PipelineOptions::Eviction::RejectNew;

    for (const Arrival& a : arrivals_) {
      const net::Packet& p = flows_[a.flow].packets[a.index];
      pipe.on_packet(p);
      const FlowKey key = net::decode(p)->flow_key();
      auto it = table.find(key);
      if (it == table.end()) {
        if (reject && table.size() == kMaxFlows) {
          ++model_evictions;
          continue;
        }
        it = table.emplace(key, State{}).first;
        lru.push_back(key);
        pos[key] = std::prev(lru.end());
        if (!reject && table.size() > kMaxFlows) {
          ++model_evictions;
          const FlowKey victim = lru.front();
          if (table.at(victim).complete)
            model_emitted.push_back(table.at(victim).syn_us);
          lru.pop_front();
          pos.erase(victim);
          table.erase(victim);
        }
      } else {
        lru.splice(lru.end(), lru, pos.at(key));
      }
      State& s = it->second;
      if (a.index == 0) {
        s.syn = true;
        s.syn_us = p.timestamp_us;
      }
      if (a.index == 3 && s.syn) s.complete = true;
    }

    EXPECT_EQ(emitted, model_emitted);  // same victims, same order
    EXPECT_EQ(pipe.stats().flows_evicted_capacity, model_evictions);
    EXPECT_EQ(pipe.active_flows(), table.size());
    EXPECT_GT(model_evictions, 0u);

    // What is still tracked finalizes at the end, in table order.
    const std::size_t before_flush = emitted.size();
    pipe.flush_all();
    std::vector<std::uint64_t> rest(emitted.begin() + before_flush,
                                    emitted.end());
    std::vector<std::uint64_t> model_rest;
    for (const auto& [key, s] : table)
      if (s.complete) model_rest.push_back(s.syn_us);
    std::sort(rest.begin(), rest.end());
    std::sort(model_rest.begin(), model_rest.end());
    EXPECT_EQ(rest, model_rest);
    EXPECT_EQ(pipe.active_flows(), 0u);
  }

  std::vector<synth::LabeledFlow> flows_;
  std::vector<Arrival> arrivals_;
};

TEST_F(FlowTableEviction, LruIdleEvictsTheModelsVictimsInOrder) {
  run(pipeline::PipelineOptions::Eviction::LruIdle);
}

TEST_F(FlowTableEviction, RejectNewRefusesWhatTheModelRefuses) {
  run(pipeline::PipelineOptions::Eviction::RejectNew);
}

}  // namespace
}  // namespace vpscope
