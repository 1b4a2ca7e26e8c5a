#include "baselines/baselines.hpp"

#include <algorithm>
#include <map>

namespace vpscope::baselines {

namespace {

/// Shared dictionary helper: token -> positive id, unseen -> size+1.
class TokenDict {
 public:
  void add(const std::string& token) {
    dict_.try_emplace(token, static_cast<int>(dict_.size()) + 1);
  }
  double lookup(const std::string& token) const {
    const auto it = dict_.find(token);
    return it == dict_.end() ? static_cast<double>(dict_.size() + 1)
                             : static_cast<double>(it->second);
  }

 private:
  std::map<std::string, int> dict_;
};

void encode_list(const TokenDict& dict, const std::vector<std::string>& tokens,
                 int slots, std::vector<double>* out) {
  for (int i = 0; i < slots; ++i)
    out->push_back(i < static_cast<int>(tokens.size())
                       ? dict.lookup(tokens[static_cast<std::size_t>(i)])
                       : 0.0);
}

std::vector<std::string> u16_tokens(const std::vector<std::uint16_t>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (auto v : values) out.push_back(std::to_string(v));
  return out;
}

/// Anderson-style fingerprint canonicalization: fingerprint strings strip
/// GREASE values (as JA3 does), and the adaptation's "feature construction"
/// sorts the extension code list so Chrome's per-flow extension-order
/// randomization does not shred the positional encoding.
std::vector<std::string> canonical_u16_tokens(
    const std::vector<std::uint16_t>& values, bool sorted) {
  std::vector<std::uint16_t> filtered;
  for (auto v : values)
    if (!tls::is_grease(v)) filtered.push_back(v);
  if (sorted) std::sort(filtered.begin(), filtered.end());
  return u16_tokens(filtered);
}

// ---------------------------------------------------------------------------
// Anderson & McGrew 2019: ClientHello fingerprint string components.
// ---------------------------------------------------------------------------

class Anderson2019 : public BaselineExtractor {
 public:
  std::string name() const override { return "Anderson-2019 [6]"; }

  void fit(std::span<const core::FlowHandshake> handshakes) override {
    for (const auto& h : handshakes) {
      const Tokens tokens = tokenize(h);
      for (const auto& t : tokens.suites) suite_dict_.add(t);
      for (const auto& t : tokens.exts) ext_dict_.add(t);
      for (const auto& t : tokens.groups) group_dict_.add(t);
      for (const auto& t : tokens.formats) format_dict_.add(t);
    }
  }

  std::vector<double> transform(
      const core::FlowHandshake& h) const override {
    const Tokens tokens = tokenize(h);
    std::vector<double> out;
    out.push_back(h.chlo.legacy_version());
    encode_list(suite_dict_, tokens.suites, 24, &out);
    encode_list(ext_dict_, tokens.exts, 24, &out);
    encode_list(group_dict_, tokens.groups, 10, &out);
    encode_list(format_dict_, tokens.formats, 3, &out);
    return out;
  }

 private:
  struct Tokens {
    std::vector<std::string> suites, exts, groups, formats;
  };

  static Tokens tokenize(const core::FlowHandshake& h) {
    const auto chlo = tls::ClientHello::from_wire(h.chlo);
    Tokens t;
    t.suites = canonical_u16_tokens(chlo.cipher_suites, /*sorted=*/false);
    t.exts = canonical_u16_tokens(chlo.extension_types(), /*sorted=*/true);
    if (const auto g = chlo.supported_groups())
      t.groups = canonical_u16_tokens(*g, /*sorted=*/false);
    if (const auto f = chlo.ec_point_formats())
      for (auto v : *f) t.formats.push_back(std::to_string(v));
    return t;
  }

  TokenDict suite_dict_, ext_dict_, group_dict_, format_dict_;
};

// ---------------------------------------------------------------------------
// Fan et al. 2019: TCP/IP stack fingerprint.
// ---------------------------------------------------------------------------

class Fan2019 : public BaselineExtractor {
 public:
  std::string name() const override { return "Fan-2019 [14]"; }

  void fit(std::span<const core::FlowHandshake> handshakes) override {
    for (const auto& h : handshakes) {
      std::string order;
      for (auto k : kind_order(h)) order += std::to_string(k) + "-";
      order_dict_.add(order);
    }
  }

  std::vector<double> transform(
      const core::FlowHandshake& h) const override {
    std::vector<double> out;
    out.push_back(static_cast<double>(h.init_packet_size));
    out.push_back(h.ttl);
    if (h.transport == fingerprint::Transport::Tcp) {
      out.push_back(h.tcp_window);
      out.push_back(h.tcp_mss ? *h.tcp_mss : 0.0);
      out.push_back(h.tcp_window_scale ? *h.tcp_window_scale : 0.0);
      out.push_back(h.tcp_sack_permitted ? 1.0 : 0.0);
      out.push_back(h.syn_flags.cwr ? 1.0 : 0.0);
      out.push_back(h.syn_flags.ece ? 1.0 : 0.0);
      std::string order;
      for (auto k : kind_order(h)) order += std::to_string(k) + "-";
      out.push_back(order_dict_.lookup(order));
    } else {
      // QUIC adaptation: only the IP/UDP-observable stack surface remains —
      // connection-id lengths from the (public) Initial header via the
      // parsed transport parameters.
      out.push_back(0.0);
      out.push_back(0.0);
      const auto scid_len =
          h.quic_tp ? h.quic_tp->initial_source_connection_id_length()
                    : std::nullopt;
      out.push_back(static_cast<double>(scid_len.value_or(0)));
      out.push_back(0.0);
      out.push_back(0.0);
      out.push_back(0.0);
      out.push_back(0.0);
    }
    return out;
  }

 private:
  /// The SYN option kind order is not stored on FlowHandshake directly;
  /// approximate the stack signature with the option presence/value tuple.
  static std::vector<int> kind_order(const core::FlowHandshake& h) {
    std::vector<int> order;
    if (h.tcp_mss) order.push_back(2);
    if (h.tcp_window_scale) order.push_back(3);
    if (h.tcp_sack_permitted) order.push_back(4);
    return order;
  }

  TokenDict order_dict_;
};

// ---------------------------------------------------------------------------
// Lastovicka et al. 2020: 7 TLS ClientHello fields.
// ---------------------------------------------------------------------------

class Lastovicka2020 : public BaselineExtractor {
 public:
  std::string name() const override { return "Lastovicka-2020 [28]"; }

  void fit(std::span<const core::FlowHandshake> handshakes) override {
    for (const auto& h : handshakes) {
      const auto chlo = tls::ClientHello::from_wire(h.chlo);
      for (const auto& t : u16_tokens(chlo.cipher_suites)) suite_dict_.add(t);
      if (const auto g = chlo.supported_groups())
        for (const auto& t : u16_tokens(*g)) group_dict_.add(t);
    }
  }

  std::vector<double> transform(
      const core::FlowHandshake& h) const override {
    const auto chlo = tls::ClientHello::from_wire(h.chlo);
    std::vector<double> out;
    // 1. server name (length — the name itself identifies the service, not
    //    the platform), 2. TLS version, 3. cipher suites, 4. compression
    //    methods, 5. supported groups, 6. ec_point_formats, 7. extension
    //    count.
    out.push_back(chlo.server_name() ? static_cast<double>(
                                           chlo.server_name()->size())
                                     : 0.0);
    out.push_back(chlo.legacy_version);
    encode_list(suite_dict_, u16_tokens(chlo.cipher_suites), 24, &out);
    out.push_back(static_cast<double>(chlo.compression_methods.size()));
    std::vector<std::string> groups;
    if (const auto g = chlo.supported_groups()) groups = u16_tokens(*g);
    encode_list(group_dict_, groups, 10, &out);
    double formats = 0.0;
    if (const auto f = chlo.ec_point_formats())
      formats = static_cast<double>(f->size());
    out.push_back(formats);
    out.push_back(static_cast<double>(chlo.extensions.size()));
    return out;
  }

 private:
  TokenDict suite_dict_, group_dict_;
};

// ---------------------------------------------------------------------------
// Ren et al. 2021: flow metadata + TLS message type.
// ---------------------------------------------------------------------------

class Ren2021 : public BaselineExtractor {
 public:
  std::string name() const override { return "Ren-2021 [53]"; }

  void fit(std::span<const core::FlowHandshake>) override {}

  std::vector<double> transform(
      const core::FlowHandshake& h) const override {
    // [53] reads the TLS record layer only: the record length and the
    // TLS_message_type byte. Over QUIC the record layer is inside the
    // encrypted Initial payload the method does not open — every feature
    // degenerates to a constant and accuracy collapses to the majority
    // class (the paper's 11.3%).
    std::vector<double> out;
    if (h.transport == fingerprint::Transport::Tcp) {
      out.push_back(static_cast<double>(h.chlo.handshake_body_length() + 4));
      out.push_back(1.0);  // HandshakeType.client_hello
    } else {
      out.push_back(0.0);
      out.push_back(0.0);
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<BaselineExtractor> make_anderson2019() {
  return std::make_unique<Anderson2019>();
}
std::unique_ptr<BaselineExtractor> make_fan2019() {
  return std::make_unique<Fan2019>();
}
std::unique_ptr<BaselineExtractor> make_lastovicka2020() {
  return std::make_unique<Lastovicka2020>();
}
std::unique_ptr<BaselineExtractor> make_ren2021() {
  return std::make_unique<Ren2021>();
}

std::vector<std::unique_ptr<BaselineExtractor>> all_baselines() {
  std::vector<std::unique_ptr<BaselineExtractor>> out;
  out.push_back(make_anderson2019());
  out.push_back(make_fan2019());
  out.push_back(make_lastovicka2020());
  out.push_back(make_ren2021());
  return out;
}

std::vector<std::string> non_adaptable_baselines() {
  return {"Richardson-2020 [55] (host-level session descriptors)",
          "Marzani-2023 [40] (automata over per-host flow sequences)"};
}

}  // namespace vpscope::baselines
