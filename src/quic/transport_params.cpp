#include "quic/transport_params.hpp"

#include <algorithm>
#include <cstdint>

#include "quic/varint.hpp"

namespace vpscope::quic {

namespace {

void put_param_varint(Writer& w, std::uint64_t id, std::uint64_t value) {
  put_varint(w, id);
  put_varint(w, varint_size(value));
  put_varint(w, value);
}

void put_param_bytes(Writer& w, std::uint64_t id, ByteView value) {
  put_varint(w, id);
  put_varint(w, value.size());
  w.raw(value);
}

void put_param_empty(Writer& w, std::uint64_t id) {
  put_varint(w, id);
  put_varint(w, 0);
}

}  // namespace

Bytes TransportParameters::serialize() const {
  std::vector<std::uint64_t> order = param_order;
  if (order.empty()) {
    auto maybe = [&](bool present, std::uint64_t id) {
      if (present) order.push_back(id);
    };
    maybe(max_idle_timeout.has_value(), tp::kMaxIdleTimeout);
    maybe(max_udp_payload_size.has_value(), tp::kMaxUdpPayloadSize);
    maybe(initial_max_data.has_value(), tp::kInitialMaxData);
    maybe(initial_max_stream_data_bidi_local.has_value(),
          tp::kInitialMaxStreamDataBidiLocal);
    maybe(initial_max_stream_data_bidi_remote.has_value(),
          tp::kInitialMaxStreamDataBidiRemote);
    maybe(initial_max_stream_data_uni.has_value(),
          tp::kInitialMaxStreamDataUni);
    maybe(initial_max_streams_bidi.has_value(), tp::kInitialMaxStreamsBidi);
    maybe(initial_max_streams_uni.has_value(), tp::kInitialMaxStreamsUni);
    maybe(ack_delay_exponent.has_value(), tp::kAckDelayExponent);
    maybe(max_ack_delay.has_value(), tp::kMaxAckDelay);
    maybe(disable_active_migration, tp::kDisableActiveMigration);
    maybe(active_connection_id_limit.has_value(),
          tp::kActiveConnectionIdLimit);
    maybe(has_initial_source_connection_id, tp::kInitialSourceConnectionId);
    maybe(max_datagram_frame_size.has_value(), tp::kMaxDatagramFrameSize);
    maybe(grease_quic_bit, tp::kGreaseQuicBit);
    maybe(initial_rtt_us.has_value(), tp::kInitialRtt);
    maybe(google_connection_options.has_value(),
          tp::kGoogleConnectionOptions);
    maybe(user_agent.has_value(), tp::kUserAgent);
    maybe(google_version.has_value(), tp::kGoogleVersion);
  }

  Writer w;
  for (std::uint64_t id : order) {
    switch (id) {
      case tp::kMaxIdleTimeout:
        if (max_idle_timeout) put_param_varint(w, id, *max_idle_timeout);
        break;
      case tp::kMaxUdpPayloadSize:
        if (max_udp_payload_size)
          put_param_varint(w, id, *max_udp_payload_size);
        break;
      case tp::kInitialMaxData:
        if (initial_max_data) put_param_varint(w, id, *initial_max_data);
        break;
      case tp::kInitialMaxStreamDataBidiLocal:
        if (initial_max_stream_data_bidi_local)
          put_param_varint(w, id, *initial_max_stream_data_bidi_local);
        break;
      case tp::kInitialMaxStreamDataBidiRemote:
        if (initial_max_stream_data_bidi_remote)
          put_param_varint(w, id, *initial_max_stream_data_bidi_remote);
        break;
      case tp::kInitialMaxStreamDataUni:
        if (initial_max_stream_data_uni)
          put_param_varint(w, id, *initial_max_stream_data_uni);
        break;
      case tp::kInitialMaxStreamsBidi:
        if (initial_max_streams_bidi)
          put_param_varint(w, id, *initial_max_streams_bidi);
        break;
      case tp::kInitialMaxStreamsUni:
        if (initial_max_streams_uni)
          put_param_varint(w, id, *initial_max_streams_uni);
        break;
      case tp::kAckDelayExponent:
        if (ack_delay_exponent) put_param_varint(w, id, *ack_delay_exponent);
        break;
      case tp::kMaxAckDelay:
        if (max_ack_delay) put_param_varint(w, id, *max_ack_delay);
        break;
      case tp::kDisableActiveMigration:
        if (disable_active_migration) put_param_empty(w, id);
        break;
      case tp::kActiveConnectionIdLimit:
        if (active_connection_id_limit)
          put_param_varint(w, id, *active_connection_id_limit);
        break;
      case tp::kInitialSourceConnectionId:
        if (has_initial_source_connection_id)
          put_param_bytes(w, id, initial_source_connection_id);
        break;
      case tp::kMaxDatagramFrameSize:
        if (max_datagram_frame_size)
          put_param_varint(w, id, *max_datagram_frame_size);
        break;
      case tp::kGreaseQuicBit:
        if (grease_quic_bit) put_param_empty(w, id);
        break;
      case tp::kInitialRtt:
        if (initial_rtt_us) put_param_varint(w, id, *initial_rtt_us);
        break;
      case tp::kGoogleConnectionOptions:
        if (google_connection_options)
          put_param_bytes(
              w, id,
              ByteView{reinterpret_cast<const std::uint8_t*>(
                           google_connection_options->data()),
                       google_connection_options->size()});
        break;
      case tp::kUserAgent:
        if (user_agent)
          put_param_bytes(w, id,
                          ByteView{reinterpret_cast<const std::uint8_t*>(
                                       user_agent->data()),
                                   user_agent->size()});
        break;
      case tp::kGoogleVersion:
        if (google_version) {
          Writer v;
          v.u32(*google_version);
          put_param_bytes(w, id, v.data());
        }
        break;
      default:
        if (tp::is_grease(id)) {
          // GREASE parameters carry a short opaque value.
          const std::uint8_t junk = 0xda;
          put_param_bytes(w, id, ByteView{&junk, 1});
        }
        break;
    }
  }
  return std::move(w).take();
}

namespace {

/// The Numeric slot of a varint-valued parameter id, or kCount.
WireTransportParameters::Numeric numeric_slot(std::uint64_t id) {
  using N = WireTransportParameters::Numeric;
  switch (id) {
    case tp::kMaxIdleTimeout: return N::MaxIdleTimeout;
    case tp::kMaxUdpPayloadSize: return N::MaxUdpPayloadSize;
    case tp::kInitialMaxData: return N::InitialMaxData;
    case tp::kInitialMaxStreamDataBidiLocal:
      return N::InitialMaxStreamDataBidiLocal;
    case tp::kInitialMaxStreamDataBidiRemote:
      return N::InitialMaxStreamDataBidiRemote;
    case tp::kInitialMaxStreamDataUni: return N::InitialMaxStreamDataUni;
    case tp::kInitialMaxStreamsBidi: return N::InitialMaxStreamsBidi;
    case tp::kInitialMaxStreamsUni: return N::InitialMaxStreamsUni;
    case tp::kAckDelayExponent: return N::AckDelayExponent;
    case tp::kMaxAckDelay: return N::MaxAckDelay;
    case tp::kActiveConnectionIdLimit: return N::ActiveConnectionIdLimit;
    case tp::kMaxDatagramFrameSize: return N::MaxDatagramFrameSize;
    case tp::kInitialRtt: return N::InitialRtt;
    default: return N::kCount;
  }
}

/// Reads one parameter entry; the Reader fails when it overruns.
ParamView read_param(Reader& r) {
  ParamView p;
  p.id = get_varint(r);
  const std::uint64_t len = get_varint(r);
  p.value = r.view(static_cast<std::size_t>(len));
  return p;
}

}  // namespace

ParamView ParamSpan::iterator::operator*() const {
  Reader r(body_.subspan(at_));
  return read_param(r);
}

ParamSpan::iterator& ParamSpan::iterator::operator++() {
  Reader r(body_.subspan(at_));
  read_param(r);
  at_ += r.offset();
  return *this;
}

std::optional<WireTransportParameters> WireTransportParameters::parse(
    ByteView body) {
  if (body.size() > UINT32_MAX) return std::nullopt;
  WireTransportParameters out;
  out.body_len_ = static_cast<std::uint32_t>(body.size());
  Reader r(body);
  while (!r.empty()) {
    const ParamView p = read_param(r);
    if (!r.ok()) return std::nullopt;
    ++out.count_;
    const auto slice = [&] {
      return Slice{static_cast<std::uint32_t>(p.value.data() - body.data()),
                   static_cast<std::uint32_t>(p.value.size())};
    };
    if (const Numeric n = numeric_slot(p.id); n != Numeric::kCount) {
      Reader vr(p.value);
      const std::uint64_t v = get_varint(vr);
      const auto i = static_cast<std::size_t>(n);
      out.set(i, vr.ok());
      out.numeric_[i] = vr.ok() ? v : 0;
      continue;
    }
    switch (p.id) {
      case tp::kDisableActiveMigration:
        out.set(kDisableMigration, true);
        break;
      case tp::kGreaseQuicBit:
        out.set(kGreaseQuicBit, true);
        break;
      case tp::kInitialSourceConnectionId:
        out.set(kInitialScid, true);
        out.scid_len_ = static_cast<std::uint32_t>(p.value.size());
        break;
      case tp::kGoogleConnectionOptions:
        out.set(kGoogleConnectionOptions, true);
        out.connection_options_ = slice();
        break;
      case tp::kUserAgent:
        out.set(kUserAgent, true);
        out.user_agent_ = slice();
        break;
      case tp::kGoogleVersion:
        if (p.value.size() >= 4) {
          out.set(kGoogleVersion, true);
          out.google_version_ = static_cast<std::uint32_t>(p.value[0]) << 24 |
                                static_cast<std::uint32_t>(p.value[1]) << 16 |
                                static_cast<std::uint32_t>(p.value[2]) << 8 |
                                p.value[3];
        }
        break;
      default:
        break;  // unknown/GREASE ids are in the wire order only
    }
  }
  return out;
}

std::optional<TransportParameters> TransportParameters::parse(ByteView body) {
  const auto wire = WireTransportParameters::parse(body);
  if (!wire) return std::nullopt;
  using N = WireTransportParameters::Numeric;
  TransportParameters out;
  out.max_idle_timeout = wire->numeric(N::MaxIdleTimeout);
  out.max_udp_payload_size = wire->numeric(N::MaxUdpPayloadSize);
  out.initial_max_data = wire->numeric(N::InitialMaxData);
  out.initial_max_stream_data_bidi_local =
      wire->numeric(N::InitialMaxStreamDataBidiLocal);
  out.initial_max_stream_data_bidi_remote =
      wire->numeric(N::InitialMaxStreamDataBidiRemote);
  out.initial_max_stream_data_uni = wire->numeric(N::InitialMaxStreamDataUni);
  out.initial_max_streams_bidi = wire->numeric(N::InitialMaxStreamsBidi);
  out.initial_max_streams_uni = wire->numeric(N::InitialMaxStreamsUni);
  out.max_ack_delay = wire->numeric(N::MaxAckDelay);
  out.disable_active_migration = wire->disable_active_migration();
  out.active_connection_id_limit = wire->numeric(N::ActiveConnectionIdLimit);
  out.has_initial_source_connection_id =
      wire->initial_source_connection_id_length().has_value();
  out.max_datagram_frame_size = wire->numeric(N::MaxDatagramFrameSize);
  out.grease_quic_bit = wire->grease_quic_bit();
  out.initial_rtt_us = wire->numeric(N::InitialRtt);
  if (const auto options = wire->google_connection_options(body))
    out.google_connection_options = std::string(*options);
  if (const auto agent = wire->user_agent(body))
    out.user_agent = std::string(*agent);
  out.google_version = wire->google_version();
  out.ack_delay_exponent = wire->numeric(N::AckDelayExponent);
  out.param_order.reserve(wire->param_count());
  for (const ParamView p : wire->params(body)) {
    out.param_order.push_back(p.id);
    if (p.id == tp::kInitialSourceConnectionId)  // the last one counts
      out.initial_source_connection_id.assign(p.value.begin(), p.value.end());
  }
  return out;
}

}  // namespace vpscope::quic
