#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "crypto/onion.hpp"
#include "net/framing.hpp"
#include "overlay/broadcast.hpp"
#include "overlay/view.hpp"
#include "rac/wire.hpp"

namespace racbench {
namespace {

// Results are folded in here so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;

/// Median over kBatches of the per-call cost of `batch(n)`, which makes n
/// calls. n is doubled until one batch takes a fifth of the budget.
double per_call_ns(double seconds, const std::function<void(std::size_t)>& batch) {
  batch(1);  // warm caches and lazy set-up
  const double target_ns = seconds * 1e9 / kBatches;
  std::size_t n = 1;
  double took = 0;
  for (;;) {
    const std::int64_t t0 = wall_ns();
    batch(n);
    took = static_cast<double>(wall_ns() - t0);
    if (took >= target_ns || n >= (std::size_t{1} << 26)) break;
    n *= 2;
  }
  std::vector<double> costs{took / static_cast<double>(n)};
  for (int b = 1; b < kBatches; ++b) {
    const std::int64_t t0 = wall_ns();
    batch(n);
    costs.push_back(static_cast<double>(wall_ns() - t0) /
                    static_cast<double>(n));
  }
  return median(costs);
}

double timed_probe(SpanLog& log, const std::string& name, double seconds,
                   const std::function<void(std::size_t)>& batch) {
  ScopedSpan span(log, "probe." + name);
  return per_call_ns(seconds, batch);
}

}  // namespace

ProbeCosts run_probes(const ProbeShape& shape, SpanLog& log) {
  using namespace rac;
  const CryptoProvider& provider = *shape.provider;
  const double secs = shape.seconds_per_probe;
  Rng rng(shape.seed ^ 0x9e3779b97f4a7c15ULL);
  ProbeCosts out;

  // An onion of the workload's shape, and keys that do and do not open it.
  const KeyPair dest = provider.generate_keypair(rng);
  const KeyPair stranger = provider.generate_keypair(rng);
  const KeyPair stranger_pseudo = provider.generate_keypair(rng);
  std::vector<KeyPair> relays;
  std::vector<PublicKey> relay_pubs;
  for (unsigned i = 0; i < shape.num_relays; ++i) {
    relays.push_back(provider.generate_keypair(rng));
    relay_pubs.push_back(relays.back().pub);
  }
  const Bytes payload = rng.bytes(shape.payload_size);
  const BuiltOnion onion = build_onion(provider, rng, payload, dest.pub,
                                       relay_pubs, std::nullopt);
  const Bytes& content = onion.first_content;
  if (peel_content(provider, relays.front(), stranger_pseudo, content).kind !=
      PeelResult::Kind::kRelay) {
    throw std::runtime_error("probe onion does not open at its first relay");
  }
  const Bytes cell = pad_cell(content, shape.cell_size, rng);

  out.onion_build_ns = timed_probe(log, "crypto.onion_build", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + build_onion(provider, rng, payload, dest.pub, relay_pubs,
                                    std::nullopt).first_content.size();
    }
  });
  out.peel_miss_ns = timed_probe(log, "crypto.peel_miss", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(
          peel_content(provider, stranger, stranger_pseudo, content).kind);
    }
  });
  out.peel_relay_ns = timed_probe(log, "crypto.peel_relay", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + peel_content(provider, relays.front(), stranger_pseudo,
                                     content).next_content.size();
    }
  });
  out.fingerprint_ns = timed_probe(log, "rac.fingerprint", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + content_fingerprint(content)[i % 32];
    }
  });
  out.unpad_ns = timed_probe(log, "rac.unpad", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + unpad_cell(cell).size();
    }
  });

  // Broadcaster::on_receive with no-op callbacks, in a scope of the
  // workload's size and ring count. Each batch gets a fresh broadcaster
  // and distinct broadcast ids; replaying the same batch measures the
  // duplicate path.
  overlay::View view(shape.num_rings);
  for (std::size_t m = 0; m < shape.scope_size; ++m) {
    view.add(static_cast<EndpointId>(m), rng.next());
  }
  view.prime();
  const overlay::ScopeId scope{overlay::ScopeType::kGroup, 0};
  auto envelopes = [&](std::size_t n) {
    std::vector<Payload> wires;
    wires.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      overlay::EnvelopeHeader h;
      h.scope = scope;
      h.kind = static_cast<std::uint8_t>(MsgKind::kDataCell);
      h.bcast_id = rng.next();
      wires.push_back(overlay::encode_envelope(h, cell));
    }
    return wires;
  };
  const auto noop_send = [](EndpointId, const Payload&) {};
  const auto noop_deliver = [](const overlay::EnvelopeHeader&, ByteView,
                               EndpointId) {};
  std::vector<Payload> wires;
  std::unique_ptr<overlay::Broadcaster> bc;
  auto fresh = [&](std::size_t n) {
    wires = envelopes(n);
    bc = std::make_unique<overlay::Broadcaster>(0, noop_send, noop_deliver);
    bc->register_scope(scope, &view);
  };
  // Set-up of each batch (envelope encoding) stays outside the timed loop.
  std::vector<double> first_costs;
  std::vector<double> dup_costs;
  {
    ScopedSpan span(log, "probe.overlay.receive");
    const std::size_t n = 2048;
    const double target_ns = secs * 1e9;
    double spent = 0;
    while (first_costs.size() < kBatches ||
           (spent < target_ns && first_costs.size() < 64)) {
      fresh(n);
      std::int64_t t0 = wall_ns();
      for (const Payload& w : wires) bc->on_receive(1, w, 0);
      const std::int64_t t1 = wall_ns();
      for (const Payload& w : wires) bc->on_receive(1, w, 0);
      const std::int64_t t2 = wall_ns();
      first_costs.push_back(static_cast<double>(t1 - t0) / n);
      dup_costs.push_back(static_cast<double>(t2 - t1) / n);
      spent += static_cast<double>(t2 - t0);
    }
  }
  out.receive_first_ns = median(first_costs);
  out.receive_dup_ns = median(dup_costs);

  const Bytes wire_bytes = *wires.front();
  const Bytes frame = net::encode_frame(wire_bytes);
  out.frame_encode_ns = timed_probe(log, "net.frame_encode", secs, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + net::encode_frame(wire_bytes).size();
    }
  });
  out.frame_decode_ns = timed_probe(log, "net.frame_decode", secs, [&](std::size_t n) {
    net::FrameReader reader(frame.size());
    for (std::size_t i = 0; i < n; ++i) {
      reader.feed(frame);
      g_sink = g_sink + reader.next()->size();
    }
  });
  return out;
}

void fill_cell_path(const rac::telemetry::Registry& reg, double secs,
                      double received, const ProbeCosts& probe,
                      RunResult& out) {
  using rac::telemetry::Hist;
  using rac::telemetry::Stat;
  auto c = [&](Stat st) {
    return static_cast<double>(reg.counter(st).value());
  };
  auto hist_ms = [&](Hist h, double q, double unit_to_ms) {
    return static_cast<double>(reg.histogram(h).percentile(q)) * unit_to_ms;
  };
  // Broadcaster::forward runs once per origination and once per
  // first-seen receive; the fan-out histogram counts those calls.
  const double originations = c(Stat::kNodeDataCellsSent) +
                              c(Stat::kNodeNoiseCellsSent) +
                              c(Stat::kNodeRelayRebroadcasts) +
                              c(Stat::kNodeAccusationsSent);
  const double fanouts =
      static_cast<double>(reg.histogram(Hist::kOverlayFanout).count());
  const double first_seen = std::max(0.0, fanouts - originations);
  const double dups = std::max(0.0, received - first_seen);
  const double delivered = c(Stat::kNodePayloadsDelivered);

  auto& L = out.per_layer;
  L["overlay.forwards_per_sim_s"] = c(Stat::kOverlayForwards) / secs;
  L["overlay.first_seen_share"] = received > 0 ? first_seen / received : 0;
  L["overlay.receive_first_ns"] = probe.receive_first_ns;
  L["overlay.receive_dup_ns"] = probe.receive_dup_ns;
  L["rac.data_cells_per_sim_s"] = c(Stat::kNodeDataCellsSent) / secs;
  L["rac.relay_rebroadcasts_per_sim_s"] = c(Stat::kNodeRelayRebroadcasts) / secs;
  L["rac.payloads_delivered_per_sim_s"] = delivered / secs;
  L["rac.onion_latency_p50_ms"] = hist_ms(Hist::kNodeOnionLatencyUs, 0.50, 1e-3);
  L["rac.onion_latency_p95_ms"] = hist_ms(Hist::kNodeOnionLatencyUs, 0.95, 1e-3);
  L["rac.onion_latency_p99_ms"] = hist_ms(Hist::kNodeOnionLatencyUs, 0.99, 1e-3);
  L["rac.relay_queue_p50_ms"] = hist_ms(Hist::kNodeRelayQueueNs, 0.50, 1e-6);
  L["rac.relay_queue_p99_ms"] = hist_ms(Hist::kNodeRelayQueueNs, 0.99, 1e-6);
  L["rac.accusations"] = c(Stat::kNodeAccusationsSent);
  L["rac.fingerprint_ns"] = probe.fingerprint_ns;
  L["rac.unpad_ns"] = probe.unpad_ns;
  L["crypto.peel_miss_ns"] = probe.peel_miss_ns;
  L["crypto.peel_relay_ns"] = probe.peel_relay_ns;
  L["crypto.onion_build_ns"] = probe.onion_build_ns;
  L["net.frame_encode_ns"] = probe.frame_encode_ns;
  L["net.frame_decode_ns"] = probe.frame_decode_ns;

  // A data cell's first-seen receive costs one unpad, one fingerprint and
  // one peel; a relay also re-peels the content it rebroadcasts.
  const double duties = c(Stat::kNodeRelayDuties);
  const double peels = first_seen + c(Stat::kNodeRelayRebroadcasts);
  const std::vector<AttributionTerm> terms = {
      {"overlay.est_share", "first-seen receives", first_seen, probe.receive_first_ns},
      {"overlay.est_share", "duplicate receives", dups, probe.receive_dup_ns},
      {"rac.fingerprint_est_share", "fingerprints of first-seen cells",
       first_seen, probe.fingerprint_ns},
      {"crypto.est_share", "peels that open nothing",
       std::max(0.0, peels - duties - delivered), probe.peel_miss_ns},
      {"crypto.est_share", "peels that open a layer", duties + delivered,
       probe.peel_relay_ns},
      {"crypto.est_share", "onions built", c(Stat::kNodeDataCellsSent),
       probe.onion_build_ns},
      {"crypto.est_share", "cells unpadded", first_seen, probe.unpad_ns},
  };
  out.terms.insert(out.terms.end(), terms.begin(), terms.end());
  out.raw["first_seen_receives"] = first_seen;
  out.raw["messages_received"] = received;
}

}  // namespace racbench
