// Unit-cost probes: time one layer's public function in a loop, on inputs
// shaped like a workload's (its provider, cell size, L, R and scope size).
// A probe's result times a count observed in the traced run estimates the
// layer's share of that run.
#pragma once

#include <cstddef>

#include "common.hpp"
#include "crypto/provider.hpp"
#include "telemetry/metrics.hpp"

namespace racbench {

struct ProbeShape {
  const rac::CryptoProvider* provider = nullptr;
  std::size_t payload_size = 0;
  std::size_t cell_size = 0;
  unsigned num_relays = 0;
  unsigned num_rings = 0;
  std::size_t scope_size = 0;  // members of the broadcast scope
  std::uint64_t seed = 0;
  double seconds_per_probe = 0.2;
};

/// Nanoseconds per call of each probed function.
struct ProbeCosts {
  double fingerprint_ns = 0;     // rac::content_fingerprint
  double unpad_ns = 0;           // rac::unpad_cell
  double peel_miss_ns = 0;       // rac::peel_content, not for this node
  double peel_relay_ns = 0;      // rac::peel_content, opens a relay layer
  double onion_build_ns = 0;     // rac::build_onion
  double receive_first_ns = 0;   // overlay::Broadcaster::on_receive, first
  double receive_dup_ns = 0;     // ... duplicate of a seen broadcast
  double frame_encode_ns = 0;    // net::encode_frame
  double frame_decode_ns = 0;    // net::FrameReader feed + next
};

/// Runs every probe, each inside a "probe.<layer>.<name>" span of `log`.
ProbeCosts run_probes(const ProbeShape& shape, SpanLog& log);

/// The per-layer numbers both drivers derive alike from a traced run's
/// registry: the overlay, rac and crypto metrics, the probe costs, and the
/// overlay/fingerprint/crypto attribution terms. `secs` is the protocol
/// time the counts cover, `received` the messages the overlay received.
void fill_cell_path(const rac::telemetry::Registry& reg, double secs,
                      double received, const ProbeCosts& probe,
                      RunResult& out);

}  // namespace racbench
