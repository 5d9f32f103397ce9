// The two DES workloads: des_fig3_100 (RAC-NoGroup saturation, the fig3
// point) and des_freerider_200 (two groups, constant rate, checks on,
// three seed-chosen forward-dropping freeriders, two shard threads).
//
// A repetition builds a Simulation, wires traffic, advances a fixed
// simulated horizon in run_for slices (digesting events, deliveries and
// evictions at every slice boundary), then stops all nodes and drains the
// network so every completed onion path has reached its destination.
#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "common.hpp"
#include "probes.hpp"
#include "rac/simulation.hpp"
#include "rac/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace racbench {
namespace {

using rac::kMillisecond;
using rac::SimDuration;
using rac::SimTime;
using rac::Simulation;
using rac::SimulationConfig;
using rac::telemetry::Hist;
using rac::telemetry::Stat;

struct DesShape {
  SimulationConfig cfg;
  SimDuration horizon = 0;
  SimDuration slice = 0;
  SimDuration plateau_from = 0;   // goodput window is [plateau_from, horizon)
  SimDuration replay_horizon = 0; // determinism replay when only one rep fits
  SimDuration drain_cap = 0;
  std::size_t freeriders = 0;
  /// Pinned (seed, time, payloads, events) anchor, checked when the seed
  /// and horizon reach it. seed 0 = none.
  std::uint64_t anchor_seed = 0;
  SimDuration anchor_at = 0;
  std::uint64_t anchor_payloads = 0;
  std::uint64_t anchor_events = 0;
};

DesShape fig3_shape(const Options& opt) {
  DesShape s;
  s.cfg.num_nodes = 100;
  s.cfg.group_target = 0;
  s.cfg.provider = SimulationConfig::Provider::kSim;
  s.cfg.node.num_relays = 5;
  s.cfg.node.num_rings = 7;
  s.cfg.node.payload_size = 2000;
  s.cfg.node.send_period = 0;
  s.cfg.node.saturation_window = 16;
  s.cfg.node.check_sweep_period = 0;
  s.cfg.shards = 1;
  s.slice = 50 * kMillisecond;
  s.horizon = (opt.smoke ? 100 : 1000) * kMillisecond;
  s.plateau_from = (opt.smoke ? 50 : 800) * kMillisecond;
  s.replay_horizon = (opt.smoke ? 50 : 100) * kMillisecond;
  s.drain_cap = 400 * kMillisecond;
  s.anchor_seed = 42;
  s.anchor_at = 400 * kMillisecond;
  s.anchor_payloads = 123;
  s.anchor_events = 4'114'042;
  return s;
}

DesShape freerider_shape(const Options& opt) {
  DesShape s;
  s.cfg.num_nodes = 200;
  s.cfg.group_target = 100;
  s.cfg.provider = SimulationConfig::Provider::kSim;
  s.cfg.node.num_relays = 3;
  s.cfg.node.num_rings = 5;
  s.cfg.node.payload_size = 500;
  s.cfg.node.send_period = 20 * kMillisecond;
  s.cfg.node.check_timeout = 150 * kMillisecond;
  s.cfg.node.check_sweep_period = 80 * kMillisecond;
  s.cfg.node.follower_quorum_t = 2;
  s.cfg.shards = 2;
  s.slice = 40 * kMillisecond;
  s.horizon = (opt.smoke ? 440 : 800) * kMillisecond;
  s.plateau_from = (opt.smoke ? 240 : 400) * kMillisecond;
  s.replay_horizon = 200 * kMillisecond;
  s.drain_cap = 400 * kMillisecond;
  s.freeriders = 3;
  return s;
}

/// Freerider node indices, drawn from the workload seed.
std::vector<std::size_t> pick_freeriders(const DesShape& s) {
  rac::Rng pick(s.cfg.seed ^ 0xf3ee41de5ULL);
  std::set<std::size_t> chosen;
  while (chosen.size() < s.freeriders) {
    chosen.insert(pick.next_below(s.cfg.num_nodes));
  }
  return {chosen.begin(), chosen.end()};
}

struct Built {
  std::unique_ptr<Simulation> sim;
  double setup_s = 0;
};

/// Construct and wire one deployment. The freeriders drop every ring
/// forward they owe (check #2 catches them); they still relay, so no
/// onion is lost to them.
Built build(const DesShape& s, const std::vector<std::size_t>& freeriders,
            SpanLog& log) {
  Built b;
  const std::int64_t t0 = wall_ns();
  ScopedSpan setup(log, "setup");
  {
    ScopedSpan span(log, "sim.construct");
    b.sim = std::make_unique<Simulation>(s.cfg);
  }
  {
    ScopedSpan span(log, "traffic_wiring");
    rac::Node::Behavior freerider;
    freerider.forward_drop_rate = 1.0;
    for (const std::size_t i : freeriders) b.sim->node(i).set_behavior(freerider);
    b.sim->start_uniform_traffic();
  }
  b.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  return b;
}

struct Rep {
  double setup_s = 0;
  double run_wall_s = 0;  // run_for slices up to the horizon
  double run_cpu_s = 0;   // process CPU over the same slices
  std::vector<std::uint64_t> slice_digests;
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::uint64_t delivered = 0;  // at the horizon
  std::uint64_t delivered_bytes = 0;
  double goodput_kbps = 0;      // per node, over the plateau window
  bool anchor_reached = false;
  std::uint64_t anchor_payloads = 0;
  std::uint64_t anchor_events = 0;
  std::vector<Simulation::EvictionRecord> evictions;
  std::uint64_t originated = 0;
  std::uint64_t completed = 0;         // sender saw the whole relay path
  std::uint64_t delivered_final = 0;   // after the drain
  SimDuration lookahead = 0;
  std::vector<std::set<std::uint64_t>> freerider_scopes;  // ScopeId::key
  std::vector<rac::EndpointId> freerider_eps;
};

Rep run_rep(const DesShape& s, const std::vector<std::size_t>& freeriders,
            SimDuration horizon, bool drain, SpanLog& log) {
  Rep r;
  ScopedSpan rep_span(log, "des.rep");
  Built b = build(s, freeriders, log);
  Simulation& sim = *b.sim;
  r.setup_s = b.setup_s;
  for (const std::size_t i : freeriders) {
    const rac::Node& n = sim.node(i);
    r.freerider_eps.push_back(n.endpoint());
    std::set<std::uint64_t> scopes{n.group_scope().key()};
    for (std::uint32_t a = 0; a < sim.num_groups(); ++a) {
      for (std::uint32_t c = a + 1; c < sim.num_groups(); ++c) {
        const std::uint32_t ch = rac::channel_id(a, c);
        const rac::overlay::View* v = sim.channel_view(ch);
        if (v != nullptr && v->contains(n.endpoint())) {
          scopes.insert(rac::ScopeId{rac::ScopeType::kChannel, ch}.key());
        }
      }
    }
    r.freerider_scopes.push_back(std::move(scopes));
  }

  Digest d;
  std::int64_t run_ns = 0;
  const CpuTimes cpu0 = cpu_times(RUSAGE_SELF);
  while (sim.simulator().now() < horizon) {
    const SimDuration step = std::min(s.slice, horizon - sim.simulator().now());
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan span(log, "sim.run_for");
      sim.run_for(step);
    }
    run_ns += wall_ns() - t0;
    const SimTime now = sim.simulator().now();
    d.add(static_cast<std::uint64_t>(now));
    d.add(sim.events_processed());
    d.add(sim.delivery_meter().total_messages());
    d.add(sim.delivery_meter().total_bytes());
    d.add(sim.evictions().size());
    r.slice_digests.push_back(d.value());
    r.pending_peak = std::max(r.pending_peak, sim.pending_events());
    if (now == s.anchor_at) {
      r.anchor_reached = true;
      r.anchor_payloads = sim.delivery_meter().total_messages();
      r.anchor_events = sim.events_processed();
    }
  }
  const CpuTimes cpu1 = cpu_times(RUSAGE_SELF);
  r.run_wall_s = static_cast<double>(run_ns) / 1e9;
  r.run_cpu_s = cpu1.total() - cpu0.total();
  r.events = sim.events_processed();
  r.delivered = sim.delivery_meter().total_messages();
  r.delivered_bytes = sim.delivery_meter().total_bytes();
  if (horizon > s.plateau_from) {
    r.goodput_kbps = sim.avg_node_goodput_bps(s.plateau_from, horizon) / 1e3;
  }
  r.evictions = sim.evictions();
  r.lookahead = sim.network().lookahead();
  for (const auto& e : r.evictions) {
    d.add(e.scope.key());
    d.add(e.evicted);
    d.add(static_cast<std::uint64_t>(e.when));
  }
  r.slice_digests.push_back(d.value());

  if (drain) {
    ScopedSpan span(log, "drain");
    sim.stop_all();
    const SimTime cap = sim.simulator().now() + s.drain_cap;
    while (sim.pending_events() > 0 && sim.simulator().now() < cap) {
      sim.run_for(10 * kMillisecond);
    }
    for (std::size_t i = 0; i < sim.size(); ++i) {
      r.originated += sim.node(i).payloads_sent();
      r.completed += sim.node(i).onion_latency().count();
    }
    r.delivered_final = sim.delivery_meter().total_messages();
  }
  return r;
}

std::string hex(std::uint64_t v) {
  std::ostringstream o;
  o << std::hex << v;
  return o.str();
}

/// Freeriders evicted from exactly the scopes they belong to, honest
/// nodes from none. Returns the simulated time of the last eviction.
SimTime check_evictions(const Rep& r, RunResult& out) {
  std::set<std::pair<std::uint64_t, rac::EndpointId>> want;
  for (std::size_t i = 0; i < r.freerider_eps.size(); ++i) {
    for (const std::uint64_t scope : r.freerider_scopes[i]) {
      want.insert({scope, r.freerider_eps[i]});
    }
  }
  std::set<std::pair<std::uint64_t, rac::EndpointId>> got;
  SimTime last = 0;
  std::size_t honest = 0;
  for (const auto& e : r.evictions) {
    got.insert({e.scope.key(), e.evicted});
    if (std::find(r.freerider_eps.begin(), r.freerider_eps.end(), e.evicted) ==
        r.freerider_eps.end()) {
      ++honest;
    }
    last = std::max(last, e.when);
  }
  std::ostringstream detail;
  detail << "want " << want.size() << " (scope, freerider) evictions, got "
         << got.size() << " distinct, " << honest << " of honest nodes";
  out.check("freeriders_evicted_exactly", got == want && honest == 0,
            detail.str());
  return last;
}

void settle(const Rep& r, RunResult& out) {
  // An onion is settled once its sender has seen its whole relay path;
  // a settled onion its destination never delivered is a failure. Onions
  // still queued at a relay when the nodes stopped are unsettled.
  out.attempted += r.originated;
  if (r.completed > r.delivered_final) out.failed += r.completed - r.delivered_final;
  out.unsettled += r.originated - std::min(r.originated, r.completed);
}

void fill_per_layer(const DesShape& s, const Rep& traced, const Rep& plain,
                    const rac::telemetry::Registry& reg,
                    const ProbeCosts& probe, RunResult& out) {
  const double sim_s = rac::to_seconds(s.horizon);
  auto c = [&](Stat st) {
    return static_cast<double>(reg.counter(st).value());
  };
  auto hist_us = [&](Hist h, double q) {
    return static_cast<double>(reg.histogram(h).percentile(q)) / 1e3;
  };
  fill_cell_path(reg, sim_s,
                 c(Stat::kNetMessagesSent) - c(Stat::kNetMessagesDropped),
                 probe, out);
  auto& L = out.per_layer;
  L["sim.events_per_sim_s"] = static_cast<double>(traced.events) / sim_s;
  L["sim.host_ns_per_event"] =
      traced.run_cpu_s * 1e9 / static_cast<double>(traced.events);
  L["sim.messages_per_sim_s"] = c(Stat::kNetMessagesSent) / sim_s;
  L["sim.pending_events_peak"] = static_cast<double>(traced.pending_peak);
  L["sim.uplink_wait_p50_us"] = hist_us(Hist::kNetUplinkWaitNs, 0.50);
  L["sim.uplink_wait_p99_us"] = hist_us(Hist::kNetUplinkWaitNs, 0.99);
  const double k = static_cast<double>(std::max(1u, s.cfg.shards));
  L["shard.cpu_busy_share"] = traced.run_cpu_s / (traced.run_wall_s * k);
  L["shard.windows_per_sim_s"] =
      traced.lookahead > 0 ? 1e9 / static_cast<double>(traced.lookahead) : 0;
  L["rac.evictions"] = static_cast<double>(traced.evictions.size());
  for (const char* m : {"net.sys_cpu_share", "net.wakeups_per_s",
                        "net.preemptions_per_s", "net.slot_fill_share",
                        "net.frames_per_onion", "net.disconnects",
                        "net.frames_dropped"}) {
    L[m] = 0;
    out.unavailable[m] = "the DES workloads bypass src/net";
  }
  if (s.freeriders == 0) {
    L["rac.evict_ms"] = 0;
    out.unavailable["rac.evict_ms"] = "no freeriders in this workload";
  }
  // CPU, not wall: with two shard threads the counted work is spread over
  // both, and CPU time does not include the waits at window barriers.
  out.basis_ns = traced.run_cpu_s * 1e9;
  out.untraced_basis_ns = plain.run_cpu_s * 1e9;
  out.overhead_basis = "host_time";
}

RunResult run_des(const DesShape& s, const Options& opt) {
  RunResult out;
  const std::vector<std::size_t> freeriders = pick_freeriders(s);
  SpanLog& log = out.spans;
  std::vector<Rep> reps;
  std::vector<double> setups;
  long peak_rss_first = 0;

  if (opt.trace) {
    // One untraced and one traced repetition: the per-layer numbers come
    // from the traced one, the difference is the tracing overhead, and
    // equal digests show the collector left the trace untouched.
    const Rep plain = run_rep(s, freeriders, s.horizon, true, log);
    rac::telemetry::Collector collector;
    Rep traced;
    {
      rac::telemetry::Install install(&collector);
      traced = run_rep(s, freeriders, s.horizon, true, log);
    }
    const auto& reg = collector.registry();
    if (reg.counter(Stat::kNetMessagesSent).value() == 0 ||
        reg.counter(Stat::kOverlayForwards).value() == 0) {
      throw std::runtime_error(
          "traced run read zero telemetry counters: the library was built "
          "without RAC_TELEMETRY, so no per-layer numbers can be given");
    }
    out.check("trace_neutral_digest",
              plain.slice_digests == traced.slice_digests,
              hex(plain.slice_digests.back()) + " vs " +
                  hex(traced.slice_digests.back()));
    std::unique_ptr<rac::CryptoProvider> provider = rac::make_provider(s.cfg.provider);
    ProbeShape shape;
    shape.provider = provider.get();
    shape.payload_size = s.cfg.node.payload_size;
    shape.cell_size = s.cfg.node.effective_cell_size(*provider);
    shape.num_relays = s.cfg.node.num_relays;
    shape.num_rings = s.cfg.node.num_rings;
    shape.scope_size = s.cfg.group_target == 0 ? s.cfg.num_nodes : s.cfg.group_target;
    shape.seed = s.cfg.seed;
    shape.seconds_per_probe = opt.smoke ? 0.02 : 0.2;
    const ProbeCosts probe = run_probes(shape, log);
    fill_per_layer(s, traced, plain, reg, probe, out);
    reps = {plain, traced};
  } else {
    // setup_s is the median of many set-ups (one takes well under a
    // millisecond), built and dropped before anything else has grown the
    // heap, so every run samples the same allocator state.
    {
      ScopedSpan span(log, "setup_samples");
      for (int i = 0; i < 51; ++i) setups.push_back(build(s, freeriders, log).setup_s);
    }
    // Full-horizon repetitions until the measuring budget is spent, at
    // most kMaxReps so the run's work does not depend on where the budget
    // happens to end. Peak RSS is read after the first, so it covers the
    // same work whatever the repetition count.
    constexpr std::size_t kMaxReps = 2;
    const std::int64_t t_start = wall_ns();
    do {
      reps.push_back(run_rep(s, freeriders, s.horizon, true, log));
      if (reps.size() == 1) peak_rss_first = peak_rss_kib();
    } while (static_cast<double>(wall_ns() - t_start) / 1e9 < opt.seconds &&
             reps.size() < kMaxReps);
    if (reps.size() == 1) {
      // Replay a prefix so determinism is still checked on this seed.
      const Rep replay = run_rep(s, freeriders, s.replay_horizon, false, log);
      const std::size_t n = replay.slice_digests.size() - 1;
      const bool same = std::equal(replay.slice_digests.begin(),
                                   replay.slice_digests.begin() + n,
                                   reps.front().slice_digests.begin());
      out.check("replay_prefix_digest", same,
                "first " + std::to_string(n) + " slice digests of a replay");
    }
  }

  bool same = true;
  for (const Rep& r : reps) {
    same = same && r.slice_digests == reps.front().slice_digests;
    settle(r, out);
  }
  out.check("repetition_digest", same,
            std::to_string(reps.size()) + " repetitions, digest " +
                hex(reps.front().slice_digests.back()));
  const Rep& r0 = reps.front();
  out.check("no_failed_onions", out.failed == 0,
            std::to_string(out.failed) + " settled onions undelivered");
  if (s.anchor_seed == s.cfg.seed && r0.anchor_reached) {
    out.check("pinned_anchor",
              r0.anchor_payloads == s.anchor_payloads &&
                  r0.anchor_events == s.anchor_events,
              std::to_string(r0.anchor_payloads) + " payloads, " +
                  std::to_string(r0.anchor_events) + " events at t=" +
                  std::to_string(s.anchor_at / kMillisecond) + " ms");
  }
  if (s.freeriders > 0) {
    const SimTime last = check_evictions(r0, out);
    out.per_layer["rac.evict_ms"] = static_cast<double>(last) / 1e6;
    out.raw["sim_evict_ms"] = static_cast<double>(last) / 1e6;
  }

  if (!opt.trace) {
    // Host cost is process CPU time (all threads), not wall time. The
    // windowed kernel blocks on a condition variable at every window
    // barrier (20,000 per simulated second here), so on a shared host wall
    // time mostly measures how fast the scheduler wakes the shard threads:
    // over ten seeds it spread 1.5x between runs where CPU time spread
    // 1.17x. Wall time stays in the record as a diagnostic.
    std::vector<double> host_per_sim, wall_per_sim, kbit_per_host_s,
        cpu_ms_per_onion;
    const double sim_s = rac::to_seconds(s.horizon);
    for (const Rep& r : reps) {
      host_per_sim.push_back(r.run_cpu_s / sim_s);
      wall_per_sim.push_back(r.run_wall_s / sim_s);
      kbit_per_host_s.push_back(static_cast<double>(r.delivered_bytes) * 8.0 /
                                r.run_cpu_s / 1e3);
      cpu_ms_per_onion.push_back(r.run_cpu_s * 1e3 /
                                 static_cast<double>(std::max<std::uint64_t>(1, r.delivered)));
    }
    auto& E = out.end_to_end;
    E["host_s_per_sim_s"] = median(host_per_sim);
    E["sim_goodput_kbps"] = r0.goodput_kbps;
    E["setup_s"] = median(setups);
    E["peak_rss_kib_per_node"] =
        static_cast<double>(peak_rss_first) / s.cfg.num_nodes;
    E["live_goodput_kbps"] = median(kbit_per_host_s);
    E["live_cpu_ms_per_onion"] = median(cpu_ms_per_onion);
    out.raw["host_wall_s_per_sim_s"] = median(wall_per_sim);
    out.raw["repetitions"] = static_cast<double>(reps.size());
    out.raw["events"] = static_cast<double>(r0.events);
    out.raw["delivered_at_horizon"] = static_cast<double>(r0.delivered);
  }
  out.raw["originated"] = static_cast<double>(r0.originated);
  out.raw["completed"] = static_cast<double>(r0.completed);
  out.raw["delivered_after_drain"] = static_cast<double>(r0.delivered_final);
  return out;
}

}  // namespace

RunResult run_des_fig3(const Options& opt) {
  DesShape s = fig3_shape(opt);
  s.cfg.seed = opt.seed;
  return run_des(s, opt);
}

RunResult run_des_freerider(const Options& opt) {
  DesShape s = freerider_shape(opt);
  s.cfg.seed = opt.seed;
  return run_des(s, opt);
}

}  // namespace racbench
