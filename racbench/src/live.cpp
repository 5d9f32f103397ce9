// The live workload, live_mesh_3: three NodeDrivers on three threads of
// this process, meshed over loopback TCP, openssl provider, open-loop
// slots every 0.5 ms — shorter than a node can serve, so goodput is
// CPU-bound and moves with per-cell CPU cost.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "net/node_driver.hpp"
#include "probes.hpp"
#include "rac/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace racbench {
namespace {

using rac::kMillisecond;
using rac::SimDuration;
using rac::telemetry::Stat;

constexpr std::size_t kNodes = 3;

rac::net::Manifest base_manifest(std::uint64_t seed) {
  rac::net::Manifest m;
  m.seed = seed;
  m.num_groups = 1;
  m.provider = "openssl";
  m.node.payload_size = 256;
  m.node.num_relays = 2;
  m.node.num_rings = 3;
  m.node.send_period = kMillisecond / 2;
  return m;
}

struct NodeRun {
  rac::net::Report report;
  double construct_s = 0;
  double run_wall_s = 0;
  CpuTimes thread_cpu;  // RUSAGE_THREAD of the node's own thread
  SpanLog spans;
  std::unique_ptr<rac::telemetry::Collector> collector;
  std::string error;
};

struct Mesh {
  NodeRun nodes[kNodes];
  double bind_s = 0;
  double process_cpu_s = 0;  // whole process over the mesh's lifetime
  SimDuration duration = 0;

  double setup_s() const {
    double worst = 0;
    for (const NodeRun& n : nodes) {
      worst = std::max(worst, n.construct_s + n.run_wall_s -
                                  n.report.duration_s);
    }
    return bind_s + worst;
  }
  bool all_ok() const {
    for (const NodeRun& n : nodes) {
      if (!n.report.ok || !n.error.empty()) return false;
    }
    return true;
  }
  template <typename F>
  double sum(F f) const {
    double s = 0;
    for (const NodeRun& n : nodes) s += static_cast<double>(f(n.report));
    return s;
  }
};

Mesh run_mesh(std::uint64_t seed, SimDuration duration, bool traced,
              SpanLog& log) {
  Mesh mesh;
  mesh.duration = duration;
  ScopedSpan mesh_span(log, traced ? "live.mesh_traced" : "live.mesh");
  rac::net::Manifest m = base_manifest(seed);
  m.duration = duration;
  // Each NodeDriver takes ownership of its listener and closes it.
  int fds[kNodes] = {-1, -1, -1};
  {
    const std::int64_t t0 = wall_ns();
    ScopedSpan span(log, "setup.bind");
    try {
      for (std::size_t i = 0; i < kNodes; ++i) {
        std::uint16_t port = 0;
        fds[i] = rac::net::listen_tcp("127.0.0.1", port);
        m.peers.push_back({static_cast<rac::EndpointId>(i), "127.0.0.1", port});
      }
    } catch (...) {
      for (const int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
      throw;
    }
    mesh.bind_s = static_cast<double>(wall_ns() - t0) / 1e9;
  }
  const CpuTimes cpu0 = cpu_times(RUSAGE_SELF);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kNodes; ++i) {
    threads.emplace_back([&, i] {
      NodeRun& n = mesh.nodes[i];
      if (traced) n.collector = std::make_unique<rac::telemetry::Collector>();
      rac::telemetry::Install install(n.collector.get());
      try {
        const std::int64_t t0 = wall_ns();
        std::unique_ptr<rac::net::NodeDriver> driver;
        {
          ScopedSpan span(n.spans, "node.construct");
          driver = std::make_unique<rac::net::NodeDriver>(
              m, static_cast<rac::EndpointId>(i), fds[i]);
          driver->set_start_timeout(20 * rac::kSecond);
        }
        const std::int64_t t1 = wall_ns();
        {
          ScopedSpan span(n.spans, "node.run");
          n.report = driver->run();
        }
        n.construct_s = static_cast<double>(t1 - t0) / 1e9;
        n.run_wall_s = static_cast<double>(wall_ns() - t1) / 1e9;
      } catch (const std::exception& e) {
        n.error = e.what();
      }
      n.thread_cpu = cpu_times(RUSAGE_THREAD);
    });
  }
  for (std::thread& t : threads) t.join();
  mesh.process_cpu_s = cpu_times(RUSAGE_SELF).total() - cpu0.total();
  for (NodeRun& n : mesh.nodes) log.adopt(n.spans, mesh_span.id());
  return mesh;
}

double slot_fill_share(const Mesh& mesh) {
  const double cells = mesh.sum([](const rac::net::Report& r) {
    return r.payloads_sent + r.noise_cells + r.relay_rebroadcasts;
  });
  const double nominal = static_cast<double>(kNodes) *
                         static_cast<double>(mesh.duration) /
                         static_cast<double>(kMillisecond / 2);
  return cells / nominal;
}

double goodput_kbps(const Mesh& mesh) {
  return mesh.sum([](const rac::net::Report& r) { return r.goodput_bps; }) / 1e3;
}

void check_mesh(const Mesh& mesh, const std::string& tag, RunResult& out) {
  std::string detail;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeRun& n = mesh.nodes[i];
    if (!n.report.ok || !n.error.empty()) {
      detail += "node " + std::to_string(i) + ": " +
                (n.error.empty() ? n.report.error : n.error) + "; ";
    }
  }
  out.check(tag + "reports_ok", mesh.all_ok(),
            detail.empty() ? "every Report.ok" : detail);
  const double delivered =
      mesh.sum([](const rac::net::Report& r) { return r.payloads_delivered; });
  out.check(tag + "delivered", delivered > 0,
            std::to_string(static_cast<std::uint64_t>(delivered)) +
                " payloads delivered");
}

void settle(const Mesh& mesh, RunResult& out) {
  // As in the DES: an onion whose sender saw its whole relay path is
  // settled, and a settled onion never delivered is a failure.
  const auto sent = static_cast<std::uint64_t>(
      mesh.sum([](const rac::net::Report& r) { return r.payloads_sent; }));
  const auto completed = static_cast<std::uint64_t>(
      mesh.sum([](const rac::net::Report& r) { return r.latency_count; }));
  const auto delivered = static_cast<std::uint64_t>(
      mesh.sum([](const rac::net::Report& r) { return r.payloads_delivered; }));
  out.attempted += sent;
  if (completed > delivered) out.failed += completed - delivered;
  out.unsettled += sent - std::min(sent, completed);
}

void fill_per_layer(const Mesh& traced, const Mesh& plain,
                    const ProbeCosts& probe, RunResult& out) {
  rac::telemetry::Registry reg;
  for (const NodeRun& n : traced.nodes) reg.merge(n.collector->registry());
  if (reg.counter(Stat::kOverlayForwards).value() == 0 ||
      reg.counter(Stat::kNodeDataCellsSent).value() == 0) {
    throw std::runtime_error(
        "traced run read zero telemetry counters: the library was built "
        "without RAC_TELEMETRY, so no per-layer numbers can be given");
  }
  const double secs = rac::to_seconds(traced.duration);
  auto& L = out.per_layer;
  for (const char* m : {"sim.events_per_sim_s", "sim.host_ns_per_event",
                        "sim.messages_per_sim_s", "sim.pending_events_peak",
                        "sim.uplink_wait_p50_us", "sim.uplink_wait_p99_us",
                        "shard.cpu_busy_share", "shard.windows_per_sim_s"}) {
    L[m] = 0;
    out.unavailable[m] = "the live workload bypasses the DES";
  }
  L["rac.evict_ms"] = 0;
  out.unavailable["rac.evict_ms"] = "no freeriders in this workload";

  // Every data frame sent is one Broadcaster forward to one successor.
  const double frames =
      static_cast<double>(reg.counter(Stat::kOverlayForwards).value());
  const double frames_dropped =
      traced.sum([](const rac::net::Report& r) { return r.frames_dropped; });
  const double received = std::max(0.0, frames - frames_dropped);
  fill_cell_path(reg, secs, received, probe, out);
  L["rac.evictions"] =
      traced.sum([](const rac::net::Report& r) { return r.evictions; });

  CpuTimes threads;
  for (const NodeRun& n : traced.nodes) {
    threads.user_s += n.thread_cpu.user_s;
    threads.sys_s += n.thread_cpu.sys_s;
    threads.voluntary_switches += n.thread_cpu.voluntary_switches;
    threads.involuntary_switches += n.thread_cpu.involuntary_switches;
  }
  const double delivered = static_cast<double>(
      reg.counter(Stat::kNodePayloadsDelivered).value());
  L["net.sys_cpu_share"] = threads.total() > 0 ? threads.sys_s / threads.total() : 0;
  L["net.wakeups_per_s"] = static_cast<double>(threads.voluntary_switches) / secs;
  L["net.preemptions_per_s"] =
      static_cast<double>(threads.involuntary_switches) / secs;
  L["net.slot_fill_share"] = slot_fill_share(traced);
  L["net.frames_per_onion"] = delivered > 0 ? frames / delivered : 0;
  L["net.disconnects"] =
      traced.sum([](const rac::net::Report& r) { return r.disconnects; });
  L["net.frames_dropped"] = frames_dropped;

  out.terms.push_back({"net.est_share", "frames encoded", frames, probe.frame_encode_ns});
  out.terms.push_back({"net.est_share", "frames decoded", received, probe.frame_decode_ns});
  out.basis_ns = traced.process_cpu_s * 1e9;
  out.untraced_basis_ns = plain.process_cpu_s * 1e9;
  out.overhead_basis = "goodput";
  out.traced_goodput = goodput_kbps(traced);
  out.untraced_goodput = goodput_kbps(plain);
}

}  // namespace

RunResult run_live_mesh(const Options& opt) {
  RunResult out;
  SpanLog& log = out.spans;
  const auto duration =
      static_cast<SimDuration>(opt.seconds * 1e9);
  if (opt.trace) {
    const Mesh plain = run_mesh(opt.seed, duration, false, log);
    const Mesh traced = run_mesh(opt.seed, duration, true, log);
    check_mesh(plain, "", out);
    check_mesh(traced, "traced_", out);
    settle(plain, out);
    settle(traced, out);
    std::unique_ptr<rac::CryptoProvider> provider =
        rac::make_provider(rac::SimulationConfig::Provider::kOpenSsl);
    const rac::net::Manifest m = base_manifest(opt.seed);
    ProbeShape shape;
    shape.provider = provider.get();
    shape.payload_size = m.node.payload_size;
    shape.cell_size = m.node.effective_cell_size(*provider);
    shape.num_relays = m.node.num_relays;
    shape.num_rings = m.node.num_rings;
    shape.scope_size = kNodes;
    shape.seed = opt.seed;
    shape.seconds_per_probe = opt.smoke ? 0.02 : 0.2;
    const ProbeCosts probe = run_probes(shape, log);
    fill_per_layer(traced, plain, probe, out);
  } else {
    // Short meshes first: setup_s is the median over every build-out.
    std::vector<double> setups;
    for (int i = 0; i < 4; ++i) {
      const Mesh warm = run_mesh(opt.seed, 100 * kMillisecond, false, log);
      check_mesh(warm, "setup" + std::to_string(i) + "_", out);
      setups.push_back(warm.setup_s());
    }
    // The budget is split over three independent meshes and each metric
    // is their median: one mesh in which a node is starved of slots, or
    // which meets a burst of load from elsewhere on the host, then moves
    // no figure.
    constexpr int kMeshes = 3;
    std::vector<double> goodput, cpu_ms_per_onion, host_per_proto_s, fill;
    for (int i = 0; i < kMeshes; ++i) {
      const Mesh mesh = run_mesh(opt.seed, duration / kMeshes, false, log);
      check_mesh(mesh, "mesh" + std::to_string(i) + "_", out);
      settle(mesh, out);
      setups.push_back(mesh.setup_s());
      const double delivered = mesh.sum(
          [](const rac::net::Report& r) { return r.payloads_delivered; });
      goodput.push_back(goodput_kbps(mesh));
      cpu_ms_per_onion.push_back(mesh.process_cpu_s * 1e3 /
                                 std::max(1.0, delivered));
      fill.push_back(slot_fill_share(mesh));
      host_per_proto_s.push_back(fill.back() > 0 ? 1.0 / fill.back() : 0);
    }
    auto& E = out.end_to_end;
    E["live_goodput_kbps"] = median(goodput);
    E["live_cpu_ms_per_onion"] = median(cpu_ms_per_onion);
    E["sim_goodput_kbps"] = median(goodput) / kNodes;
    E["host_s_per_sim_s"] = median(host_per_proto_s);
    E["setup_s"] = median(setups);
    E["peak_rss_kib_per_node"] = static_cast<double>(peak_rss_kib()) / kNodes;
    out.raw["slot_fill_share"] = median(fill);
  }
  out.check("no_failed_onions", out.failed == 0,
            std::to_string(out.failed) + " settled onions undelivered");
  return out;
}

}  // namespace racbench
