#include "docl/docl.hpp"

#include "base/error.hpp"
#include "core/detail/session.hpp"
#include "core/skelcl.hpp"

namespace skelcl::docl {

sim::SystemConfig flatten(const DistributedConfig& config) {
  SKELCL_CHECK(!config.servers.empty(), "a distributed system needs at least one server");
  sim::SystemConfig flat;
  flat.name = "dOpenCL";
  int linkBase = 0;
  for (std::size_t node = 0; node < config.servers.size(); ++node) {
    const sim::SystemConfig& server = config.servers[node];
    for (sim::DeviceSpec device : server.devices) {
      device.name = "node" + std::to_string(node) + "/" + device.name;
      if (device.pcie_link >= 0) device.pcie_link += linkBase;
      // Topology survives the flattening: the node id and the server's NIC
      // let the runtime route intra-node traffic locally and make collectives
      // cross the network once per node instead of once per device.
      device.node = static_cast<int>(node);
      device.nic_link = static_cast<int>(node);
      flat.devices.push_back(std::move(device));
    }
    for (sim::LinkSpec link : server.links) {
      link.name = "node" + std::to_string(node) + "/" + link.name;
      flat.links.push_back(std::move(link));
    }
    linkBase += static_cast<int>(server.links.size());
    sim::LinkSpec nic;
    nic.name = "node" + std::to_string(node) + "/nic";
    nic.bandwidth_gbs = config.network.bandwidth_gbs;
    nic.latency_us = config.network.latency_us;
    flat.nics.push_back(std::move(nic));
  }
  // The client's own memory system: a plain desktop.
  flat.host_mem_bandwidth_gbs = 8.0;
  flat.host_flops_gps = 6.0;
  return flat;
}

void initSkelCL(const DistributedConfig& config) {
  init(flatten(config));
  auto& system = detail::currentSession().system();
  sim::FaultPlan plan = networkFaultPlan(config);
  if (!plan.empty()) {
    // An unreliable network coexists with externally requested faults; the
    // env spec's seed and retry policy win when present.
    plan.merge(sim::FaultPlan::fromEnv());
    system.faults().install(std::move(plan));
  }
}

DistributedConfig laboratorySetup() {
  DistributedConfig config;
  config.servers.push_back(sim::SystemConfig::teslaS1070(4));
  config.servers.push_back(sim::SystemConfig::dualGpuServer());
  config.servers.push_back(sim::SystemConfig::dualGpuServer());
  return config;
}

sim::FaultPlan networkFaultPlan(const DistributedConfig& config) {
  sim::FaultPlan plan(config.network.fault_seed);
  if (config.network.drop_rate <= 0.0) return plan;
  int device = 0;
  for (const sim::SystemConfig& server : config.servers) {
    for (std::size_t d = 0; d < server.devices.size(); ++d) {
      // Each device's drop stream gets its own seed (splitmix-style mix of
      // the plan seed and the device id): a shared stream would correlate
      // "independent" drops across devices through command interleaving.
      const std::uint64_t seed =
          config.network.fault_seed ^
          (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(device + 1));
      plan.dropNetworkRandomly(device++, config.network.drop_rate,
                               config.network.timeout_us * 1e-6, seed);
    }
  }
  return plan;
}

std::pair<int, int> serverDeviceRange(const DistributedConfig& config, std::size_t node) {
  SKELCL_CHECK(node < config.servers.size(), "no such server node");
  int first = 0;
  for (std::size_t s = 0; s < node; ++s) {
    first += static_cast<int>(config.servers[s].devices.size());
  }
  const int count = static_cast<int>(config.servers[node].devices.size());
  SKELCL_CHECK(count > 0, "server node has no devices");
  return {first, first + count - 1};
}

std::vector<int> serverDevices(const DistributedConfig& config, std::size_t node) {
  const auto [first, last] = serverDeviceRange(config, node);
  std::vector<int> out;
  for (int d = first; d <= last; ++d) out.push_back(d);
  return out;
}

std::vector<int> aliveServerDevices(const DistributedConfig& config, std::size_t node,
                                    const std::vector<int>& alive) {
  const auto [first, last] = serverDeviceRange(config, node);
  std::vector<int> out;
  for (int d : alive) {
    if (d >= first && d <= last) out.push_back(d);
  }
  return out;
}

void killServer(sim::FaultPlan& plan, const DistributedConfig& config, std::size_t node,
                int afterCommands) {
  for (int d : serverDevices(config, node)) plan.killAfterCommands(d, afterCommands);
}

}  // namespace skelcl::docl
