// dOpenCL — a simulated distributed OpenCL (paper Section V, reference [12]).
//
// dOpenCL integrates the native OpenCL implementations of several servers
// into one unified implementation on a client: to the application, all
// remote devices appear as local devices.  Because it is a drop-in
// replacement, SkelCL runs on it without any modification.
//
// The simulation models exactly that: the devices of every server are
// flattened into one SystemConfig the client can init() with, and every
// command aimed at a remote device additionally pays the client<->server
// network cost (latency on every command, bandwidth on transfers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"

namespace skelcl::docl {

struct NetworkSpec {
  double bandwidth_gbs = 0.117;  ///< Gigabit Ethernet payload rate (GB/s)
  double latency_us = 120.0;     ///< request round-trip cost
  // Network unreliability (fault model): every remote command is dropped
  // with `drop_rate` probability and surfaces as a transient IoError after a
  // `timeout_us` wait; the runtime's retry policy re-issues it.
  double drop_rate = 0.0;
  double timeout_us = 500.0;
  std::uint64_t fault_seed = 1;  ///< seeds the (deterministic) drop stream
};

struct DistributedConfig {
  /// The servers whose devices the client aggregates.  The client itself
  /// contributes no devices (the paper's desktop PC has none).
  std::vector<sim::SystemConfig> servers;
  NetworkSpec network;
};

/// Flatten all server devices into one platform configuration, as dOpenCL
/// presents them to the application.  Device names are prefixed with their
/// node ("node0/Tesla T10 #1"); PCIe link indices are remapped.  Topology
/// survives the flattening: every device keeps its node id and a per-node
/// NIC link (from `network`), so remote transfers contend on the shared
/// client NIC and intra-node traffic stays off the network entirely
/// (docs/CLUSTER.md).
sim::SystemConfig flatten(const DistributedConfig& config);

/// Convenience: initialize the SkelCL runtime over the distributed system.
/// SkelCL code then runs unchanged — the paper's drop-in-replacement claim.
void initSkelCL(const DistributedConfig& config);

/// The paper's laboratory setup: the 4-GPU S1070 machine plus two dual-GPU
/// servers, aggregated on a client with no local devices (8 GPUs total).
DistributedConfig laboratorySetup();

/// The fault plan implied by the network spec: a seeded random network-drop
/// rule per device when drop_rate > 0 (empty plan otherwise).  initSkelCL
/// installs it automatically, merged with any SKELCL_FAULTS spec.
sim::FaultPlan networkFaultPlan(const DistributedConfig& config);

/// [first, last] flattened device ids contributed by server `node`.  A
/// static property of the config: ids of blacklisted devices stay inside
/// the range.  Use aliveServerDevices() for the current membership.
std::pair<int, int> serverDeviceRange(const DistributedConfig& config, std::size_t node);

/// All flattened device ids contributed by server `node`.
std::vector<int> serverDevices(const DistributedConfig& config, std::size_t node);

/// The subset of `alive` (e.g. Session::aliveDevices()) contributed by
/// server `node`.  Blacklisting makes the static range stale for scheduling
/// decisions; this is the helper that stays fresh.
std::vector<int> aliveServerDevices(const DistributedConfig& config, std::size_t node,
                                    const std::vector<int>& alive);

/// Model a whole server node going down: every one of its devices dies
/// permanently after `afterCommands` further commands.  SkelCL blacklists
/// them one by one as skeletons touch them and degrades onto the surviving
/// nodes.
void killServer(sim::FaultPlan& plan, const DistributedConfig& config, std::size_t node,
                int afterCommands);

}  // namespace skelcl::docl
