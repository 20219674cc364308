// The simulated machine: devices, interconnects and their timelines.
//
// Commands are *executed eagerly* (the kernel VM computes real results) while
// the *time* they would take on the modeled hardware is accounted on resource
// timelines.  Benchmarks report this simulated time; correctness tests look
// only at the computed data.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"

namespace skelcl::sim {

/// Cumulative counters, useful for ablation benchmarks (e.g. the lazy-copying
/// experiment counts transfers avoided).
struct Stats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t instructions_executed = 0;
  std::uint64_t host_compute_ops = 0;
};

/// Watchdog over straggling and hung commands (docs/ROBUSTNESS.md).  A
/// command whose injected slowdown exceeds `slackFactor` — or that hangs
/// outright — is aborted at its deadline: `max(minDeadlineSeconds,
/// slackFactor * nominal duration)` past its start.  The decision uses only
/// the slack comparison, never wall/sim time, so it is deterministic and
/// mirrorable by the clock-free reference model.  With the watchdog disabled
/// a hang stalls its device for `hangStallSeconds` and then completes.
struct WatchdogConfig {
  bool enabled = true;
  double slackFactor = 4.0;          ///< tolerated duration multiplier
  double minDeadlineSeconds = 200e-6;  ///< floor for very short commands
  double hangStallSeconds = 3600.0;  ///< watchdog-off cost of a hang
};

class System {
 public:
  explicit System(SystemConfig config);

  const SystemConfig& config() const { return config_; }
  int deviceCount() const { return static_cast<int>(config_.devices.size()); }
  const DeviceSpec& device(int index) const;

  /// Host<->device transfer of `bytes` over the device's link, starting no
  /// earlier than `earliest`.  `scale` stretches the duration (injected
  /// slowdowns the watchdog tolerates).  For a remote device (nic_link >= 0)
  /// the network leg occupies both the client NIC and the server's NIC
  /// (cut-through: the server starts receiving as the client sends), then
  /// the server-local PCIe leg forwards to the device.  Zero-byte transfers
  /// pay command latency only and occupy no timeline — an empty part must
  /// not queue behind bulk traffic.
  Timeline::Span reserveTransfer(int device, std::uint64_t bytes, double earliest,
                                 double scale = 1.0);

  /// Device-to-device copy, host-mediated as on pre-peer-access hardware:
  /// a download over the source link followed by an upload over the
  /// destination link.  If both devices share one link the two halves
  /// serialize on it automatically.  When both devices sit on the *same
  /// cluster node* the copy is server-local: it uses the two PCIe legs only
  /// and never touches the NICs (the payoff of node-aware distributions,
  /// docs/CLUSTER.md).
  Timeline::Span reservePeerTransfer(int src, int dst, std::uint64_t bytes, double earliest,
                                     double scale = 1.0);

  /// Kernel execution of `instructions` total VM instructions spread over
  /// `workItems` items, launched through an API with efficiency
  /// `apiEfficiency` and fixed overhead `launchOverheadSec`.
  Timeline::Span reserveKernel(int device, std::uint64_t instructions,
                               std::uint64_t workItems, double apiEfficiency,
                               double launchOverheadSec, double earliest,
                               double scale = 1.0);

  /// Book `seconds` of dead time on the resource a command of class `cls`
  /// would have occupied: a watchdog deadline wait, or the full stall of an
  /// unwatched hang.  The device (or its link) is genuinely busy while the
  /// command dangles — other work queued behind it is delayed, which is what
  /// makes stragglers expensive.
  Timeline::Span reserveStall(int device, CommandClass cls, double seconds, double earliest);

  /// The modeled duration of a fault-free transfer of `bytes` to `device`
  /// (no reservation).  The watchdog derives transfer deadlines from it.
  double nominalTransferSeconds(int device, std::uint64_t bytes) const {
    return transferDuration(device, bytes);
  }

  /// Watchdog configuration (process-wide, survives resetClock()).
  const WatchdogConfig& watchdog() const { return watchdog_; }
  void setWatchdog(const WatchdogConfig& config) { watchdog_ = config; }

  /// Host-side computation touching `bytesTouched` of memory and performing
  /// `flops` scalar operations (whichever bound is larger wins).  Advances
  /// the host clock: host work is always program-ordered.
  Timeline::Span reserveHostCompute(std::uint64_t bytesTouched, std::uint64_t flops);

  /// Program-order host clock.
  double hostNow() const { return host_now_; }
  /// Move the host clock forward to `t` (blocking waits); never backwards.
  void advanceHost(double t);

  /// Zero all timelines, the host clock and the statistics.
  void resetClock();

  /// Generation counter of the simulated clock, bumped by resetClock().
  /// Events carrying an older epoch refer to a dead clock and must not be
  /// used as dependency times.
  std::uint64_t clockEpoch() const { return clock_epoch_; }

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// The fault injector applied to this machine's command stream.  Empty by
  /// default; install a FaultPlan to make commands fail (the plan survives
  /// resetClock(): injected hardware state is not simulated time).
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

 private:
  double transferDuration(int device, std::uint64_t bytes) const;
  double linkDuration(int device, std::uint64_t bytes) const;
  double nicDuration(int device, std::uint64_t bytes) const;
  Timeline& linkOf(int device);

  SystemConfig config_;
  std::vector<std::unique_ptr<Timeline>> compute_;  ///< per-device kernel timeline
  std::vector<std::unique_ptr<Timeline>> links_;
  std::vector<std::unique_ptr<Timeline>> nics_;  ///< per-server-node NICs
  Timeline client_nic_;   ///< the client machine's single NIC: every remote
                          ///< command funnels through it (the paper's
                          ///< Section V serialization point)
  Timeline host_memory_;  ///< link stand-in for host-integrated (CPU) devices
  Timeline host_cpu_;     ///< host-side staging/combining work
  double host_now_ = 0.0;
  std::uint64_t clock_epoch_ = 0;
  Stats stats_;
  FaultInjector faults_;
  WatchdogConfig watchdog_;
};

}  // namespace skelcl::sim
