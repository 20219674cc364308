#include "sim/system.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace skelcl::sim {

System::System(SystemConfig config) : config_(std::move(config)) {
  for (const auto& dev : config_.devices) {
    SKELCL_CHECK(dev.pcie_link < static_cast<int>(config_.links.size()),
                 "device references a link the system does not have");
    SKELCL_CHECK(dev.nic_link < static_cast<int>(config_.nics.size()),
                 "device references a NIC the system does not have");
    compute_.push_back(std::make_unique<Timeline>());
  }
  for (std::size_t i = 0; i < config_.links.size(); ++i) {
    links_.push_back(std::make_unique<Timeline>());
  }
  for (std::size_t i = 0; i < config_.nics.size(); ++i) {
    nics_.push_back(std::make_unique<Timeline>());
  }
}

const DeviceSpec& System::device(int index) const {
  SKELCL_CHECK(index >= 0 && index < deviceCount(), "device index out of range");
  return config_.devices[static_cast<std::size_t>(index)];
}

Timeline& System::linkOf(int device) {
  const int link = this->device(device).pcie_link;
  if (link < 0) return host_memory_;
  return *links_[static_cast<std::size_t>(link)];
}

double System::linkDuration(int device, std::uint64_t bytes) const {
  const DeviceSpec& spec = this->device(device);
  const double bandwidth_gbs =
      spec.pcie_link < 0 ? config_.host_mem_bandwidth_gbs
                         : config_.links[static_cast<std::size_t>(spec.pcie_link)].bandwidth_gbs;
  const double latency_s =
      spec.pcie_link < 0
          ? 0.5e-6
          : config_.links[static_cast<std::size_t>(spec.pcie_link)].latency_us * 1e-6;
  return latency_s + static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
}

double System::nicDuration(int device, std::uint64_t bytes) const {
  const DeviceSpec& spec = this->device(device);
  if (spec.nic_link < 0) return 0.0;
  const LinkSpec& nic = config_.nics[static_cast<std::size_t>(spec.nic_link)];
  return nic.latency_us * 1e-6 + static_cast<double>(bytes) / (nic.bandwidth_gbs * 1e9);
}

double System::transferDuration(int device, std::uint64_t bytes) const {
  return linkDuration(device, bytes) + nicDuration(device, bytes);
}

Timeline::Span System::reserveTransfer(int device, std::uint64_t bytes, double earliest,
                                       double scale) {
  stats_.transfers += 1;
  stats_.bytes_transferred += bytes;
  if (bytes == 0) {
    // An empty part still costs a command round-trip (latency) but moves no
    // data: it must not occupy the link or NIC timelines and queue behind
    // bulk transfers.
    const double start = std::max(earliest, 0.0);
    return Timeline::Span{start, start + transferDuration(device, 0) * scale};
  }
  const DeviceSpec& spec = this->device(device);
  if (spec.nic_link < 0) {
    return linkOf(device).reserve(earliest, linkDuration(device, bytes) * scale);
  }
  // Remote device: the network leg holds the client NIC and the server NIC
  // together (cut-through), then the server-local PCIe leg forwards the data.
  const double net = nicDuration(device, bytes) * scale;
  const Timeline::Span client = client_nic_.reserve(earliest, net);
  const Timeline::Span server =
      nics_[static_cast<std::size_t>(spec.nic_link)]->reserve(client.start, net);
  const Timeline::Span pcie =
      linkOf(device).reserve(server.end, linkDuration(device, bytes) * scale);
  return Timeline::Span{client.start, pcie.end};
}

Timeline::Span System::reservePeerTransfer(int src, int dst, std::uint64_t bytes,
                                           double earliest, double scale) {
  const DeviceSpec& s = this->device(src);
  const DeviceSpec& d = this->device(dst);
  if (bytes > 0 && s.nic_link >= 0 && d.nic_link >= 0 && s.node == d.node) {
    // Server-local copy: both PCIe legs, no client round-trip.
    stats_.transfers += 2;
    stats_.bytes_transferred += 2 * bytes;
    const Timeline::Span down = linkOf(src).reserve(earliest, linkDuration(src, bytes) * scale);
    const Timeline::Span up = linkOf(dst).reserve(down.end, linkDuration(dst, bytes) * scale);
    return Timeline::Span{down.start, up.end};
  }
  const Timeline::Span down = reserveTransfer(src, bytes, earliest, scale);
  const Timeline::Span up = reserveTransfer(dst, bytes, down.end, scale);
  return Timeline::Span{down.start, up.end};
}

Timeline::Span System::reserveKernel(int device, std::uint64_t instructions,
                                     std::uint64_t workItems, double apiEfficiency,
                                     double launchOverheadSec, double earliest,
                                     double scale) {
  const DeviceSpec& spec = this->device(device);
  const int lanes = static_cast<int>(
      std::min<std::uint64_t>(workItems == 0 ? 1 : workItems,
                              static_cast<std::uint64_t>(spec.cores)));
  const double rate = spec.instrPerSec(apiEfficiency, lanes);
  // Remote kernels pay the network command latency in their duration (the
  // launch message crossing to the server) without occupying the NICs: a
  // launch request is a few bytes, not a bulk transfer.
  const double network_latency_s =
      spec.nic_link >= 0
          ? config_.nics[static_cast<std::size_t>(spec.nic_link)].latency_us * 1e-6
          : 0.0;
  const double duration = (launchOverheadSec + network_latency_s +
                           static_cast<double>(instructions) / rate) *
                          scale;
  const Timeline::Span span =
      compute_[static_cast<std::size_t>(device)]->reserve(earliest, duration);
  stats_.kernel_launches += 1;
  stats_.instructions_executed += instructions;
  return span;
}

Timeline::Span System::reserveStall(int device, CommandClass cls, double seconds,
                                    double earliest) {
  Timeline& resource =
      cls == CommandClass::Kernel
          ? *compute_[static_cast<std::size_t>(device)]
          : linkOf(device);
  return resource.reserve(earliest, seconds);
}

Timeline::Span System::reserveHostCompute(std::uint64_t bytesTouched, std::uint64_t flops) {
  const double mem_s =
      static_cast<double>(bytesTouched) / (config_.host_mem_bandwidth_gbs * 1e9);
  const double cpu_s = static_cast<double>(flops) / (config_.host_flops_gps * 1e9);
  const Timeline::Span span = host_cpu_.reserve(host_now_, std::max(mem_s, cpu_s));
  host_now_ = span.end;
  stats_.host_compute_ops += 1;
  return span;
}

void System::advanceHost(double t) { host_now_ = std::max(host_now_, t); }

void System::resetClock() {
  for (auto& compute : compute_) compute->reset();
  for (auto& link : links_) link->reset();
  for (auto& nic : nics_) nic->reset();
  client_nic_.reset();
  host_memory_.reset();
  host_cpu_.reset();
  host_now_ = 0.0;
  ++clock_epoch_;
  stats_ = Stats{};
}

}  // namespace skelcl::sim
