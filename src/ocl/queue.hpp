// In-order command queues with events and profiling.
//
// Commands execute eagerly (data is real), while their simulated start/end
// times come from the sim::System resource timelines.  Blocking calls and
// finish() advance the host clock, which is what benchmarks measure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernelc/bytecode.hpp"
#include "ocl/program.hpp"

namespace skelcl::ocl {

/// Completion marker of an enqueued command, with profiling info
/// (clGetEventProfilingInfo equivalent).  `epoch` tags the event with the
/// simulated-clock generation it was produced under (System::clockEpoch);
/// events from before a resetClock carry timestamps of a dead clock and are
/// ignored as dependencies.  `status` is the CL-style execution status
/// (sim::status): 0 on success, negative when the command failed — failed
/// events are *valid* (the command happened) but poison dependents.
class Event {
 public:
  Event() = default;
  Event(double start, double end, std::uint64_t epoch = 0, int status = 0)
      : start_(start), end_(end), epoch_(epoch), status_(status), valid_(true) {}

  bool valid() const { return valid_; }
  double profilingStart() const { return start_; }
  double profilingEnd() const { return end_; }
  double duration() const { return end_ - start_; }
  std::uint64_t epoch() const { return epoch_; }
  int status() const { return status_; }
  /// The command this event marks failed (status < 0).
  bool failed() const { return status_ < 0; }

 private:
  double start_ = 0.0;
  double end_ = 0.0;
  std::uint64_t epoch_ = 0;
  int status_ = 0;
  bool valid_ = false;
};

/// One enqueued command, as reported to the observability hook.
struct CommandInfo {
  enum class Kind { Write, Read, Copy, Fill, Kernel };
  Kind kind = Kind::Kernel;
  int device = 0;                    ///< the queue's device
  std::uint64_t bytes = 0;           ///< transfer/fill size (0 for kernels)
  std::uint64_t workItems = 0;       ///< kernel global size (0 for transfers)
  const char* kernelName = nullptr;  ///< kernel launches only
  int node = 0;                      ///< cluster node of the device (docl)
  /// Completed kernel launches only: the work-items ran on the work-group-
  /// batched interpreter (tier 2, batchable kernel, batching not disabled),
  /// or else why not.
  bool batched = false;
  kc::BatchFallback fallback = kc::BatchFallback::None;
};

/// Observability hook, invoked once per enqueued command with its completion
/// event.  Installed by the trace layer (core/detail/trace.cpp); the default
/// null hook costs one relaxed atomic load per enqueue.
using CommandHook = void (*)(const CommandInfo&, const Event&);
void setCommandHook(CommandHook hook);

class CommandQueue {
 public:
  /// An in-order queue for `device`.  `api` selects the runtime-efficiency
  /// profile (the CUDA shim reuses this queue with Api::Cuda).
  CommandQueue(Context& context, Device& device, Api api = Api::OpenCL);

  Device& device() { return *device_; }
  Api api() const { return api_; }

  /// Host -> device.
  Event enqueueWriteBuffer(Buffer& dst, std::uint64_t offset, std::uint64_t bytes,
                           const void* src, bool blocking = false,
                           std::span<const Event> deps = {});
  /// Device -> host.
  Event enqueueReadBuffer(const Buffer& src, std::uint64_t offset, std::uint64_t bytes,
                          void* dst, bool blocking = true,
                          std::span<const Event> deps = {});
  /// Device -> device (host-mediated on pre-peer-access hardware) or
  /// intra-device copy.
  Event enqueueCopyBuffer(const Buffer& src, Buffer& dst, std::uint64_t srcOffset,
                          std::uint64_t dstOffset, std::uint64_t bytes,
                          std::span<const Event> deps = {});
  /// Fill with a repeated byte (clEnqueueFillBuffer subset).
  Event enqueueFillBuffer(Buffer& dst, std::byte value, std::uint64_t offset,
                          std::uint64_t bytes, std::span<const Event> deps = {});
  /// Launch `globalSize` work-items of `kernel`, ids in
  /// [globalOffset, globalOffset + globalSize).
  Event enqueueNDRangeKernel(Kernel& kernel, std::uint64_t globalSize,
                             std::uint64_t globalOffset = 0,
                             std::span<const Event> deps = {});

  /// Block the host until every enqueued command has completed.
  void finish();
  /// The simulated completion time of the last enqueued command.
  double lastEventEnd() const { return last_end_; }
  /// Zero the in-order watermark; must accompany System::resetClock(),
  /// otherwise post-reset commands inherit pre-reset completion times
  /// (detail::Runtime::resetClock does both — prefer skelcl::resetSimClock).
  void resetClock() { last_end_ = 0.0; }

 private:
  double earliestStart(std::span<const Event> deps) const;
  /// CommandInfo for this queue's device, node id included.
  CommandInfo info(CommandInfo::Kind kind, std::uint64_t bytes, std::uint64_t workItems,
                   const char* kernelName) const;
  /// How an admitted command must be executed: injected slowdowns the
  /// watchdog tolerates stretch the timeline reservation by `timeScale`.
  struct Admission {
    double timeScale = 1.0;
  };
  /// Consult the system's fault injector before executing a command; on an
  /// injected fault, accounts the failed attempt on the timelines, reports
  /// it to the observability hook, and throws CommandError.  Slowdowns past
  /// the watchdog slack and hangs are aborted here, *before* the command's
  /// data effect runs (the buffers stay untouched, like a real aborted
  /// command).  `earliest` is the command's earliestStart(deps), computed
  /// once by the caller and shared with its own timeline reservation.
  Admission admitCommand(sim::CommandClass cls, const CommandInfo& info, double earliest);
  void noteCompletion(const Event& event, bool blocking);
  void checkBufferRange(const Buffer& buffer, std::uint64_t offset, std::uint64_t bytes,
                        const char* what) const;
  void checkBufferDevice(const Buffer& buffer, const char* what) const;

  Context* context_;
  Device* device_;
  Api api_;
  double last_end_ = 0.0;
  /// Clock epoch last_end_ belongs to; a stale value means System::resetClock
  /// ran without this queue's resetClock (caught by a SKELCL_CHECK).
  std::uint64_t watermark_epoch_ = 0;
};

}  // namespace skelcl::ocl
