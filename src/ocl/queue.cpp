#include "ocl/queue.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "kernelc/vm.hpp"
#include "sim/thread_pool.hpp"

namespace skelcl::ocl {

namespace {
std::atomic<CommandHook> g_command_hook{nullptr};

void reportCommand(const CommandInfo& info, const Event& event) {
  if (const CommandHook hook = g_command_hook.load(std::memory_order_relaxed)) {
    hook(info, event);
  }
}
}  // namespace

void setCommandHook(CommandHook hook) {
  g_command_hook.store(hook, std::memory_order_relaxed);
}

CommandQueue::CommandQueue(Context& context, Device& device, Api api)
    : context_(&context), device_(&device), api_(api) {
  SKELCL_CHECK(context.contains(device), "queue device is not part of the context");
}

CommandInfo CommandQueue::info(CommandInfo::Kind kind, std::uint64_t bytes,
                               std::uint64_t workItems, const char* kernelName) const {
  return {kind, device_->id(), bytes, workItems, kernelName, device_->spec().node};
}

double CommandQueue::earliestStart(std::span<const Event> deps) const {
  // A command can start once (a) the host has reached the enqueue point,
  // (b) all previous commands of this in-order queue are done, and (c) all
  // explicit event dependencies are done.  Dependency policy (one rule, no
  // silent time-0 defaults): an invalid (default-constructed) or failed
  // event as a dependency is a caller bug and throws; events from a
  // previous clock epoch (pre-resetClock) are *skipped* — their timestamps
  // belong to a clock that no longer exists, and the commands they marked
  // completed before the reset by definition.
  const auto& system = context_->platform().system();
  SKELCL_CHECK(last_end_ == 0.0 || watermark_epoch_ == system.clockEpoch(),
               "queue watermark is from a previous clock epoch: "
               "System::resetClock ran without CommandQueue::resetClock "
               "(use skelcl::resetSimClock, which resets both)");
  double earliest = std::max(system.hostNow(), last_end_);
  for (const Event& e : deps) {
    SKELCL_CHECK(e.valid(), "invalid (default-constructed) event passed as a dependency");
    SKELCL_CHECK(!e.failed(), "failed event passed as a dependency; the command "
                              "producing it never ran to completion");
    if (e.epoch() == system.clockEpoch()) {
      earliest = std::max(earliest, e.profilingEnd());
    }
  }
  return earliest;
}

CommandQueue::Admission CommandQueue::admitCommand(sim::CommandClass cls,
                                                   const CommandInfo& info,
                                                   double earliest) {
  auto& system = context_->platform().system();
  auto& faults = system.faults();
  if (!faults.active()) return {};
  const sim::FaultDecision decision = faults.onCommand(device_->id(), cls, earliest);
  if (decision.kind == sim::FaultDecision::Kind::None) return {};

  const double launchOverhead =
      (api_ == Api::Cuda ? device_->spec().launch_overhead_cuda_us
                         : device_->spec().launch_overhead_ocl_us) * 1e-6;

  if (decision.kind == sim::FaultDecision::Kind::Slow ||
      decision.kind == sim::FaultDecision::Kind::Hang) {
    const sim::WatchdogConfig& wd = system.watchdog();
    // Whether to abort is decided from the slack comparison alone (never
    // from clock values), so the clock-free reference model can mirror it.
    const bool abort =
        wd.enabled && (decision.kind == sim::FaultDecision::Kind::Hang ||
                       decision.slow_factor > wd.slackFactor);
    if (!abort) {
      if (decision.kind == sim::FaultDecision::Kind::Slow) {
        return {decision.slow_factor};  // tolerated straggler: just slower
      }
      // Unwatched hang: the device dangles for the full stall, then the
      // command runs.  Booking the stall first makes the real reservation
      // (and everything queued behind it) land after it.
      system.reserveStall(device_->id(), cls, wd.hangStallSeconds, earliest);
      return {};
    }
    // Watchdog abort: the deadline is the slack multiple of the command's
    // *nominal* (fault-free) duration, floored for very short commands.  The
    // resource is held until the deadline — the straggler burned real time —
    // and the command's data effect never runs.
    const double nominal = cls == sim::CommandClass::Transfer
                               ? system.nominalTransferSeconds(device_->id(), info.bytes)
                               : launchOverhead;
    const double deadline = std::max(wd.minDeadlineSeconds, wd.slackFactor * nominal);
    const auto span = system.reserveStall(device_->id(), cls, deadline, earliest);
    const Event event(span.start, span.end, system.clockEpoch(),
                      sim::status::WatchdogTimeout);
    noteCompletion(event, /*blocking=*/false);
    reportCommand(info, event);
    throw CommandError("device " + std::to_string(device_->id()) + " ('" +
                           device_->name() + "'): " + decision.what +
                           "; watchdog fired after " + std::to_string(deadline) + "s",
                       device_->id(), sim::status::WatchdogTimeout, event.profilingEnd(),
                       /*permanent=*/false);
  }

  Event event;
  if (decision.kind == sim::FaultDecision::Kind::Transient) {
    // The failed attempt occupies the resource like the real command would
    // (a dropped transfer still burned the wire; a faulted launch still held
    // the device); network timeouts extend the event past the reservation.
    sim::Timeline::Span span{};
    if (cls == sim::CommandClass::Transfer) {
      span = system.reserveTransfer(device_->id(), info.bytes, earliest);
    } else {
      const double overhead =
          (api_ == Api::Cuda ? device_->spec().launch_overhead_cuda_us
                             : device_->spec().launch_overhead_ocl_us) * 1e-6;
      span = system.reserveKernel(device_->id(), 0,
                                  info.workItems == 0 ? 1 : info.workItems,
                                  apiEfficiency(api_), overhead, earliest);
    }
    event = Event(span.start, span.end + decision.extra_delay_s, system.clockEpoch(),
                  decision.status);
  } else {
    // Device death: the command never executes; only the timeout (if any)
    // elapses before the failure surfaces.
    event = Event(earliest, earliest + decision.extra_delay_s, system.clockEpoch(),
                  decision.status);
  }
  noteCompletion(event, /*blocking=*/false);
  reportCommand(info, event);
  throw CommandError("device " + std::to_string(device_->id()) + " ('" + device_->name() +
                         "'): " + decision.what,
                     device_->id(), decision.status, event.profilingEnd(),
                     decision.kind == sim::FaultDecision::Kind::DeviceLost);
}

void CommandQueue::noteCompletion(const Event& event, bool blocking) {
  last_end_ = std::max(last_end_, event.profilingEnd());
  watermark_epoch_ = event.epoch();
  if (blocking) context_->platform().system().advanceHost(event.profilingEnd());
}

void CommandQueue::checkBufferRange(const Buffer& buffer, std::uint64_t offset,
                                    std::uint64_t bytes, const char* what) const {
  if (offset + bytes > buffer.size()) {
    throw UsageError(std::string(what) + ": range [" + std::to_string(offset) + ", " +
                     std::to_string(offset + bytes) + ") exceeds buffer size " +
                     std::to_string(buffer.size()));
  }
}

void CommandQueue::checkBufferDevice(const Buffer& buffer, const char* what) const {
  if (&buffer.device() != device_) {
    throw UsageError(std::string(what) + ": buffer lives on '" + buffer.device().name() +
                     "' but the queue drives '" + device_->name() + "'");
  }
}

Event CommandQueue::enqueueWriteBuffer(Buffer& dst, std::uint64_t offset,
                                       std::uint64_t bytes, const void* src, bool blocking,
                                       std::span<const Event> deps) {
  checkBufferRange(dst, offset, bytes, "enqueueWriteBuffer");
  checkBufferDevice(dst, "enqueueWriteBuffer");
  const double earliest = earliestStart(deps);
  const Admission adm = admitCommand(
      sim::CommandClass::Transfer,
      info(CommandInfo::Kind::Write, bytes, 0, nullptr), earliest);
  std::memcpy(dst.data() + offset, src, bytes);
  auto& system = context_->platform().system();
  const auto span = system.reserveTransfer(device_->id(), bytes, earliest, adm.timeScale);
  const Event event(span.start, span.end, system.clockEpoch());
  noteCompletion(event, blocking);
  reportCommand(info(CommandInfo::Kind::Write, bytes, 0, nullptr), event);
  return event;
}

Event CommandQueue::enqueueReadBuffer(const Buffer& src, std::uint64_t offset,
                                      std::uint64_t bytes, void* dst, bool blocking,
                                      std::span<const Event> deps) {
  checkBufferRange(src, offset, bytes, "enqueueReadBuffer");
  checkBufferDevice(src, "enqueueReadBuffer");
  const double earliest = earliestStart(deps);
  const Admission adm = admitCommand(
      sim::CommandClass::Transfer,
      info(CommandInfo::Kind::Read, bytes, 0, nullptr), earliest);
  std::memcpy(dst, src.data() + offset, bytes);
  auto& system = context_->platform().system();
  const auto span = system.reserveTransfer(device_->id(), bytes, earliest, adm.timeScale);
  const Event event(span.start, span.end, system.clockEpoch());
  noteCompletion(event, blocking);
  reportCommand(info(CommandInfo::Kind::Read, bytes, 0, nullptr), event);
  return event;
}

Event CommandQueue::enqueueCopyBuffer(const Buffer& src, Buffer& dst, std::uint64_t srcOffset,
                                      std::uint64_t dstOffset, std::uint64_t bytes,
                                      std::span<const Event> deps) {
  checkBufferRange(src, srcOffset, bytes, "enqueueCopyBuffer(src)");
  checkBufferRange(dst, dstOffset, bytes, "enqueueCopyBuffer(dst)");
  const double earliest = earliestStart(deps);
  const Admission adm = admitCommand(
      sim::CommandClass::Transfer,
      info(CommandInfo::Kind::Copy, bytes, 0, nullptr), earliest);
  std::memcpy(dst.data() + dstOffset, src.data() + srcOffset, bytes);

  auto& system = context_->platform().system();
  sim::Timeline::Span span{};
  if (&src.device() == &dst.device()) {
    // Intra-device copy: runs at device-memory speed, modeled as 20x the
    // host-link bandwidth.
    const double linkRate = 5.2e9;
    span = system.reserveKernel(src.device().id(), 0, 1, 1.0,
                                static_cast<double>(bytes) / (20.0 * linkRate), earliest,
                                adm.timeScale);
  } else {
    span = system.reservePeerTransfer(src.device().id(), dst.device().id(), bytes, earliest,
                                      adm.timeScale);
  }
  const Event event(span.start, span.end, system.clockEpoch());
  noteCompletion(event, /*blocking=*/false);
  reportCommand(info(CommandInfo::Kind::Copy, bytes, 0, nullptr), event);
  return event;
}

Event CommandQueue::enqueueFillBuffer(Buffer& dst, std::byte value, std::uint64_t offset,
                                      std::uint64_t bytes, std::span<const Event> deps) {
  checkBufferRange(dst, offset, bytes, "enqueueFillBuffer");
  checkBufferDevice(dst, "enqueueFillBuffer");
  const double earliest = earliestStart(deps);
  const Admission adm = admitCommand(
      sim::CommandClass::Transfer,
      info(CommandInfo::Kind::Fill, bytes, 0, nullptr), earliest);
  std::memset(dst.data() + offset, std::to_integer<int>(value), bytes);
  // Device-side fill: cheap, bounded by device memory bandwidth (modeled as
  // 20x link rate) plus one launch overhead.
  auto& system = context_->platform().system();
  const double overhead =
      (api_ == Api::Cuda ? device_->spec().launch_overhead_cuda_us
                         : device_->spec().launch_overhead_ocl_us) * 1e-6;
  const auto span = system.reserveKernel(
      device_->id(), 0, 1, 1.0, overhead + static_cast<double>(bytes) / (20.0 * 5.2e9),
      earliest, adm.timeScale);
  const Event event(span.start, span.end, system.clockEpoch());
  noteCompletion(event, /*blocking=*/false);
  reportCommand(info(CommandInfo::Kind::Fill, bytes, 0, nullptr), event);
  return event;
}

Event CommandQueue::enqueueNDRangeKernel(Kernel& kernel, std::uint64_t globalSize,
                                         std::uint64_t globalOffset,
                                         std::span<const Event> deps) {
  SKELCL_CHECK(globalSize > 0, "global work size must be positive");
  // VM execution below never advances the host clock or this queue's
  // watermark, so the start bound computed here is still valid for the
  // timeline reservation afterwards.
  const double earliest = earliestStart(deps);
  const Admission adm = admitCommand(
      sim::CommandClass::Kernel,
      info(CommandInfo::Kind::Kernel, 0, globalSize, kernel.name().c_str()),
      earliest);

  // Marshal arguments: buffers become VM memory regions, scalars pass through.
  const auto& fnArgs = kernel.args();
  std::vector<kc::MemRegion> regions;
  std::vector<kc::Slot> slots(fnArgs.size());
  for (std::size_t i = 0; i < fnArgs.size(); ++i) {
    const KernelArg& arg = fnArgs[i];
    switch (arg.kind) {
      case KernelArg::Kind::Unset:
        throw UsageError("kernel '" + kernel.name() + "': argument " + std::to_string(i) +
                         " was never set (CL_INVALID_KERNEL_ARGS)");
      case KernelArg::Kind::BufferArg: {
        checkBufferDevice(*arg.buffer, "enqueueNDRangeKernel");
        // const_cast: kernels may write; constness is tracked at the API
        // level by SkelCL's input/output distinction, not per buffer.
        auto* data = const_cast<std::byte*>(arg.buffer->data());
        regions.push_back(kc::MemRegion{data, arg.buffer->size()});
        kc::Ptr p;
        p.region = static_cast<std::int32_t>(regions.size());
        p.offset = 0;
        slots[i] = kc::Slot::fromPtr(p);
        break;
      }
      case KernelArg::Kind::ScalarArg:
        slots[i] = arg.scalar;
        break;
    }
  }

  // Execute all work items for real, counting VM instructions.
  const auto program = kernel.program().compiled();
  const int fnIndex = kernel.functionIndex();
  const kc::FunctionCode& fn = program->functions[static_cast<std::size_t>(fnIndex)];
  std::atomic<std::uint64_t> instructions{0};
  std::exception_ptr firstError;
  std::mutex errorMutex;

  // Work-group-batched execution (tier 2): amortize instruction dispatch over
  // up to kBatchLanes consecutive work-items per runKernelBatch call, unless
  // the kernel is not batchable, the launch is a single item, a buffer that
  // atomics target is also bound to another argument (the kernel's proof
  // that nothing else reads it covers its own parameters only), or
  // SKELCL_KC_BATCH=0 forces the sequential loop.
  const char* batchEnv = std::getenv("SKELCL_KC_BATCH");
  const auto atomicTargetAliased = [&] {
    for (const int t : fn.atomicArgs) {
      if (fnArgs[static_cast<std::size_t>(t)].kind != KernelArg::Kind::BufferArg) return true;
      const Buffer& target = *fnArgs[static_cast<std::size_t>(t)].buffer;
      for (std::size_t i = 0; i < fnArgs.size(); ++i) {
        const KernelArg& arg = fnArgs[i];
        if (static_cast<int>(i) == t || arg.kind != KernelArg::Kind::BufferArg) continue;
        if (arg.buffer->data() < target.data() + target.size() &&
            target.data() < arg.buffer->data() + arg.buffer->size()) {
          return true;
        }
      }
    }
    return false;
  };
  kc::BatchFallback fallback = kc::BatchFallback::None;
  if (program->tier < 2) {
    fallback = kc::BatchFallback::NotTier2;
  } else if (batchEnv != nullptr && std::strcmp(batchEnv, "0") == 0) {
    fallback = kc::BatchFallback::Disabled;
  } else if (!fn.batchable) {
    fallback = fn.batchFallback;
  } else if (globalSize == 1) {
    fallback = kc::BatchFallback::SingleItem;
  } else if (atomicTargetAliased()) {
    fallback = kc::BatchFallback::AtomicTargetAliased;
  }
  const bool useBatch = fallback == kc::BatchFallback::None;

  // Float atomics must sum in work-item order whatever the thread count.
  // Batched, each chunk logs its atomics: the first chunk applies them as it
  // goes, the others hand their logs back to be applied in chunk order.
  // Per item, a kernel with atomics runs as one chunk.
  std::vector<std::pair<std::uint64_t, std::vector<kc::DeferredAtomic>>> chunkLogs;
  const auto runChunk = [&](std::uint64_t begin, std::uint64_t end) {
    kc::Vm vm(*program, regions);
    try {
      if (useBatch) {
        vm.keepAtomicLog(begin != 0);
        for (std::uint64_t gid = begin; gid < end;) {
          const auto lanes = std::min<std::uint64_t>(
              end - gid, static_cast<std::uint64_t>(kc::Vm::kBatchLanes));
          vm.runKernelBatch(fnIndex, slots,
                            static_cast<std::int64_t>(globalOffset + gid),
                            static_cast<std::int64_t>(lanes),
                            static_cast<std::int64_t>(globalSize));
          gid += lanes;
        }
      } else {
        for (std::uint64_t gid = begin; gid < end; ++gid) {
          vm.runKernel(fnIndex, slots,
                       static_cast<std::int64_t>(globalOffset + gid),
                       static_cast<std::int64_t>(globalSize));
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::current_exception();
    }
    instructions.fetch_add(vm.instructionsExecuted());
    if (begin != 0 && !fn.atomicArgs.empty()) {
      std::lock_guard<std::mutex> lock(errorMutex);
      chunkLogs.emplace_back(begin, vm.takeAtomicLog());
    }
  };
  if (fn.usesAtomics && !useBatch) {
    runChunk(0, globalSize);
  } else {
    sim::ThreadPool::global().parallelFor(globalSize, runChunk);
  }
  if (firstError) std::rethrow_exception(firstError);
  std::sort(chunkLogs.begin(), chunkLogs.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [begin, log] : chunkLogs) kc::applyDeferredAtomics(log, regions);

  // Account simulated time.
  auto& system = context_->platform().system();
  const double overhead =
      (api_ == Api::Cuda ? device_->spec().launch_overhead_cuda_us
                         : device_->spec().launch_overhead_ocl_us) * 1e-6;
  const auto span = system.reserveKernel(device_->id(), instructions.load(), globalSize,
                                         apiEfficiency(api_), overhead, earliest,
                                         adm.timeScale);
  const Event event(span.start, span.end, system.clockEpoch());
  noteCompletion(event, /*blocking=*/false);
  CommandInfo done = info(CommandInfo::Kind::Kernel, 0, globalSize, kernel.name().c_str());
  done.batched = useBatch;
  done.fallback = fallback;
  reportCommand(done, event);
  return event;
}

void CommandQueue::finish() {
  context_->platform().system().advanceHost(last_end_);
}

}  // namespace skelcl::ocl
