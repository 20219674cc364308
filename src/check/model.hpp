// The skelcheck reference model: a pure host-side re-implementation of the
// SkelCL semantics the differential tester checks — Vector coherence flags,
// lazy distribution changes, partition planning (reusing the real
// skelcl::Distribution), the per-skeleton execution plans of
// core/detail/skeleton_exec.cpp *including their command order*, the fault
// injector's per-device command counting, the ExecGraph failure-continue
// semantics, and the blacklist/recover/retry loop.
//
// The model stores every element as a raw 32-bit pattern and evaluates user
// functions through check::evalFn, which mirrors the kernelc VM bit-for-bit.
// Where the model needs real library behavior with no device state attached
// (partitioning, distribution equality) it calls the real code; everything
// stateful is mirrored so the system under test cannot "check itself".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/distribution.hpp"

namespace skelcl::check {

/// Mirror of ocl::CommandError: a device command failed.  `permanent`
/// distinguishes device death from an exhausted transient retry loop;
/// `timedOut` mirrors status WatchdogTimeout (straggler/hang aborted by the
/// watchdog: not permanent, but escalates without retries and the recovery
/// layer *degrades* the device instead of blacklisting it).
struct ModelCommandError {
  int device = -1;
  bool permanent = false;
  bool timedOut = false;
  std::string what;
};

/// One device part of a model vector (mirror of VectorData::DevicePart).
struct MPart {
  int device = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
  bool hasBuf = false;               ///< buffer allocated (size > 0)
  std::vector<std::uint32_t> data;   ///< element bit patterns (size * w words)
};

/// Mirror of detail::VectorData.  An element is `w` 32-bit words: 1 for a
/// vector, `cols` for a matrix's row vector (MatrixData stores a matrix as a
/// VectorData whose elements are whole rows).
struct MVec {
  explicit MVec(std::size_t count, std::size_t words = 1)
      : n(count), w(words), host(count * words, 0) {}

  std::size_t n;
  std::size_t w;                     ///< words per element
  std::vector<std::uint32_t> host;   ///< n * w words
  bool hostValid = true;
  bool devicesValid = false;
  Distribution requested;  ///< latest requested distribution
  Distribution current;    ///< distribution the parts represent
  std::vector<MPart> parts;

  // mirror of the cached partition plan (plus the session and epoch it was
  // built under, matching VectorData's {planned_session_, planned_epoch_} key)
  std::vector<PartRange> planned;
  bool plannedValid = false;
  int plannedSession = 0;
  std::uint64_t plannedEpoch = 0;

  MPart* partOn(int device);
};

/// Extra (additional) skeleton argument on the model side.
struct MExtra {
  enum class Kind { Scalar, VectorRef, Sizes };
  Kind kind = Kind::Scalar;
  std::int64_t ci = 0;
  double cf = 0.0;
  MVec* vec = nullptr;
};

/// One stage of an element-wise chain on the model side (map and zip are
/// one-stage chains, pipelines longer ones).
struct MStage {
  std::string fn;
  MVec* zipVec = nullptr;  ///< null for map stages
  std::vector<MExtra> extras;
};

/// Build the real Distribution described by a DistSpec (combine functions are
/// materialized from the catalog for the element type).
Distribution makeDistribution(const DistSpec& spec, ElemType t);

class Model {
 public:
  /// `cores[d]` is device d's core count (drives the reduce/scan chunking).
  Model(const Config& cfg, std::vector<int> cores);

  ElemType elem() const { return cfg_.elem; }
  int aliveCount() const { return static_cast<int>(alive_.size()); }

  // --- per-op entry points (each throws real skelcl errors or
  // --- ModelCommandError exactly where the system would) ---
  void fill(MVec& v, std::int64_t base, std::int64_t step);
  void write(MVec& v, std::int64_t index, std::int64_t value);
  void setDist(MVec& v, const Distribution& d) { setDistribution(v, d); }
  void poke(MVec& v, int device, std::int64_t base, std::int64_t step);
  /// hostRead: makes the host copy current and returns it.
  const std::vector<std::uint32_t>& probe(MVec& v);

  void map(const std::string& fn, MVec& input, MVec& output, std::vector<MExtra> extras);
  void zip(const std::string& fn, MVec& left, MVec& right, MVec& output,
           std::vector<MExtra> extras);
  std::uint32_t reduce(const std::string& fn, MVec& input, std::vector<MExtra> extras);
  void scan(const std::string& fn, MVec& input, MVec& output);
  /// Mirror of the 1D MapOverlap skeleton (Stencil1 catalog fn, block halo
  /// exchange, neutral/clamp boundary).  `neutral` is the element bit pattern.
  void mapOverlap(const std::string& fn, int radius, bool clampPad, std::uint32_t neutral,
                  MVec& input, MVec& output);
  /// Mirror of the MatStencil op: host-read `src`, run the 2D MapOverlap over
  /// the first (src.n / cols) * cols elements viewed as a matrix (an MVec of
  /// rows, `cols` words each), download the result and write it into `dst`'s
  /// host copy.
  void matStencil(const std::string& fn, int radius, bool clampPad, std::uint32_t neutral,
                  std::size_t cols, MVec& src, MVec& dst);
  /// Returns whether the chain took the fused path (compared against
  /// Pipeline::lastRunFused()).
  bool pipe(MVec& input, std::vector<MStage>& stages, MVec& output, bool forceUnfused);
  std::uint32_t pipeReduce(MVec& input, std::vector<MStage>& stages,
                           const std::string& reduceFn, std::vector<MExtra> reduceExtras,
                           bool forceUnfused, bool* ranFused);

  /// Mirror of setPartitionWeights: applies to the *current* session.
  void setWeights(std::vector<double> weights);
  /// Mirror of activating a SessionScope for session `slot` (created lazily;
  /// slot 0 is the default session active at init).
  void switchSession(int slot);
  void blacklist(int device);  ///< mirror of skelcl::blacklistDevice
  /// Mirror of setFaultPlan + FaultInjector::install: resets counters and the
  /// dead flags, then arms the new rules.  Degrade state (health, strikes) is
  /// runtime state, not injector state, and survives installs — exactly like
  /// the blacklist.
  void installFaults(const std::vector<std::array<std::int64_t, 3>>& transients,
                     const std::vector<std::array<std::int64_t, 3>>& slows,
                     const std::vector<std::array<std::int64_t, 2>>& hangs,
                     int killDevice, std::int64_t killAfter);

  /// Mirror of the service map job the Cancel op runs (run=1): host-read the
  /// source slot, map it through a fresh vector pair under the dedicated
  /// service session, host-read the output, then overwrite `dst`'s host copy.
  void serviceMap(const std::string& fn, MVec& src, MVec& dst);

  // --- fault-injector mirror (used by MGraph) ---
  enum class Decision { None, Transient, Lost, Timeout };
  Decision onCommand(int device, int cls);  ///< cls: 0 transfer, 1 kernel
  int maxAttempts() const { return max_attempts_; }

 private:
  friend class MGraph;
  friend struct ModelTestAccess;

  // runtime mirror
  const std::vector<double>& applicableWeights() const;
  std::uint64_t partitionEpoch() const;  ///< weight epoch (current session) + device epoch
  Distribution effective(const Distribution& d) const;
  /// Mirror of Session::partition: node-aware two-level apportionment on a
  /// cluster config (cfg.nodes > 1), flat otherwise.
  std::vector<PartRange> partitionFor(const Distribution& d, std::size_t n) const;
  bool multiNode() const { return cfg_.nodes > 1; }
  void blacklistDevice(int device);
  void degradeDevice(int device);  ///< mirror of SharedDeviceState::degradeDevice
  // vector-data mirror
  const std::vector<PartRange>& plannedPartition(MVec& v);
  std::size_t partSizeOn(MVec& v, int device);
  bool partsMatchRequested(MVec& v);
  void setDistribution(MVec& v, const Distribution& d);
  void defaultDistribution(MVec& v, const Distribution& d);
  void ensureOnDevices(MVec& v);
  void ensureOnDevicesNoUpload(MVec& v);
  void ensureHostValid(MVec& v);
  void materializeParts(MVec& v, bool upload);
  void downloadParts(MVec& v);
  void combineCopiesToHost(MVec& v);
  void markDevicesModified(MVec& v);
  void markHostModified(MVec& v);
  void recoverAfterDeviceLoss(MVec& v, int deadDevice);
  void resetDeviceDataAfterLoss(MVec& v);
  void allocCheck(int device);  ///< mirror of ocl::Device::allocate's dead-device gate
  // skeleton mirror
  std::uint32_t eval(const std::string& fn, std::uint32_t a, std::uint32_t b,
                     std::int64_t ci, double cf) const;
  void prepareExtras(std::vector<MExtra>& extras);
  void bindExtrasCheck(const std::vector<MExtra>& extras, int device);
  void bindStageExtrasCheck(std::span<const MStage> stages, int device);
  /// Mirror of runReduceOnce: reduce over the elements a (possibly empty)
  /// fused chain produces.
  std::uint32_t reduceOnce(MVec& input, std::vector<MStage>& stages, const std::string& fn,
                           std::vector<MExtra>& extras);
  void scanOnce(const std::string& fn, MVec& input, MVec& output);
  bool chainEligible(MVec& input, const std::vector<MStage>& stages) const;
  Distribution materializeChainInputs(MVec& input, std::span<MStage> stages);
  bool chainWritesInput(const MVec& output, const MVec& input,
                        std::span<const MStage> stages) const;
  std::vector<MVec*> chainRecoveryInputs(MVec& input, std::span<const MStage> stages) const;
  std::uint32_t chainEval(std::span<const MStage> stages, std::uint32_t v, int device,
                          std::size_t j);
  void chainOnce(MVec& input, std::span<MStage> stages, MVec& output);
  /// Mirror of runChain, the one element-wise engine: map and zip are its
  /// one-stage case, a fused pipeline runs all its stages through it.
  void runChain(MVec& input, std::span<MStage> stages, MVec& output);
  void chainUnfused(MVec& input, std::vector<MStage>& stages, MVec& output);
  // map-overlap mirror
  std::uint32_t stencilEval(const std::string& fn, const std::vector<std::uint32_t>& pad,
                            std::size_t center, std::size_t stride) const;
  /// Mirror of runMapOverlapOnce, the one halo engine, command for command:
  /// each part's padded block is (partRows + 2 radius) x (input.w +
  /// 2 colRadius) words.  mapOverlap runs it with colRadius 0 over a vector,
  /// matStencil with colRadius = radius over a matrix's row vector.
  void overlapOnce(const std::string& fn, std::size_t radius, std::size_t colRadius,
                   bool clampPad, std::uint32_t neutral, MVec& input, MVec& output);

  template <typename Body>
  auto withRecovery(std::vector<MVec*> inputs, MVec* resetOutput, Body&& body)
      -> decltype(body());

  Config cfg_;
  std::vector<int> cores_;
  std::vector<int> node_of_;  ///< device id -> cluster node (all zero when local)

  // Mirror of SharedDeviceState's watchdog constants: the abort decision is
  // time-free (slow factor vs slack; hangs always abort) so the clockless
  // model can take it, and must match sim::WatchdogConfig defaults plus
  // SharedDeviceState::{kDegradedHealth, kDegradeStrikes}.
  static constexpr double kWatchdogSlack = 4.0;
  static constexpr double kDegradedHealth = 0.25;
  static constexpr int kDegradeStrikes = 3;
  /// Session slot serviceMap runs under -- any slot the generator never emits
  /// (Session ops use 0..3), mirroring the Service's dedicated session, which
  /// carries no partition weights.
  static constexpr int kServiceSessionSlot = 100;

  // Runtime mirror: shared blacklist state plus per-session scheduler
  // weights (mirror of the SharedDeviceState / Session split: the device
  // epoch is shared, the weight epoch is per session).
  std::vector<char> dead_;
  std::vector<int> alive_;
  std::vector<double> health_;     ///< 1.0 healthy, kDegradedHealth degraded
  std::vector<int> degrade_counts_;
  struct SessState {
    std::vector<double> weights;
    std::uint64_t weightEpoch = 0;
  };
  std::map<int, SessState> sessions_;
  int cur_session_ = 0;
  std::uint64_t device_epoch_ = 0;

  // FaultInjector mirror.
  struct TransRule {
    int device = -1;
    int cls = 0;  ///< 0 transfer, 1 kernel
    int remaining = 0;
  };
  struct SlowRule {
    int device = -1;
    double factor = 1.0;
    int remaining = 0;   ///< -1 = persistent (no count)
  };
  struct HangRule {
    int device = -1;
    int remaining = 0;
  };
  bool faults_active_ = false;
  std::vector<TransRule> trans_;
  std::vector<SlowRule> slows_;
  std::vector<HangRule> hangs_;
  int kill_device_ = -1;
  std::int64_t kill_after_ = 0;
  std::vector<std::uint64_t> cmd_counts_;
  std::vector<char> inj_dead_;
  int max_attempts_ = 4;
};

}  // namespace skelcl::check
