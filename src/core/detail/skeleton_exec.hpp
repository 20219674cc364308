// Untyped skeleton execution engine: kernel source generation (merging the
// user-defined function source into skeleton templates, paper Section II-A)
// and the multi-GPU execution plans of Section III-C.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/matrix_data.hpp"
#include "core/detail/vector_data.hpp"
#include "kernelc/value.hpp"

namespace skelcl {

/// MapOverlap boundary handling: what a stencil reads outside the input.
enum class Padding {
  Neutral,  ///< out-of-range accesses yield a user-supplied neutral element
  Clamp,    ///< out-of-range accesses clamp to the nearest edge element
};

}  // namespace skelcl

namespace skelcl::detail {

/// One additional skeleton argument (the paper's novel "additional
/// arguments" feature): a scalar, a vector, or a per-device size token.
struct ExtraArg {
  enum class Kind { Scalar, VectorRef, Sizes, Offsets };
  Kind kind = Kind::Scalar;

  // Scalar
  std::string typeName;     ///< kernel-language type ("float", "int", ...)
  bool scalarIsFloat = false;
  double scalarF = 0.0;
  std::int64_t scalarI = 0;

  // VectorRef / Sizes
  VectorData* vector = nullptr;
  std::string typeDefinition;  ///< struct typedef to prepend ("" for builtins)
};

/// One stage of a map/zip skeleton chain.  The first stage consumes the
/// chain input; every later stage consumes the previous stage's value.  A zip
/// stage additionally reads `zipInput` at the same element index.
struct FusedStage {
  std::string userSource;             ///< defines `func` (plus any helpers)
  VectorData* zipInput = nullptr;     ///< null for a map stage
  std::string zipTypeName;            ///< kernel type of zipInput elements
  std::string outTypeName;            ///< kernel type of the stage result
  std::size_t outElemSize = 0;        ///< host size of the stage result
  ElemKind outElemKind = ElemKind::Other;
  std::vector<ExtraArg> extras;
  VectorData* observeSink = nullptr;  ///< host-visible copy of this stage's
                                      ///< result; its presence forces the
                                      ///< unfused fallback (the intermediate
                                      ///< must materialize for the host)
};

/// What a chain's first stage reads at element i: `vector`[i] or, when
/// `vector` is null, i itself (Map<T(Index)> over an IndexVector of
/// `indexCount` elements distributed as `indexDist`; no buffer is read).
struct ChainInput {
  ChainInput(VectorData* input, std::string elemType)
      : vector(input), typeName(std::move(elemType)) {}
  ChainInput(std::size_t count, Distribution dist)
      : indexCount(count), indexDist(std::move(dist)) {}

  VectorData* vector = nullptr;
  std::string typeName;  ///< kernel type of `vector`'s elements
  std::size_t indexCount = 0;
  Distribution indexDist;

  std::size_t count() const { return vector != nullptr ? vector->count() : indexCount; }
};

/// The element-wise engine: ONE generated kernel per device evaluates every
/// stage back to back into `output`, with no intermediate vectors.  Map, Zip
/// and Map<T(Index)> are its one-stage case.  Zip's distribution rule holds
/// between the input and stage 0's zip input (both set and different: both
/// become block); every later zip input takes the chain's distribution, so a
/// longer chain must be eligible (runFusedChain checks).  All run* entry
/// points execute on behalf of `session` (whose weights drive partitioning,
/// and whose fair-share/VRAM accounts are charged) and hold the shared
/// device-state lock for the duration of the call.  `output` may alias an
/// input (in-place execution via Out<>).  No entry point here accepts a
/// vector additional argument that is its own output (UsageError).
void runChain(Session& session, const ChainInput& input, std::span<FusedStage> stages,
              VectorData& output);

/// Execute a Pipeline's map/zip chain over `input` into `output`.  When the
/// chain is eligible — no observed intermediates, every zip input's
/// distribution unset or equal to the chain's — it runs as one runChain;
/// otherwise each stage runs as its own one-stage chain with heap
/// temporaries.  Returns true when the fused path ran.
bool runFusedChain(Session& session, VectorData& input, const std::string& inTypeName,
                   std::vector<FusedStage>& stages, VectorData& output,
                   bool forceUnfused);

/// Reduce (paper III-C): device-local reductions into small partial vectors,
/// gather on the host (two-level on a cluster), final host-side fold.
/// Returns the result slot.  The zero-stage case of runFusedReduce.  Only
/// scalar additional arguments are allowed (UsageError before any launch).
kc::Slot runReduce(Session& session, const std::string& userSource, VectorData& input,
                   const std::string& typeName, std::vector<ExtraArg>& extras);

/// Scan (paper III-C, Figure 2): device-local scans, download of block sums,
/// implicit offset-combining maps on every device but the first.
void runScan(Session& session, const std::string& userSource, VectorData& input,
             VectorData& output, const std::string& typeName);

/// Execute a map/zip chain and immediately reduce the result without
/// materializing it: the chain expression is inlined into the device-local
/// reduction kernel; gather and host fold are runReduce's.  `stages` may be
/// empty (a plain reduce).  `ranFused` (optional) reports whether the fused
/// path ran.
kc::Slot runFusedReduce(Session& session, VectorData& input, const std::string& inTypeName,
                        std::vector<FusedStage>& stages,
                        const std::string& reduceSource,
                        std::vector<ExtraArg>& reduceExtras,
                        bool forceUnfused, bool* ranFused = nullptr);

/// MapOverlap: one halo engine serves both ranks.  Each device part is
/// staged into a padded block of (partRows + 2r) rows by (cols + 2 r_c)
/// scalars; in-range halo rows are exchanged between parts through host
/// staging (traced as kind "halo"), out-of-range reads follow the `padding`
/// policy (`neutral` supplies the neutral element, ignored for clamp).
/// Empty input -> empty output.
///
/// 1D, over a vector: cols = 1, r_c = 0.  Each output element is
/// `T func(__global T* pad, int center, extras...)` reading pad[center - r]
/// .. pad[center + r].  Device copies and fills build the apron.
void runMapOverlap1D(Session& session, const std::string& userSource, VectorData& input,
                     VectorData& output, const std::string& typeName, std::size_t radius,
                     Padding padding, const ExtraArg& neutral, std::vector<ExtraArg>& extras);

/// 2D, over a row-block matrix: cols = columnCount(), r_c = r.  The user
/// function is `T func(__global T* pad, int center, int stride, extras...)`;
/// neighbours live at center +- 1 and center +- stride.  A generated pack
/// kernel builds the apron (column padding and out-of-matrix rows).
void runMapOverlap2D(Session& session, const std::string& userSource, MatrixData& input,
                     MatrixData& output, const std::string& typeName, std::size_t radius,
                     Padding padding, const ExtraArg& neutral, std::vector<ExtraArg>& extras);

/// MapPairs: output(i, j) = func(left[i], right[j]).  The output matrix is
/// row-block distributed; `left` is switched to the matching block
/// distribution and `right` is replicated (copy) so every device holds the
/// columns it combines with its row block.
void runMapPairs(Session& session, const std::string& userSource, VectorData& left,
                 VectorData& right, MatrixData& output, const std::string& leftType,
                 const std::string& rightType, const std::string& outType,
                 std::vector<ExtraArg>& extras);

/// Slot <-> raw element conversions for scalar element kinds.
kc::Slot slotFromBytes(ElemKind kind, const std::byte* src);
void slotToBytes(ElemKind kind, kc::Slot value, std::byte* dst);

}  // namespace skelcl::detail
