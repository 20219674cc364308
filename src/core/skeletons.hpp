// The SkelCL skeletons (paper Section II-A): map, zip, reduce, scan, plus
// the stencil (MapOverlap) and all-pairs (MapPairs) skeletons over
// Vector<T> and Matrix<T>.
//
// A skeleton is constructed from the *source code* of a user-defined function
// (named `func`), passed as a plain string; SkelCL merges it with
// pre-implemented skeleton code into a valid kernel, which the runtime
// compiles on first use (and caches).  Skeletons accept additional arguments
// beyond their fixed inputs — scalars, vectors, and per-device size tokens —
// which are appended to the user function's parameter list (Section II-A,
// Listing 1).
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "core/detail/skeleton_exec.hpp"
#include "core/matrix.hpp"
#include "core/vector.hpp"

namespace skelcl {

/// Tag for index-based map skeletons: Map<int(Index)> takes an IndexVector.
struct Index {};

namespace detail {

template <typename T>
inline constexpr bool isSkeletonElement =
    std::is_same_v<T, float> || std::is_same_v<T, double> ||
    std::is_same_v<T, std::int32_t> || std::is_same_v<T, std::uint32_t>;

// --- additional-argument packing ---

template <typename T>
ExtraArg makeExtra(const Vector<T>& v) {
  ExtraArg e;
  e.kind = ExtraArg::Kind::VectorRef;
  e.typeName = kernelTypeName<T>();
  e.typeDefinition = kernelTypeDefinition<T>();
  e.vector = &v.impl();
  return e;
}

inline ExtraArg makeExtra(const SizesToken& token) {
  ExtraArg e;
  e.kind = ExtraArg::Kind::Sizes;
  e.vector = token.data;
  return e;
}

inline ExtraArg makeExtra(const OffsetsToken& token) {
  ExtraArg e;
  e.kind = ExtraArg::Kind::Offsets;
  e.vector = token.data;
  return e;
}

template <typename T, typename = std::enable_if_t<std::is_arithmetic_v<T>>>
ExtraArg makeExtra(T value) {
  ExtraArg e;
  e.kind = ExtraArg::Kind::Scalar;
  if constexpr (std::is_floating_point_v<T>) {
    e.typeName = std::is_same_v<T, double> ? "double" : "float";
    e.scalarIsFloat = true;
    e.scalarF = static_cast<double>(value);
  } else {
    // 8-byte integrals must stay 8-byte in the kernel: declaring them as
    // int/uint would truncate values beyond 2^31 (resp. 2^32) at bind time.
    if constexpr (sizeof(T) == 8) {
      e.typeName = std::is_unsigned_v<T> ? "ulong" : "long";
    } else {
      e.typeName = std::is_unsigned_v<T> ? "uint" : "int";
    }
    e.scalarIsFloat = false;
    e.scalarI = static_cast<std::int64_t>(value);
  }
  return e;
}

template <typename... Extras>
std::vector<ExtraArg> packExtras(const Extras&... extras) {
  std::vector<ExtraArg> out;
  (out.push_back(makeExtra(extras)), ...);
  return out;
}

/// A map stage `Tout func(x, extras...)` of an element-wise chain.
template <typename Tout, typename... Extras>
FusedStage makeStage(std::string userSource, const Extras&... extras) {
  FusedStage st;
  st.userSource = std::move(userSource);
  st.outTypeName = kernelTypeName<Tout>();
  st.outElemSize = sizeof(Tout);
  st.outElemKind = elemKindOf<Tout>();
  st.extras = packExtras(extras...);
  return st;
}

/// A zip stage `Tout func(x, right[i], extras...)` of an element-wise chain.
template <typename Tout, typename Tr, typename... Extras>
FusedStage makeZipStage(const Vector<Tr>& right, std::string userSource,
                        const Extras&... extras) {
  FusedStage st = makeStage<Tout>(std::move(userSource), extras...);
  st.zipInput = &right.impl();
  st.zipTypeName = kernelTypeName<Tr>();
  return st;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

template <typename>
class Map;

/// map(f)([x1..xn]) = [f(x1)..f(xn)]
template <typename Tout, typename Tin>
class Map<Tout(Tin)> {
  static_assert(detail::isSkeletonElement<Tin> && detail::isSkeletonElement<Tout>,
                "skeleton element types must be float/double/int/uint "
                "(structs travel through additional arguments)");

 public:
  explicit Map(std::string userSource) : source_(std::move(userSource)) {}

  template <typename... Extras>
  Vector<Tout> operator()(const Vector<Tin>& input, const Extras&... extras) {
    Vector<Tout> output(input.size());
    run(output, input, extras...);
    return output;
  }

  template <typename... Extras>
  void operator()(Out<Tout> output, const Vector<Tin>& input, const Extras&... extras) {
    SKELCL_CHECK(output.target().size() == input.size(), "output size mismatch");
    run(output.target(), input, extras...);
  }

 private:
  template <typename... Extras>
  void run(Vector<Tout>& output, const Vector<Tin>& input, const Extras&... extras) {
    detail::FusedStage stage = detail::makeStage<Tout>(source_, extras...);
    detail::runChain(detail::Session::current(), {&input.impl(), kernelTypeName<Tin>()},
                     {&stage, 1}, output.impl());
  }

  std::string source_;
};

/// Index-based map: work-items receive their global index (paper Listing 3).
template <typename Tout>
class Map<Tout(Index)> {
  static_assert(detail::isSkeletonElement<Tout>, "invalid output element type");

 public:
  explicit Map(std::string userSource) : source_(std::move(userSource)) {}

  template <typename... Extras>
  Vector<Tout> operator()(const IndexVector& input, const Extras&... extras) {
    Vector<Tout> output(input.size());
    detail::FusedStage stage = detail::makeStage<Tout>(source_, extras...);
    detail::runChain(detail::Session::current(), {input.size(), input.distribution()},
                     {&stage, 1}, output.impl());
    return output;
  }

 private:
  std::string source_;
};

/// Map<T> is shorthand for Map<T(T)>.
template <typename T>
class Map : public Map<T(T)> {
 public:
  using Map<T(T)>::Map;
};

// ---------------------------------------------------------------------------
// Zip
// ---------------------------------------------------------------------------

template <typename>
class Zip;

/// zip(op)([x...], [y...]) = [x1 op y1, ...]
template <typename Tout, typename Tl, typename Tr>
class Zip<Tout(Tl, Tr)> {
  static_assert(detail::isSkeletonElement<Tl> && detail::isSkeletonElement<Tr> &&
                    detail::isSkeletonElement<Tout>,
                "skeleton element types must be float/double/int/uint");

 public:
  explicit Zip(std::string userSource) : source_(std::move(userSource)) {}

  template <typename... Extras>
  Vector<Tout> operator()(const Vector<Tl>& left, const Vector<Tr>& right,
                          const Extras&... extras) {
    Vector<Tout> output(left.size());
    run(output, left, right, extras...);
    return output;
  }

  template <typename... Extras>
  void operator()(Out<Tout> output, const Vector<Tl>& left, const Vector<Tr>& right,
                  const Extras&... extras) {
    SKELCL_CHECK(output.target().size() == left.size(), "output size mismatch");
    run(output.target(), left, right, extras...);
  }

 private:
  template <typename... Extras>
  void run(Vector<Tout>& output, const Vector<Tl>& left, const Vector<Tr>& right,
           const Extras&... extras) {
    detail::FusedStage stage = detail::makeZipStage<Tout>(right, source_, extras...);
    detail::runChain(detail::Session::current(), {&left.impl(), kernelTypeName<Tl>()},
                     {&stage, 1}, output.impl());
  }

  std::string source_;
};

/// Zip<T> is shorthand for Zip<T(T, T)> (paper Listing 1: `Zip<float> saxpy`).
template <typename T>
class Zip : public Zip<T(T, T)> {
 public:
  using Zip<T(T, T)>::Zip;
};

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

template <typename>
class Reduce;

/// reduce(op)([x1..xn]) = x1 op x2 op ... op xn.  The operator must be
/// associative but may be non-commutative (paper II-A).
template <typename T>
class Reduce<T(T)> {
  static_assert(detail::isSkeletonElement<T>, "invalid element type");

 public:
  explicit Reduce(std::string userSource) : source_(std::move(userSource)) {}

  template <typename... Extras>
  T operator()(const Vector<T>& input, const Extras&... extras) {
    auto packed = detail::packExtras(extras...);
    const kc::Slot result = detail::runReduce(detail::Session::current(), source_,
                                              input.impl(), kernelTypeName<T>(), packed);
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(result.f);
    } else {
      return static_cast<T>(result.i);
    }
  }

 private:
  std::string source_;
};

/// Reduce<T> is shorthand for Reduce<T(T)>.
template <typename T>
class Reduce : public Reduce<T(T)> {
 public:
  using Reduce<T(T)>::Reduce;
};

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

template <typename>
class Scan;

/// scan(op)([x1..xn]) = [x1, x1 op x2, ..., x1 op ... op xn] (inclusive).
template <typename T>
class Scan<T(T, T)> {
  static_assert(detail::isSkeletonElement<T>, "invalid element type");

 public:
  explicit Scan(std::string userSource) : source_(std::move(userSource)) {}

  Vector<T> operator()(const Vector<T>& input) {
    Vector<T> output(input.size());
    detail::runScan(detail::Session::current(), source_, input.impl(), output.impl(),
                    kernelTypeName<T>());
    return output;
  }

  void operator()(Out<T> output, const Vector<T>& input) {
    SKELCL_CHECK(output.target().size() == input.size(), "output size mismatch");
    detail::runScan(detail::Session::current(), source_, input.impl(),
                    output.target().impl(), kernelTypeName<T>());
  }

 private:
  std::string source_;
};

/// Scan<T> is shorthand for Scan<T(T, T)>.
template <typename T>
class Scan : public Scan<T(T, T)> {
 public:
  using Scan<T(T, T)>::Scan;
};

// ---------------------------------------------------------------------------
// MapOverlap (stencil)
// ---------------------------------------------------------------------------

template <typename>
class MapOverlap;

/// Stencil skeleton: every output element is a function of its input element
/// and the neighbourhood within `radius`.  The user function receives a
/// pointer into a *padded* copy of (its device's part of) the input plus the
/// index of its centre element:
///
///   1D over Vector<T>:  `T func(__global T* in, int i, extras...)`
///       neighbours at in[i - radius] .. in[i + radius]
///   2D over Matrix<T>:  `T func(__global T* in, int i, int stride, extras...)`
///       neighbours at in[i +- k] (same row) and in[i +- k * stride] (columns)
///
/// Out-of-range accesses follow the Padding policy: Neutral yields the
/// user-supplied neutral element, Clamp the nearest edge element.  Across
/// devices the halo regions are exchanged through host staging and traced as
/// kind "halo" (docs/MATRIX.md).
template <typename Tout, typename Tin>
class MapOverlap<Tout(Tin)> {
  static_assert(detail::isSkeletonElement<Tin> && detail::isSkeletonElement<Tout>,
                "skeleton element types must be float/double/int/uint");
  static_assert(std::is_same_v<Tout, Tin>,
                "map-overlap reads its own output type's neighbourhood; "
                "input and output element types must match");

 public:
  /// `neutral` is read for Padding::Neutral only.
  MapOverlap(std::string userSource, std::size_t radius, Padding padding = Padding::Neutral,
             Tin neutral = Tin{})
      : source_(std::move(userSource)),
        radius_(radius),
        padding_(padding),
        neutral_(detail::makeExtra(neutral)) {
    SKELCL_CHECK(radius > 0, "map-overlap needs a positive radius");
  }

  // --- 1D (vector) ---

  template <typename... Extras>
  Vector<Tout> operator()(const Vector<Tin>& input, const Extras&... extras) {
    Vector<Tout> output(input.size());
    run(output, input, extras...);
    return output;
  }

  template <typename... Extras>
  void operator()(Out<Tout> output, const Vector<Tin>& input, const Extras&... extras) {
    SKELCL_CHECK(output.target().size() == input.size(), "output size mismatch");
    run(output.target(), input, extras...);
  }

  // --- 2D (matrix) ---

  template <typename... Extras>
  Matrix<Tout> operator()(const Matrix<Tin>& input, const Extras&... extras) {
    Matrix<Tout> output(input.rowCount(), input.columnCount());
    run(output, input, extras...);
    return output;
  }

  /// In-place-shaped overload for iterative stencils (Jacobi): writes into an
  /// existing matrix.  `output` must not share data with `input` — the
  /// stencil reads every neighbourhood of `input`.
  template <typename... Extras>
  void operator()(Matrix<Tout>& output, const Matrix<Tin>& input, const Extras&... extras) {
    SKELCL_CHECK(output.rowCount() == input.rowCount() &&
                     output.columnCount() == input.columnCount(),
                 "output shape mismatch");
    run(output, input, extras...);
  }

 private:
  template <typename... Extras>
  void run(Vector<Tout>& output, const Vector<Tin>& input, const Extras&... extras) {
    auto packed = detail::packExtras(extras...);
    detail::runMapOverlap1D(detail::Session::current(), source_, input.impl(), output.impl(),
                            kernelTypeName<Tin>(), radius_, padding_, neutral_, packed);
  }

  template <typename... Extras>
  void run(Matrix<Tout>& output, const Matrix<Tin>& input, const Extras&... extras) {
    auto packed = detail::packExtras(extras...);
    detail::runMapOverlap2D(detail::Session::current(), source_, input.impl(), output.impl(),
                            kernelTypeName<Tin>(), radius_, padding_, neutral_, packed);
  }

  std::string source_;
  std::size_t radius_;
  Padding padding_;
  detail::ExtraArg neutral_;
};

/// MapOverlap<T> is shorthand for MapOverlap<T(T)>.
template <typename T>
class MapOverlap : public MapOverlap<T(T)> {
 public:
  using MapOverlap<T(T)>::MapOverlap;
};

// ---------------------------------------------------------------------------
// MapPairs (all-pairs)
// ---------------------------------------------------------------------------

template <typename>
class MapPairs;

/// All-pairs skeleton: out(i, j) = func(left[i], right[j]) over every pair,
/// producing a left.size() x right.size() matrix.  The output (and left) are
/// row-block distributed; right is replicated on every device.  The user
/// function is `Tout func(Tl l, Tr r, extras...)`.
template <typename Tout, typename Tl, typename Tr>
class MapPairs<Tout(Tl, Tr)> {
  static_assert(detail::isSkeletonElement<Tl> && detail::isSkeletonElement<Tr> &&
                    detail::isSkeletonElement<Tout>,
                "skeleton element types must be float/double/int/uint");

 public:
  explicit MapPairs(std::string userSource) : source_(std::move(userSource)) {}

  template <typename... Extras>
  Matrix<Tout> operator()(const Vector<Tl>& left, const Vector<Tr>& right,
                          const Extras&... extras) {
    SKELCL_CHECK(right.size() > 0, "map-pairs needs a non-empty right vector "
                                   "(a matrix has at least one column)");
    Matrix<Tout> output(left.size(), right.size());
    run(output, left, right, extras...);
    return output;
  }

  template <typename... Extras>
  void operator()(Matrix<Tout>& output, const Vector<Tl>& left, const Vector<Tr>& right,
                  const Extras&... extras) {
    SKELCL_CHECK(output.rowCount() == left.size() && output.columnCount() == right.size(),
                 "output shape mismatch");
    run(output, left, right, extras...);
  }

 private:
  template <typename... Extras>
  void run(Matrix<Tout>& output, const Vector<Tl>& left, const Vector<Tr>& right,
           const Extras&... extras) {
    auto packed = detail::packExtras(extras...);
    detail::runMapPairs(detail::Session::current(), source_, left.impl(), right.impl(),
                        output.impl(), kernelTypeName<Tl>(), kernelTypeName<Tr>(),
                        kernelTypeName<Tout>(), packed);
  }

  std::string source_;
};

// ---------------------------------------------------------------------------
// Pipeline (fused skeleton chains)
// ---------------------------------------------------------------------------

/// A lazy chain of map/zip stages over one element type, optionally
/// terminated by a reduce.  Stages are only *collected* here; operator() (or
/// reduce()) hands the whole chain to the fusion engine, which emits ONE
/// generated kernel per device evaluating all stages back to back — no
/// intermediate vector is ever allocated — whenever the chain is eligible,
/// and falls back to stage-by-stage execution otherwise (an intermediate is
/// observed by the host, or a zip input carries a different distribution).
/// See docs/FUSION.md.
///
///   skelcl::Pipeline<float> p;
///   p.map("float func(float x) { return x * x; }")
///    .zip(ys, "float func(float x, float y) { return x + y; }");
///   skelcl::Vector<float> r = p(xs);
template <typename T>
class Pipeline {
  static_assert(detail::isSkeletonElement<T>,
                "pipeline element types must be float/double/int/uint");

 public:
  Pipeline() = default;

  /// Append a map stage: `T func(T x, extras...)`.
  template <typename... Extras>
  Pipeline& map(std::string userSource, const Extras&... extras) {
    stages_.push_back(detail::makeStage<T>(std::move(userSource), extras...));
    return *this;
  }

  /// Append a zip stage combining the chain value with `right`:
  /// `T func(T chainValue, T rightValue, extras...)`.
  template <typename... Extras>
  Pipeline& zip(const Vector<T>& right, std::string userSource, const Extras&... extras) {
    stages_.push_back(detail::makeZipStage<T>(right, std::move(userSource), extras...));
    retained_.push_back(right);  // keep the zip input's data alive
    return *this;
  }

  /// Capture the most recent stage's result into `sink` so the host can read
  /// the intermediate.  This forces the chain onto the unfused fallback (a
  /// fused chain has no intermediate to materialize).  `sink` must have the
  /// chain's element count.
  Pipeline& observe(Vector<T>& sink) {
    SKELCL_CHECK(!stages_.empty(), "observe: pipeline has no stages yet");
    stages_.back().observeSink = &sink.impl();
    retained_.push_back(sink);
    return *this;
  }

  /// Skip fusion even for eligible chains (benchmark baseline).
  Pipeline& forceUnfused(bool force = true) {
    force_unfused_ = force;
    return *this;
  }

  /// Run the chain over `input` into a fresh vector.
  Vector<T> operator()(const Vector<T>& input) {
    Vector<T> output(input.size());
    last_fused_ = detail::runFusedChain(detail::Session::current(), input.impl(),
                                        kernelTypeName<T>(), stages_, output.impl(),
                                        force_unfused_);
    return output;
  }

  /// Run the chain in place into an existing vector (may alias the input).
  void operator()(Out<T> output, const Vector<T>& input) {
    SKELCL_CHECK(output.target().size() == input.size(), "output size mismatch");
    last_fused_ = detail::runFusedChain(detail::Session::current(), input.impl(),
                                        kernelTypeName<T>(), stages_,
                                        output.target().impl(), force_unfused_);
  }

  /// Run the chain over `input` and reduce the result with the associative
  /// operator `reduceSource` (`T func(T a, T b, extras...)`) — fused, the
  /// chain is inlined into the reduction kernel and the chain result never
  /// materializes either.
  template <typename... Extras>
  T reduce(const std::string& reduceSource, const Vector<T>& input,
           const Extras&... extras) {
    auto packed = detail::packExtras(extras...);
    const kc::Slot result =
        detail::runFusedReduce(detail::Session::current(), input.impl(), kernelTypeName<T>(),
                               stages_, reduceSource, packed, force_unfused_, &last_fused_);
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(result.f);
    } else {
      return static_cast<T>(result.i);
    }
  }

  /// Whether the most recent run took the fused path.
  bool lastRunFused() const { return last_fused_; }
  std::size_t stageCount() const { return stages_.size(); }

  /// The user sources of every stage, in order (fed to the scheduler's
  /// pipeline cost model).
  std::vector<std::string> stageSources() const {
    std::vector<std::string> out;
    out.reserve(stages_.size());
    for (const auto& st : stages_) out.push_back(st.userSource);
    return out;
  }

 private:
  std::vector<detail::FusedStage> stages_;
  std::vector<Vector<T>> retained_;  ///< shared handles keeping inputs alive
  bool force_unfused_ = false;
  bool last_fused_ = false;
};

}  // namespace skelcl
