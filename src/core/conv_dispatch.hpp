// Backend dispatch registry: the one convolution engine.
//
// The paper's core claim is that spreading/interpolation dominates NUFFT
// runtime and is won or lost in the inner loop. Every convolution — single
// RHS (core/nufft.cpp) and batched (exec::BatchNufft) — runs through one
// function pointer bound from this registry at plan construction. The
// variants are instantiations of one template (core/conv_variants.hpp)
// covering the whole (Part 1 window + Part 2 gather/scatter) sample loop:
//
//   key = (backend ∈ {scalar, SSE, AVX2},
//          dim ∈ {1, 2, 3},
//          width2 = 2W ∈ {4, 5, 6, 7, 8}   — the calibrated widths of
//                                            core/tolerance.cpp — or 0,
//          evaluator ∈ {LUT, Horner})
//
// width2 = 0 is the runtime-width entry: its Part 1 is compute_window, so it
// covers every W (non-half-integer, outside the calibrated set). `find`
// falls back to it for any uncovered width, so a plan always binds a
// variant. The constexpr-W entries are bit-identical to the runtime-width
// entry of the same (backend, dim, evaluator) — enforced by the `dispatch`
// test label — so which one binds is a pure performance decision.
//
// Every variant takes the grid count nb: nb = 1 is the single-RHS loop;
// nb ≥ 2 runs the same loop over nb cell-interleaved grids (lane b of cell c
// at grid[c·nb + b]; see DESIGN.md §7), applying each sample's window to all
// nb lanes of a cell with the lane kernels of core/convolution.hpp.
//
// Selection happens once in the Nufft constructor (after the tolerance and
// ISA resolution) and is recorded in PlanStats and an obs counter.
//
// Adding a backend (AVX-512, fp64, a bin-sorted GPU-style path) means: a new
// ConvBackend enumerator, one conv_variants_<backend>.cpp TU defining
// append_<backend>_variants() (compiled at the *baseline* ISA — see the
// FP-contraction note in conv_variants.hpp), and a line in the ConvDispatch
// constructor. Call sites never change. See DESIGN.md §14.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"

namespace nufft {

/// Part-2 instruction set of a registered variant, resolved per plan from
/// PlanConfig::use_simd / isa and the CPU (Nufft::conv_mode()).
enum class ConvBackend : std::uint8_t { kScalar = 0, kSse = 1, kAvx2 = 2 };

const char* conv_backend_name(ConvBackend b);

/// Registry key: one entry per (backend, dim, 2W, evaluator) combination.
struct ConvVariantKey {
  ConvBackend backend = ConvBackend::kScalar;
  std::uint8_t dim = 0;     // 1..3
  std::uint8_t width2 = 0;  // 2·kernel_radius, exact; 0 = runtime width
  kernels::KernelEval eval = kernels::KernelEval::kLut;

  /// Packed identity, stable across runs (recorded in PlanStats and usable
  /// in logs/benches): backend<<24 | dim<<16 | width2<<8 | eval.
  std::uint32_t id() const {
    return (static_cast<std::uint32_t>(backend) << 24) |
           (static_cast<std::uint32_t>(dim) << 16) |
           (static_cast<std::uint32_t>(width2) << 8) | static_cast<std::uint32_t>(eval);
  }

  bool operator==(const ConvVariantKey& o) const {
    return backend == o.backend && dim == o.dim && width2 == o.width2 && eval == o.eval;
  }
};

/// Everything a sample-range call needs: the reordered coordinate arrays,
/// the reordered→original index map, one task's sample range, and (for
/// privatized tasks) the box origin for index rebasing.
struct ConvRange {
  const GridDesc* g = nullptr;
  WindowEval ev;                                        // lut or horner set
  std::array<const float*, 3> coords{nullptr, nullptr, nullptr};
  const index_t* orig_index = nullptr;
  index_t begin = 0;
  index_t end = 0;
  /// Non-null for privatized tasks: neighbour indices are rebased to
  /// idx − box_lo[d] (box-local, never wrapping) before scattering into the
  /// private buffer.
  const index_t* box_lo = nullptr;
};

/// Adjoint Part 1+2 over one sample range into nb ≤ kMaxBatch
/// cell-interleaved grids: add raws[b][orig_index[i]]·window into lane b of
/// dst. `strides` are in cells.
using ConvSpreadFn = void (*)(const ConvRange&, const cfloat* const* raws, index_t nb,
                              cfloat* dst, const std::array<index_t, 3>& strides);
/// Forward Part 1+2 over one sample range from nb ≤ kMaxBatch
/// cell-interleaved grids: the weighted neighbour sum of lane b into
/// outs[b][orig_index[i]].
using ConvInterpFn = void (*)(const ConvRange&, const cfloat* grid, index_t nb,
                              const std::array<index_t, 3>& strides, cfloat* const* outs);

struct ConvVariant {
  ConvVariantKey key;
  std::string name;  // "avx2.d3.w8.horner" ("wany" = runtime width) — also
                     // the obs counter suffix
  ConvSpreadFn spread = nullptr;
  ConvInterpFn interp = nullptr;
};

/// The process-wide variant table, built once on first use. Immutable and
/// lock-free to read; plan construction does one linear probe.
class ConvDispatch {
 public:
  static constexpr std::uint8_t kMinWidth2 = 4;  // W = 2.0
  static constexpr std::uint8_t kMaxWidth2 = 8;  // W = 4.0

  static const ConvDispatch& instance();

  /// The variant registered for `key`; for an unregistered width, the
  /// runtime-width entry of the same (backend, dim, evaluator). nullptr only
  /// for a dim outside 1..3.
  const ConvVariant* find(const ConvVariantKey& key) const;

  const std::vector<ConvVariant>& variants() const { return variants_; }

 private:
  ConvDispatch();
  std::vector<ConvVariant> variants_;
};

/// 2·kernel_radius when the radius is one of the calibrated half-integer
/// widths the registry instantiates, 0 otherwise (→ the runtime-width entry).
std::uint8_t conv_width2(double kernel_radius);

}  // namespace nufft
